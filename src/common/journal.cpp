#include "common/journal.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/fsio.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace musa {

namespace {

obs::Counter& append_count() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("journal.append.count");
  return c;
}

obs::Counter& fail_row_count() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("journal.append.fail_rows");
  return c;
}

obs::Counter& dropped_records() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("journal.dropped_records");
  return c;
}

obs::Histogram& append_us() {
  static obs::Histogram& h =
      obs::MetricRegistry::global().histogram("journal.append.us");
  return h;
}

constexpr const char* kMagic = "musa-journal v1";
/// Reserved key prefix marking a quarantine (FAIL) record; its payload is
/// the fixed four-cell {class, stage, attempts, message} schema.
constexpr const char* kFailPrefix = "FAIL!";
constexpr std::size_t kFailCells = 4;
constexpr std::size_t kFailMessageMax = 240;

std::string join(const std::vector<std::string>& cells, char sep) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out.push_back(sep);
    out += cells[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else if (ch != '\r') {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string record_line(const std::string& key,
                        const std::vector<std::string>& cells) {
  const std::string payload = key + '\t' + join(cells, ',');
  return payload + '\t' + hex64(fnv1a64(payload)) + '\n';
}

bool line_clean(const std::string& s) {
  return s.find_first_of("\t\n\r") == std::string::npos;
}

bool has_fail_prefix(const std::string& key) {
  return key.compare(0, std::strlen(kFailPrefix), kFailPrefix) == 0;
}

/// Exception texts are arbitrary; make them record-safe instead of letting
/// a comma in a message abort the quarantine path.
std::string sanitize_message(std::string msg) {
  for (char& ch : msg)
    if (ch == '\t' || ch == '\n' || ch == '\r' || ch == ',') ch = ';';
  if (msg.size() > kFailMessageMax) {
    msg.resize(kFailMessageMax - 3);
    msg += "...";
  }
  return msg;
}

std::vector<std::string> fail_cells(const ResultJournal::FailRecord& fail) {
  return {sanitize_message(fail.error_class), sanitize_message(fail.stage),
          std::to_string(fail.attempts), sanitize_message(fail.message)};
}

/// Strict FAIL payload decode. A numeric cell that does not parse exactly
/// (non-numeric, trailing bytes, negative, overflow) fails the whole
/// record — the checksum proves the bytes are what the writer sent, so a
/// malformed cell means writer/reader version skew or a writer bug, and
/// the record is treated like any other corrupt row: dropped and the
/// point recomputed, never a zero-attempts quarantine.
bool parse_fail(const std::vector<std::string>& cells,
                ResultJournal::FailRecord* fail) {
  if (!parse_int(cells[2], &fail->attempts) || fail->attempts < 0)
    return false;
  fail->error_class = cells[0];
  fail->stage = cells[1];
  fail->message = cells[3];
  return true;
}

/// One parsed journal record line. kBad covers every reject: wrong part
/// count, checksum mismatch, wrong cell width for the key's record type.
struct ParsedRecord {
  enum class Kind { kBad, kEntry, kFail };
  Kind kind = Kind::kBad;
  std::string key;                 // entry key, or FAIL key prefix-stripped
  std::vector<std::string> cells;  // entry row cells
  ResultJournal::FailRecord fail;
};

ParsedRecord parse_record(const std::string& line,
                          const std::vector<std::string>& header) {
  ParsedRecord rec;
  const std::vector<std::string> parts = split(line, '\t');
  if (parts.size() != 3) return rec;
  const std::string payload = parts[0] + '\t' + parts[1];
  if (hex64(fnv1a64(payload)) != parts[2]) return rec;
  std::vector<std::string> cells = split(parts[1], ',');
  if (has_fail_prefix(parts[0])) {
    if (cells.size() != kFailCells) return rec;
    if (!parse_fail(cells, &rec.fail)) return rec;
    rec.kind = ParsedRecord::Kind::kFail;
    rec.key = parts[0].substr(std::strlen(kFailPrefix));
    return rec;
  }
  if (cells.size() != header.size()) return rec;
  rec.kind = ParsedRecord::Kind::kEntry;
  rec.key = parts[0];
  rec.cells = std::move(cells);
  return rec;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

ResultJournal::LoadResult ResultJournal::read(
    const std::string& path, const std::vector<std::string>& header) {
  LoadResult out;
  std::ifstream in(path);
  if (!in.good()) return out;

  std::string line;
  if (!std::getline(in, line) || split(line, '\t')[0] != kMagic) {
    out.schema_mismatch = true;
    return out;
  }
  if (!std::getline(in, line) || split(line, ',') != header) {
    out.schema_mismatch = true;
    return out;
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ParsedRecord rec = parse_record(line, header);
    switch (rec.kind) {
      case ParsedRecord::Kind::kBad:
        ++out.dropped;
        break;
      case ParsedRecord::Kind::kFail:
        out.fails[rec.key] = std::move(rec.fail);
        break;
      case ParsedRecord::Kind::kEntry:
        out.entries[rec.key] = std::move(rec.cells);
        break;
    }
  }
  // A file that ends without a final newline has a truncated tail record;
  // the checksum (or part count) already rejected it above.

  // Good-beats-FAIL resolution, independent of record order: a key that
  // eventually produced a result is not quarantined, no matter how many
  // FAIL rows an earlier run appended for it.
  for (auto it = out.fails.begin(); it != out.fails.end();)
    it = out.entries.count(it->first) != 0 ? out.fails.erase(it) : ++it;
  return out;
}

ResultJournal::ResultJournal(std::string path, std::vector<std::string> header)
    : path_(std::move(path)), header_(std::move(header)) {
  MUSA_CHECK_MSG(!header_.empty(), "journal header must be non-empty");
  for (const auto& col : header_)
    MUSA_CHECK_MSG(line_clean(col) && col.find(',') == std::string::npos,
                   "journal header cell contains a delimiter: " + col);

  LoadResult loaded = read(path_, header_);
  if (loaded.schema_mismatch) {
    std::fprintf(stderr,
                 "[journal] %s: schema mismatch, starting a fresh journal\n",
                 path_.c_str());
    loaded = LoadResult{};
  }
  entries_ = std::move(loaded.entries);
  fails_ = std::move(loaded.fails);
  dropped_ = loaded.dropped;
  if (dropped_ > 0) dropped_records().add(dropped_);

  // Compact: rewrite only the valid records so a corrupt tail from a crash
  // (or a stale-schema file) cannot collide with the next append. Surviving
  // FAIL rows (quarantines without a good row) are kept — they are what
  // --retry-failed and the quarantine report resume from.
  std::string text = std::string(kMagic) + '\n' + join(header_, ',') + '\n';
  for (const auto& [key, cells] : entries_) text += record_line(key, cells);
  for (const auto& [key, fail] : fails_)
    text += record_line(kFailPrefix + key, fail_cells(fail));
  atomic_write_file(path_, text);
  out_ = std::make_unique<DurableAppender>(path_);
}

ResultJournal::~ResultJournal() = default;

bool ResultJournal::find_row(const std::string& key,
                             std::vector<std::string>* row) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (row != nullptr) *row = it->second;
  return true;
}

bool ResultJournal::find_fail(const std::string& key,
                              FailRecord* fail) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = fails_.find(key);
  if (it == fails_.end()) return false;
  if (fail != nullptr) *fail = it->second;
  return true;
}

void ResultJournal::append(const std::string& key,
                           const std::vector<std::string>& row) {
  MUSA_CHECK_MSG(line_clean(key), "journal key contains a delimiter: " + key);
  MUSA_CHECK_MSG(row.size() == header_.size(),
                 "journal record width mismatches header");
  for (const auto& cell : row)
    MUSA_CHECK_MSG(line_clean(cell) && cell.find(',') == std::string::npos,
                   "journal cell contains a delimiter: " + cell);
  MUSA_CHECK_MSG(!has_fail_prefix(key),
                 "journal key collides with the FAIL prefix: " + key);
  const std::string line = record_line(key, row);
  obs::Span span("journal.append", key);
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  MUSA_CHECK_MSG(out_ != nullptr, "append on a discarded journal");
  if (mutator_) {
    const std::string mutated = mutator_(key, line);
    if (mutated != line) {
      // A mutated record is lost work: write the damaged bytes (the next
      // load drops them via the checksum) but do not remember the entry,
      // exactly matching what a crash-and-restart would observe.
      out_->append(mutated);
      return;
    }
  }
  out_->append(line);
  append_count().add();
  append_us().observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  entries_[key] = row;
  fails_.erase(key);
}

void ResultJournal::append_fail(const std::string& key,
                                const FailRecord& fail) {
  MUSA_CHECK_MSG(line_clean(key), "journal key contains a delimiter: " + key);
  FailRecord clean;
  clean.error_class = sanitize_message(fail.error_class);
  clean.stage = sanitize_message(fail.stage);
  clean.attempts = fail.attempts;
  clean.message = sanitize_message(fail.message);
  const std::string line = record_line(kFailPrefix + key, fail_cells(clean));
  obs::Span span("journal.append_fail", key);
  span.set_outcome(obs::Outcome::kFail);
  std::lock_guard<std::mutex> lock(mu_);
  MUSA_CHECK_MSG(out_ != nullptr, "append on a discarded journal");
  out_->append(line);
  fail_row_count().add();
  // Good beats FAIL: a quarantine row never shadows a completed result.
  if (entries_.count(key) == 0) fails_[key] = std::move(clean);
}

void ResultJournal::set_append_mutator(AppendMutator mutator) {
  std::lock_guard<std::mutex> lock(mu_);
  mutator_ = std::move(mutator);
}

void ResultJournal::discard() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_) {
    out_->close();
    out_.reset();
  }
  std::remove(path_.c_str());
}

}  // namespace musa
