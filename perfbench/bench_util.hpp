// Shared helpers of the repository benchmark: host clocks, quantiles, the
// metric record printed at the end of a run, the in-memory span log of a
// traced run, and the committed result cache every workload checks against.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process so far (all threads).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(v.size(), rank) - 1];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Deterministic generator for everything a seed picks. The helpers below
/// avoid std:: distributions so a seed means the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::uint64_t below(std::uint64_t n) { return gen_() % n; }
  double uniform() {  // [0, 1)
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::mt19937_64 gen_;
};

/// Moves the calling thread from CPU to CPU of its original affinity mask.
/// On a shared host each CPU runs at its own, changing speed; a
/// single-threaded phase that rotates over all of them measures their
/// average instead of whichever one it happened to land on. Threads a
/// pinned thread creates inherit the pin, so unpin() before spawning
/// workers. Use from the thread that constructed it.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (pthread_getaffinity_np(pthread_self(), sizeof original_, &original_) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Runs the calling thread on the k-th usable CPU (k modulo their count).
  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }
  /// Restores the original mask.
  void unpin() {
    if (!cpus_.empty()) pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Named measurements of one run, printed as one JSON object in the order
/// they were first set. Units, and which names a run must report, live in
/// BENCHMARK.json; run.py joins the two.
class Values {
 public:
  void set(const std::string& name, double value) {
    for (auto& item : items_)
      if (item.first == name) {
        item.second = value;
        return;
      }
    items_.emplace_back(name, value);
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", items_[i].second);
      if (i) out += ", ";
      out += "\"" + items_[i].first + "\": " + num;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

/// Attempted / failed operation tally plus the first few failure reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void ok() { ++attempted; }
  void fail(const std::string& why) {
    ++attempted;
    ++failed;
    if (reasons.size() < 8) reasons.push_back(why);
  }
};

/// One span recorded by the benchmark around a call into a layer.
struct Span {
  const char* name;
  std::string key;   // the point or query the span belongs to
  double t0_us;      // since the log's origin
  double dur_us;
  int tid;
};

/// In-memory span log of a traced run, written once as Chrome trace JSON
/// when the run ends. Thread-safe; callers batch per thread where hot.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  void add(std::vector<Span>&& spans) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : spans) spans_.push_back(std::move(s));
  }
  void add(Span s) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write " + path);
    std::fputs("{\"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"key\": \"%s\"}}\n",
                   i ? "," : "", s.name, s.tid, s.t0_us, s.dur_us,
                   s.key.c_str());
    }
    std::fputs("]}\n", f);
    std::fclose(f);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The committed full-sweep cache: its exact bytes, and each point's row
/// (the line without its newline) by journal key "app|config-id".
struct CommittedCache {
  std::string bytes;
  std::vector<std::string> keys;  // file order
  std::unordered_map<std::string, std::string> rows;
};

}  // namespace bench
