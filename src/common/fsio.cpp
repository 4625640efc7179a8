#include "common/fsio.hpp"

#include <cstdio>
#include <string>

#include "common/check.hpp"

#ifdef _WIN32
#include <io.h>
#define musa_fileno _fileno
#define musa_fsync _commit
#else
#include <unistd.h>
#define musa_fileno fileno
#define musa_fsync fsync
#endif

namespace musa {

namespace {
void flush_and_sync(std::FILE* f, const std::string& path) {
  MUSA_CHECK_MSG(std::fflush(f) == 0, "flush failed: " + path);
  MUSA_CHECK_MSG(musa_fsync(musa_fileno(f)) == 0, "fsync failed: " + path);
}
}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  MUSA_CHECK_MSG(f != nullptr, "cannot open for writing: " + tmp);
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
  if (written != content.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    throw SimError("short write: " + tmp);
  }
  flush_and_sync(f, tmp);
  MUSA_CHECK_MSG(std::fclose(f) == 0, "close failed: " + tmp);
#ifdef _WIN32
  std::remove(path.c_str());  // Windows rename() refuses to overwrite
#endif
  MUSA_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "rename failed: " + tmp + " -> " + path);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

DurableAppender::DurableAppender(const std::string& path) {
  out_ = std::fopen(path.c_str(), "ab");
  MUSA_CHECK_MSG(out_ != nullptr, "cannot open for appending: " + path);
}

DurableAppender::~DurableAppender() { close(); }

void DurableAppender::append(const std::string& data) {
  MUSA_CHECK_MSG(out_ != nullptr, "append on closed file");
  MUSA_CHECK_MSG(std::fwrite(data.data(), 1, data.size(), out_) == data.size(),
                 "short append");
  flush_and_sync(out_, "<journal>");
}

void DurableAppender::close() {
  if (out_) {
    std::fclose(out_);
    out_ = nullptr;
  }
}

}  // namespace musa
