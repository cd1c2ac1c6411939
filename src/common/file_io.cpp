#include "common/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pp {
namespace {

// Writes all of `data` to `fd`, riding out short writes and EINTR.
bool write_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

bool append_line(const std::string& path, std::string_view line) {
  std::string record(line);
  if (record.empty() || record.back() != '\n') record.push_back('\n');
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  // One write(2): O_APPEND makes the whole record land contiguously at
  // EOF even under concurrent appenders (see header).
  const bool ok = write_all(fd, record);
  ::close(fd);
  return ok;
}

bool write_file_atomic(const std::string& path, std::string_view content) {
  // pid + per-process sequence: concurrent writers — threads of one
  // process included — never share a temp file.
  static std::atomic<unsigned long> seq{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(seq.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, content);
  ::close(fd);
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return std::nullopt;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

bool make_dirs(const std::string& path) {
  if (path.empty()) return false;
  std::string prefix;
  prefix.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix.push_back(path[i]);
      continue;
    }
    if (i < path.size()) prefix.push_back('/');
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace pp
