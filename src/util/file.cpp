#include "util/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace beesim::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("cannot stat", path);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      ::close(fd);
      fail("cannot read", path);
    }
    if (got == 0) break;  // the file shrank since fstat
    done += static_cast<std::size_t>(got);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create", path);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t put = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (put < 0 && errno == EINTR) continue;
    if (put < 0) {
      ::close(fd);
      fail("cannot write", path);
    }
    done += static_cast<std::size_t>(put);
  }
  if (::close(fd) != 0) fail("cannot close", path);
}

void replace_file(const std::string& from, const std::string& to) {
  const int fd = ::open(from.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open", from);
  if (::fsync(fd) != 0) {
    ::close(fd);
    fail("cannot sync", from);
  }
  ::close(fd);
  if (::rename(from.c_str(), to.c_str()) != 0) fail("cannot rename", from);
  const std::size_t slash = to.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : to.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) fail("cannot open", dir);
  const int synced = ::fsync(dir_fd);
  ::close(dir_fd);
  if (synced != 0) fail("cannot sync", dir);
}

}  // namespace beesim::util
