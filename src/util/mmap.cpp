#include "util/mmap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace beesim::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("MappedFile: " + what + " '" + path +
                           "': " + std::strerror(errno));
}

}  // namespace

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(std::exchange(other.addr_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedFile::reset() noexcept {
  if (addr_ != nullptr) ::munmap(addr_, size_);
  addr_ = nullptr;
  size_ = 0;
}

MappedFile MappedFile::open_readonly(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("cannot stat", path);
  }
  MappedFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > 0) {
    // MAP_POPULATE prefaults the whole file in one batch: the immediate
    // sequential checksum pass would otherwise take a minor fault every
    // page.
    void* addr = ::mmap(nullptr, file.size_, PROT_READ,
                        MAP_PRIVATE | MAP_POPULATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      fail("cannot map", path);
    }
    file.addr_ = addr;
  }
  // The mapping keeps its own reference to the inode.
  ::close(fd);
  return file;
}

MappedFile MappedFile::create(const std::string& path, std::size_t size) {
  if (size == 0)
    throw std::invalid_argument("MappedFile::create: zero size");
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create", path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    fail("cannot size", path);
  }
  void* addr =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (addr == MAP_FAILED) {
    ::close(fd);
    fail("cannot map", path);
  }
  ::close(fd);
  MappedFile file;
  file.addr_ = addr;
  file.size_ = size;
  return file;
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
