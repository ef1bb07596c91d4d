#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace beesim::util {

/// RAII memory-mapped file, the I/O substrate of the checkpoint layer
/// (docs/CHECKPOINT.md). Loading a snapshot is "map + validate + bulk
/// column copies" — the kernel pages bytes in on demand and nothing is
/// parsed — and saving maps a freshly sized temporary file, memcpy's the
/// column images straight into the page cache, and hands the file to
/// replace_file() to become the checkpoint. Move-only; the mapping is
/// released on destruction (unmapping does not sync — replace_file
/// does).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps an existing file read-only. Throws std::runtime_error (with
  /// the path and errno string) when the file cannot be opened or mapped;
  /// an empty file maps successfully with size() == 0.
  static MappedFile open_readonly(const std::string& path);

  /// Creates (or truncates) `path` at exactly `size` bytes and maps it
  /// read-write. `size` must be > 0.
  static MappedFile create(const std::string& path, std::size_t size);

  const std::uint8_t* data() const noexcept {
    return static_cast<const std::uint8_t*>(addr_);
  }
  std::uint8_t* mutable_data() noexcept {
    return static_cast<std::uint8_t*>(addr_);
  }
  std::size_t size() const noexcept { return size_; }
  bool mapped() const noexcept { return addr_ != nullptr; }

  /// Unmaps now (idempotent; the destructor calls it).
  void reset() noexcept;

 private:
  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

/// Makes `from` durable and atomically puts it in place of `to`: fsyncs
/// the file, renames it over `to`, and fsyncs the containing directory so
/// the rename survives too. A crash at any point leaves `to` either as it
/// was or as `from`, never partial. Throws std::runtime_error (with the
/// path and errno string) on failure.
void replace_file(const std::string& from, const std::string& to);

}  // namespace beesim::util
