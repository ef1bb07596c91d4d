#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace beesim::core {

/// 128-bit content hash used as the identity of a simulation scenario.
/// Two scenarios with equal hashes are treated as the same computation by
/// the serving layer's content-addressed cache (docs/SERVING.md), so the
/// hash is built from the exact bit patterns of every parameter — if the
/// hashes match, replaying the computation produces bit-identical results.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128& a, const Hash128& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Hash128& a, const Hash128& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const Hash128& a, const Hash128& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// "hhhhhhhhhhhhhhhh.llllllllllllllll" hex form for logs and cache keys.
  std::string to_string() const;
};

/// Streaming canonical hasher over a tagged, length-prefixed byte
/// serialization. Canonical means: every field is appended in a fixed
/// order behind a field tag, variable-length data is length-prefixed, and
/// doubles are hashed by bit pattern (not value), so two parameter sets
/// hash equal only when they are byte-for-byte the same configuration.
/// The tag bytes make field boundaries unambiguous — adjacent fields can
/// never alias.
///
/// The byte stream is folded one 64-bit word at a time: bytes pack
/// little-endian into words, and each full word takes one FNV-style
/// xor-multiply (the `hi` stream) and one splitmix64 round (the `lo`
/// stream). The digest depends only on the byte stream, never on how the
/// calls below cut it: `u64(x)` equals `bytes()` over x's eight
/// little-endian bytes, and any split of a string into consecutive
/// `bytes()` calls hashes like the whole.
class CanonicalHasher {
 public:
  /// Appends a one-byte structure/field tag.
  void tag(std::uint8_t t) noexcept { append(t, 1); }
  /// Appends a 64-bit unsigned value (little-endian canonical form).
  void u64(std::uint64_t v) noexcept { append(v, 8); }
  /// Appends a signed integer through its two's-complement 64-bit form.
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  /// Appends a double by bit pattern. Deliberately distinguishes -0.0
  /// from +0.0 and every NaN payload: identical hash must mean identical
  /// bits fed to the simulator, never merely "numerically equal".
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Appends a bool as one byte (0/1).
  void boolean(bool v) noexcept { append(v ? 1 : 0, 1); }
  /// Appends a string, length-prefixed.
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// Appends raw bytes (no length prefix — callers prefix themselves).
  void bytes(const void* data, std::size_t n) noexcept;

  /// The 128-bit digest of everything appended so far: the pending
  /// zero-padded tail word, then the total byte count, folded into a
  /// copy of both streams (so streams that differ only in trailing zero
  /// bytes still differ, and appending may continue afterwards).
  Hash128 digest() const noexcept {
    std::uint64_t hi = hi_;
    std::uint64_t lo = lo_;
    mix(hi, lo, tail_);
    mix(hi, lo, count_);
    return {hi, lo};
  }

 private:
  static void mix(std::uint64_t& hi, std::uint64_t& lo,
                  std::uint64_t word) noexcept {
    // FNV-1a's xor-then-multiply, with a dense odd multiplier: the 64-bit
    // FNV prime has five bits set, too few to spread a whole word.
    hi = (hi ^ word) * 0xff51afd7ed558ccdULL;
    hi ^= hi >> 32;  // top-bit differences reach the next multiply's low bits
    lo ^= word;      // splitmix64 round
    lo += 0x9e3779b97f4a7c15ULL;
    lo = (lo ^ (lo >> 30)) * 0xbf58476d1ce4e5b9ULL;
    lo = (lo ^ (lo >> 27)) * 0x94d049bb133111ebULL;
    lo ^= lo >> 31;
  }

  /// Appends `len` (1..8) stream bytes held little-endian in `word`,
  /// which is zero above them.
  void append(std::uint64_t word, unsigned len) noexcept {
    const auto used = static_cast<unsigned>(count_ & 7);  // bytes in tail_
    tail_ |= word << (8 * used);
    count_ += len;
    if (used + len >= 8) {
      mix(hi_, lo_, tail_);
      // The bytes of `word` that did not fit, word >> (64 - 8 * used),
      // in two shifts so that used == 0 never shifts by 64.
      tail_ = (word >> 1) >> (63 - 8 * used);
    }
  }

  std::uint64_t hi_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t lo_ = 0x9e3779b97f4a7c15ULL;  // splitmix64 chain seed
  std::uint64_t tail_ = 0;   // pending bytes of the current word
  std::uint64_t count_ = 0;  // bytes appended so far
};

}  // namespace beesim::core
