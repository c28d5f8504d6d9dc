/// \file hash.hpp
/// Stable non-cryptographic hashing (FNV-1a, 64-bit).
///
/// std::hash gives no cross-platform / cross-run guarantees, which makes it
/// unusable for anything that feeds a determinism contract — cache keys,
/// artifact digests. StableHash is the library's answer: a fixed
/// byte-order FNV-1a fold whose value depends only on the mixed-in data,
/// never on the platform, the process, or the standard library.
/// JobSpec::cache_key() (src/floor/job.cpp) is built on it.

#pragma once

#include <cstdint>
#include <string_view>

namespace casbus {

/// Incremental 64-bit FNV-1a hasher with a fixed (little-endian) byte
/// order for integer mixes. Plain value type; freely copyable.
class StableHash {
 public:
  /// Mixes one 64-bit value, least-significant byte first.
  constexpr StableHash& mix(std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFFu;
      h_ *= kPrime;
    }
    return *this;
  }

  /// Mixes a byte string (length is mixed first so "ab","c" != "a","bc").
  constexpr StableHash& mix(std::string_view s) noexcept {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= kPrime;
    }
    return *this;
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  static constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x00000100000001B3ULL;

  std::uint64_t h_ = kOffset;
};

}  // namespace casbus
