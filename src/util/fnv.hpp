#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <type_traits>

namespace jungle::util {

/// FNV-1a, 64-bit: the one hash family behind every digest the project pins
/// (checkpoint and final-state digests, the explorer's resume hash, the
/// tests' trajectory and kernel fingerprints). Values mix as their bytes in
/// memory order, so a double mixes as its bit pattern.
struct Fnv1a {
  static constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  std::uint64_t hash = kOffset;

  void mix_bytes(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash ^= p[i];
      hash *= kPrime;
    }
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void mix(const T& value) noexcept {
    mix_bytes(&value, sizeof(T));
  }

  /// Every element in order; the same hash as mixing them one by one.
  template <std::ranges::contiguous_range Range>
    requires std::is_trivially_copyable_v<std::ranges::range_value_t<Range>>
  void mix_all(const Range& values) noexcept {
    mix_bytes(std::ranges::data(values),
              std::ranges::size(values) *
                  sizeof(std::ranges::range_value_t<Range>));
  }
};

}  // namespace jungle::util
