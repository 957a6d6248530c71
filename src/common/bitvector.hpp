#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace gpufi {

/// Dynamically sized vector of bits backed by 64-bit words.
///
/// This is the storage type for every faultable flip-flop bank in the RTL
/// model: fault injection is `flip(i)` on a BitVector. Narrow fields (an
/// 8-bit exponent, a 48-bit product, a 32-bit active mask) are packed as
/// contiguous bit runs and accessed through get_field/set_field so that a
/// single registry of (offset, width) describes a module's entire state.
class BitVector {
 public:
  BitVector() = default;
  /// Constructs `bits` zero bits.
  explicit BitVector(std::size_t bits);

  /// Number of bits.
  std::size_t size() const { return size_; }

  /// Resets every bit to zero without changing the size.
  void clear();

  // The accessors are inline: every flip-flop field read and write of the
  // RTL model goes through them.

  /// Value of bit `i` (0-based).
  bool get(std::size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  /// Sets bit `i` to `v`.
  void set(std::size_t i, bool v) {
    assert(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  /// Inverts bit `i` (the fault-injection primitive).
  void flip(std::size_t i) {
    assert(i < size_);
    words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }

  /// Reads `width` (<= 64) bits starting at `offset`, LSB-first.
  std::uint64_t get_field(std::size_t offset, std::size_t width) const {
    assert(width >= 1 && width <= 64);
    assert(offset + width <= size_);
    const std::size_t w = offset >> 6;
    const std::size_t b = offset & 63;
    std::uint64_t lo = words_[w] >> b;
    if (b + width > 64) lo |= words_[w + 1] << (64 - b);
    if (width == 64) return lo;
    return lo & ((std::uint64_t{1} << width) - 1);
  }
  /// Writes the low `width` (<= 64) bits of `value` starting at `offset`.
  void set_field(std::size_t offset, std::size_t width, std::uint64_t value) {
    assert(width >= 1 && width <= 64);
    assert(offset + width <= size_);
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    value &= mask;
    const std::size_t w = offset >> 6;
    const std::size_t b = offset & 63;
    words_[w] = (words_[w] & ~(mask << b)) | (value << b);
    if (b + width > 64) {
      const std::size_t hi_bits = b + width - 64;
      const std::uint64_t hi_mask = (std::uint64_t{1} << hi_bits) - 1;
      words_[w + 1] = (words_[w + 1] & ~hi_mask) | (value >> (64 - b));
    }
  }

  /// ORs the low `width` (<= 64) bits of `value` into the bits starting at
  /// `offset`.
  void or_field(std::size_t offset, std::size_t width, std::uint64_t value) {
    assert(width >= 1 && width <= 64);
    assert(offset + width <= size_);
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    const std::size_t w = offset >> 6;
    const std::size_t b = offset & 63;
    words_[w] |= value << b;
    if (b + width > 64) words_[w + 1] |= value >> (64 - b);
  }

  /// Number of set bits.
  std::size_t popcount() const;

  /// Calls `f(i)` for every set bit `i`, in ascending order.
  template <class F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (std::uint64_t x = words_[w]; x != 0; x &= x - 1)
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(x)));
  }

  /// Bitwise equality (sizes must match for equality to hold).
  bool operator==(const BitVector& other) const;

  /// "01011..." rendering, bit 0 first. Intended for debugging and reports.
  std::string to_string() const;

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace gpufi
