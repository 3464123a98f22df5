// A compact runtime-sized bitset: the exclusion sets of the iTraversal
// engine (set a vertex, test a vertex, count the members).
#ifndef KBIPLEX_UTIL_DYNAMIC_BITSET_H_
#define KBIPLEX_UTIL_DYNAMIC_BITSET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace kbiplex {

/// Runtime-sized bitset. Bits at or past size() are always clear.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(size_t size) : size_(size), words_(WordsFor(size)) {}

  /// Number of bits.
  size_t size() const { return size_; }

  /// Resizes to `size` bits; newly added bits are clear.
  void Resize(size_t size) {
    size_ = size;
    words_.resize(WordsFor(size), 0);
    if (size_ % 64 != 0) words_.back() &= (1ULL << (size_ % 64)) - 1;
  }

  /// Clears every bit.
  void Reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// Sets bit `i`.
  void Set(size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }

  /// Tests bit `i`.
  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1ULL; }

  /// Number of set bits.
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }

 private:
  static size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_UTIL_DYNAMIC_BITSET_H_
