// Bounded-cardinality subset enumeration used by EnumAlmostSat (Section 4 of
// the paper): subsets are visited in ascending cardinality, and once a
// subset is accepted every superset of it can be pruned (refinement L2.0).
// Both enumerators run on caller-owned storage, so the Step-2 subset loops
// allocate nothing once their buffers reached capacity.
#ifndef KBIPLEX_UTIL_SUBSET_ENUM_H_
#define KBIPLEX_UTIL_SUBSET_ENUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kbiplex {

/// Invokes `fn` with every size-`s` combination of indices {0, .., n-1},
/// passed as a sorted index vector, in lexicographic order. `*comb` is the
/// combination buffer (its contents are overwritten). `fn` returns false
/// to stop early. Returns false iff stopped early.
template <typename Fn>
bool ForEachCombination(size_t n, size_t s, std::vector<size_t>* comb,
                        Fn&& fn) {
  if (s > n) return true;
  std::vector<size_t>& c = *comb;
  c.resize(s);
  for (size_t i = 0; i < s; ++i) c[i] = i;
  while (true) {
    if (!fn(static_cast<const std::vector<size_t>&>(c))) return false;
    if (s == 0) return true;
    // Advance to the next lexicographic combination.
    size_t i = s;
    while (i > 0 && c[i - 1] == n - s + (i - 1)) --i;
    if (i == 0) return true;
    ++c[i - 1];
    for (size_t j = i; j < s; ++j) c[j] = c[j - 1] + 1;
  }
}

/// Enumerates subsets of {0, .., n-1} with cardinality 0..max_size in
/// ascending cardinality, supporting superset pruning: call
/// PruneSupersetsOfCurrent() after Next() returned a subset S to skip every
/// later subset that contains S. Reset() starts a new enumeration and keeps
/// the buffers' capacity, so one instance serves many enumerations.
///
/// Usage:
///   BoundedSubsetEnumerator e(n, k);
///   while (e.Next()) {
///     const std::vector<size_t>& s = e.current();
///     if (Accept(s)) e.PruneSupersetsOfCurrent();
///   }
class BoundedSubsetEnumerator {
 public:
  /// An exhausted enumerator; call Reset() to start one.
  BoundedSubsetEnumerator() = default;

  /// Enumerates subsets of a ground set of `n` elements with size at most
  /// `max_size`.
  BoundedSubsetEnumerator(size_t n, size_t max_size) { Reset(n, max_size); }

  /// Restarts the enumeration on a ground set of `n` elements with size at
  /// most `max_size`, forgetting every pruned base.
  void Reset(size_t n, size_t max_size);

  /// Advances to the next non-pruned subset; returns false when exhausted.
  /// The empty subset is visited first.
  bool Next();

  /// The subset produced by the last successful Next(), as sorted indices.
  const std::vector<size_t>& current() const { return current_; }

  /// Marks the current subset as a "base": all of its supersets are skipped
  /// by subsequent Next() calls.
  void PruneSupersetsOfCurrent();

 private:
  bool AdvanceCombination();
  bool IsPruned() const;

  size_t n_ = 0;
  size_t max_size_ = 0;
  size_t size_ = 0;  // cardinality currently being enumerated
  bool started_ = true;
  std::vector<size_t> current_;
  // Pruned bases, flat: base i is base_items_[base_ends_[i-1], base_ends_[i]).
  std::vector<size_t> base_items_;
  std::vector<size_t> base_ends_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_UTIL_SUBSET_ENUM_H_
