// Deduplicating store of discovered solutions. Algorithms 1 & 2 insert
// every solution they reach and only recurse on first discovery; the store
// is the B-tree of the paper (index/btree).
#ifndef KBIPLEX_CORE_SOLUTION_STORE_H_
#define KBIPLEX_CORE_SOLUTION_STORE_H_

#include <functional>
#include <vector>

#include "core/biplex.h"
#include "index/btree.h"

namespace kbiplex {

/// Insert-only set of solutions keyed by their canonical encoding.
class SolutionStore {
 public:
  explicit SolutionStore(size_t btree_order = 64) : tree_(btree_order) {}

  /// Inserts the solution; returns true iff it was not present.
  bool Insert(const Biplex& b) { return tree_.Insert(EncodeBiplexKey(b)); }

  /// True iff the solution is present.
  bool Contains(const Biplex& b) const {
    return tree_.Contains(EncodeBiplexKey(b));
  }

  size_t Size() const { return tree_.Size(); }

  /// Visits solutions in canonical key order.
  void ForEach(const std::function<void(const Biplex&)>& fn) const;

  /// Materializes all solutions.
  std::vector<Biplex> ToVector() const;

 private:
  BTreeSet tree_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_SOLUTION_STORE_H_
