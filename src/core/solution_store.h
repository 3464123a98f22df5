// Deduplicating store of discovered solutions. Algorithms 1 & 2 insert
// every solution they reach and only recurse on first discovery; the store
// is the B-tree of the paper (index/btree), with an optional redundant
// hash-set backend that cross-validates the tree in tests.
#ifndef KBIPLEX_CORE_SOLUTION_STORE_H_
#define KBIPLEX_CORE_SOLUTION_STORE_H_

#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/biplex.h"
#include "index/btree.h"

namespace kbiplex {

/// Which structure(s) back the store.
enum class StoreBackend {
  kBTree,    // the paper's choice
  kHashSet,  // flat hash set of encoded keys
  kBoth,     // both, cross-checked; disagreement throws std::logic_error
};

/// Insert-only set of solutions keyed by their canonical encoding.
class SolutionStore {
 public:
  explicit SolutionStore(StoreBackend backend = StoreBackend::kBTree,
                         size_t btree_order = 64);

  /// Inserts the solution; returns true iff it was not present. Under
  /// kBoth, Insert, Contains and Size throw std::logic_error when the two
  /// structures disagree.
  bool Insert(const Biplex& b);

  /// True iff the solution is present.
  bool Contains(const Biplex& b) const;

  size_t Size() const;

  /// Visits solutions in canonical key order (B-tree backend) or
  /// unspecified order (hash backend).
  void ForEach(const std::function<void(const Biplex&)>& fn) const;

  /// Materializes all solutions.
  std::vector<Biplex> ToVector() const;

 private:
  StoreBackend backend_;
  BTreeSet tree_;
  std::unordered_set<std::string> hash_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_SOLUTION_STORE_H_
