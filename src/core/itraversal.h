// The reverse-search traversal engine (Algorithms 1 and 2).
//
// The engine performs a DFS over the implicit solution graph: from every
// solution H it forms almost-satisfying graphs G[H ∪ v] (Step 1),
// enumerates their local solutions (Step 2, EnumAlmostSat), extends each
// local solution to a real solution (Step 3), and recurses on solutions
// seen for the first time. TraversalOptions selects between bTraversal and
// the iTraversal techniques; see traversal_options.h.
//
// The DFS runs on an explicit stack (solution graphs can be deep), and the
// polynomial-delay guarantee uses Uno's alternating output trick.
#ifndef KBIPLEX_CORE_ITRAVERSAL_H_
#define KBIPLEX_CORE_ITRAVERSAL_H_

#include <functional>
#include <memory>

#include "core/biplex.h"
#include "core/traversal_options.h"
#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Receives each enumerated maximal k-biplex; return false to stop.
using SolutionCallback = std::function<bool(const Biplex&)>;

/// Reverse-search enumerator over the solution graph of `g`.
class TraversalEngine {
 public:
  /// `g` must outlive the engine.
  TraversalEngine(const BipartiteGraph& g, const TraversalOptions& options);
  ~TraversalEngine();

  TraversalEngine(const TraversalEngine&) = delete;
  TraversalEngine& operator=(const TraversalEngine&) = delete;

  /// Runs the enumeration, delivering every (large, if thetas are set)
  /// maximal k-biplex to `cb` exactly once. Reentrant: each call starts a
  /// fresh enumeration.
  TraversalStats Run(const SolutionCallback& cb);

  /// The deterministic initial solution the configured traversal starts
  /// from (H0 = (L0, R) for the default left-anchored configuration).
  Biplex InitialSolution() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_ITRAVERSAL_H_
