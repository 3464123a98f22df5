// Large-MBP enumeration (Section 5): enumerate only the maximal k-biplexes
// whose sides meet size thresholds, without enumerating all MBPs first.
// Combines the (θ−k)-core pre-reduction used in Section 6.1 with the
// engine's Section 5 pruning rules.
#ifndef KBIPLEX_CORE_LARGE_MBP_H_
#define KBIPLEX_CORE_LARGE_MBP_H_

#include <vector>

#include "core/itraversal.h"
#include "core/traversal_options.h"
#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Options of a large-MBP run.
struct LargeMbpOptions {
  KPair k = KPair::Uniform(1);
  size_t theta_left = 1;   // minimum |L'| of reported MBPs
  size_t theta_right = 1;  // minimum |R'|
  /// Pre-reduce the graph to its (θ−k)-core before enumerating; every
  /// large MBP survives the reduction because each of its vertices has at
  /// least θ−k neighbors inside it.
  bool core_reduction = true;
  uint64_t max_results = 0;
  /// Stops after this many links of the traversal (0 = no cap): a work
  /// budget that, unlike the time budget, cuts every run at the same
  /// solution.
  uint64_t max_links = 0;
  double time_budget_seconds = 0;
  /// Optional cooperative cancellation, forwarded to the traversal engine;
  /// not owned, may be null.
  const CancellationToken* cancel = nullptr;
  /// Optional cross-run scratch forwarded to the traversal engine; not
  /// owned (see core/traversal_scratch.h).
  TraversalScratch* scratch = nullptr;
};

/// Result counters of a large-MBP run.
struct LargeMbpStats {
  TraversalStats traversal;
  size_t core_left = 0;   // vertices surviving the core reduction
  size_t core_right = 0;
  bool completed = true;
  double seconds = 0;
};

/// Large-MBP enumerator: (θ−k)-core pre-reduction plus size-constrained
/// traversal. Mirrors TraversalEngine: construct once against a graph,
/// then Run per query. External callers should go through the Enumerator
/// facade (api/enumerator.h, algorithm "large-mbp") or PreparedGraph +
/// QuerySession (api/query_session.h); the engine itself is the backend
/// building block those layers compose.
class LargeMbpEngine {
 public:
  /// `g` must outlive the engine; `opts` is copied (the cancel/scratch
  /// pointers it carries must stay valid for every Run).
  LargeMbpEngine(const BipartiteGraph& g, const LargeMbpOptions& opts)
      : g_(g), opts_(opts) {}

  LargeMbpEngine(const LargeMbpEngine&) = delete;
  LargeMbpEngine& operator=(const LargeMbpEngine&) = delete;

  /// Enumerates every maximal k-biplex of the graph with |L'| >=
  /// theta_left and |R'| >= theta_right, delivering them to `cb` with ids
  /// of the original graph. Reentrant: each call is a fresh enumeration.
  LargeMbpStats Run(const SolutionCallback& cb);

 private:
  const BipartiteGraph& g_;
  LargeMbpOptions opts_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_LARGE_MBP_H_
