// iMB-style baseline: backtracking set-enumeration of maximal k-biplexes
// directly on the bipartite graph (Sim et al. / Yu et al.), with the size
// -constraint pruning that iMB relies on for large-MBP workloads.
//
// The enumerator explores the set-enumeration tree over all vertices (left
// and right) with candidate and exclusion sets; every maximal k-biplex is
// reported exactly once, but — exactly like the published iMB — the delay
// between consecutive outputs is exponential in the worst case, and
// without effective size constraints it does not scale (Figure 7).
#ifndef KBIPLEX_BASELINES_IMB_H_
#define KBIPLEX_BASELINES_IMB_H_

#include <cstdint>
#include <functional>

#include "core/biplex.h"
#include "graph/bipartite_graph.h"
#include "util/cancellation.h"

namespace kbiplex {

/// Options of one iMB run.
struct ImbOptions {
  int k = 1;
  /// Report only MBPs with |L'| >= theta_left and |R'| >= theta_right and
  /// prune branches that cannot reach these sizes (iMB's key pruning).
  size_t theta_left = 0;
  size_t theta_right = 0;
  uint64_t max_results = 0;
  double time_budget_seconds = 0;
  /// Optional cooperative cancellation (polled with the deadline); not
  /// owned, may be null.
  const CancellationToken* cancel = nullptr;
  /// Root-branch shard [root_begin, root_end) of the set-enumeration tree:
  /// the run explores only the top-level branches whose first included
  /// vertex has that rank in the root candidate order (left ids, then
  /// right ids shifted by |L|). Root branches are independent, so a
  /// partition of [0, |L|+|R|) across runs yields exactly the full
  /// solution set with no duplicates. root_end = 0 means "all branches".
  /// The "imb" backend declares [0, |L|+|R|) as its range domain for the
  /// parallel split (api/registry.h).
  size_t root_begin = 0;
  size_t root_end = 0;
};

/// Work counters.
struct ImbStats {
  uint64_t nodes = 0;
  uint64_t solutions = 0;
  bool completed = true;
  double seconds = 0;
};

/// Receives each maximal k-biplex; return false to stop.
using ImbCallback = std::function<bool(const Biplex&)>;

/// iMB-style enumerator. Mirrors TraversalEngine: construct once against
/// a graph, then Run per query (each call is a fresh enumeration).
/// External callers with k >= 1 should go through the Enumerator facade
/// (api/enumerator.h, algorithm "imb"); the k = 0 biclique reuse in
/// analysis/biclique.cc constructs the engine directly, because the
/// public biplex API requires budgets >= 1.
class ImbEngine {
 public:
  /// `g` must outlive the engine; `opts` is copied (the cancel pointer it
  /// carries must stay valid for every Run).
  ImbEngine(const BipartiteGraph& g, const ImbOptions& opts)
      : g_(g), opts_(opts) {}

  ImbEngine(const ImbEngine&) = delete;
  ImbEngine& operator=(const ImbEngine&) = delete;

  /// Runs the set-enumeration over the configured root-branch shard,
  /// delivering every maximal k-biplex exactly once.
  ImbStats Run(const ImbCallback& cb);

 private:
  const BipartiteGraph& g_;
  ImbOptions opts_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_BASELINES_IMB_H_
