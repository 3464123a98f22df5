// Inflation-based enumeration baselines.
//
// (1) EnumAlmostSatByInflation: the "Inflation" implementation of the
//     EnumAlmostSat procedure compared in Figure 12 — materialize the
//     almost-satisfying subgraph, inflate it, and enumerate the maximal
//     (k+1)-plexes containing v.
// (2) InflationEngine: the FaPlexen-style global baseline — inflate the
//     whole bipartite graph and enumerate all maximal (k+1)-plexes,
//     which correspond one-to-one to maximal k-biplexes.
#ifndef KBIPLEX_BASELINES_INFLATION_ENUM_H_
#define KBIPLEX_BASELINES_INFLATION_ENUM_H_

#include <cstdint>
#include <functional>

#include "core/biplex.h"
#include "core/enum_almost_sat.h"
#include "graph/bipartite_graph.h"
#include "util/cancellation.h"

namespace kbiplex {

/// Drop-in replacement for EnumAlmostSat (same contract) implemented by
/// graph inflation + local maximal (k+1)-plex enumeration.
/// Requires uniform budgets (k.left == k.right): the k-biplex/(k+1)-plex
/// correspondence only holds for a single k.
bool EnumAlmostSatByInflation(const BipartiteGraph& g, const Biplex& h,
                              Side v_side, VertexId v, KPair k,
                              LocalSolutionCallback cb);
inline bool EnumAlmostSatByInflation(const BipartiteGraph& g,
                                     const Biplex& h, Side v_side,
                                     VertexId v, int k,
                                     LocalSolutionCallback cb) {
  return EnumAlmostSatByInflation(g, h, v_side, v, KPair::Uniform(k), cb);
}

/// Options of the global inflation baseline.
struct InflationBaselineOptions {
  int k = 1;
  double time_budget_seconds = 0;
  /// Refuse to inflate beyond this many edges, mimicking the paper's OUT
  /// (out-of-memory) outcome for FaPlexen on large graphs. 0 = no guard.
  size_t max_inflated_edges = 0;
  /// Optional cooperative cancellation (polled with the deadline); not
  /// owned, may be null.
  const CancellationToken* cancel = nullptr;
};

/// Outcome of the global inflation baseline.
struct InflationBaselineStats {
  uint64_t solutions = 0;
  bool completed = true;
  /// True iff the run was refused because inflation exceeded
  /// max_inflated_edges (the paper's OUT condition).
  bool out_of_budget = false;
  size_t inflated_edges = 0;
  double seconds = 0;
};

/// Global inflation enumerator. Mirrors TraversalEngine: construct once
/// against a graph, then Run per query (each call is a fresh
/// enumeration). External callers should go through the Enumerator
/// facade (api/enumerator.h, algorithm "inflation").
class InflationEngine {
 public:
  /// `g` must outlive the engine; `opts` is copied (the cancel pointer it
  /// carries must stay valid for every Run).
  InflationEngine(const BipartiteGraph& g,
                  const InflationBaselineOptions& opts)
      : g_(g), opts_(opts) {}

  InflationEngine(const InflationEngine&) = delete;
  InflationEngine& operator=(const InflationEngine&) = delete;

  /// Enumerates maximal k-biplexes of the graph by inflating it and
  /// enumerating maximal (k+1)-plexes; solutions arrive as Biplex values.
  InflationBaselineStats Run(const std::function<bool(const Biplex&)>& cb);

 private:
  const BipartiteGraph& g_;
  InflationBaselineOptions opts_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_BASELINES_INFLATION_ENUM_H_
