#include "baselines/inflation_enum.h"

#include <algorithm>
#include <cassert>

#include "baselines/kplex_enum.h"
#include "graph/inflation.h"
#include "util/timer.h"

namespace kbiplex {
namespace {

/// Splits a set of inflated-graph vertices back into a Biplex using the
/// inflation convention, mapping through optional compact-id maps.
Biplex SplitInflatedSet(const InflatedGraph& inflated,
                        const std::vector<VertexId>& set,
                        const std::vector<VertexId>* left_map,
                        const std::vector<VertexId>* right_map) {
  Biplex b;
  for (VertexId x : set) {
    if (inflated.SideOf(x) == Side::kLeft) {
      VertexId id = inflated.BipartiteId(x);
      b.left.push_back(left_map != nullptr ? (*left_map)[id] : id);
    } else {
      VertexId id = inflated.BipartiteId(x);
      b.right.push_back(right_map != nullptr ? (*right_map)[id] : id);
    }
  }
  std::sort(b.left.begin(), b.left.end());
  std::sort(b.right.begin(), b.right.end());
  return b;
}

}  // namespace

bool EnumAlmostSatByInflation(const BipartiteGraph& g, const Biplex& h,
                              Side v_side, VertexId v, KPair k,
                              LocalSolutionCallback cb) {
  assert(k.IsUniform());
  // Materialize the almost-satisfying subgraph (A ∪ {v}, B) with compact
  // ids, then inflate it.
  Biplex almost = h;
  sorted::Insert(&almost.MutableSideSet(v_side), v);
  InducedSubgraph sub = Induce(g, almost.left, almost.right);
  InflatedGraph inflated = Inflate(sub.graph);

  // Locate v's compact id within its side.
  const std::vector<VertexId>& v_map =
      v_side == Side::kLeft ? sub.left_map : sub.right_map;
  const auto it = std::lower_bound(v_map.begin(), v_map.end(), v);
  const VertexId v_compact = static_cast<VertexId>(it - v_map.begin());

  KPlexEnumOptions opts;
  opts.p = k.left + 1;
  opts.must_contain = inflated.GeneralId(v_side, v_compact);

  bool keep_going = true;
  EnumerateMaximalKPlexes(
      inflated.graph, opts, [&](const std::vector<VertexId>& set) {
        Biplex loc =
            SplitInflatedSet(inflated, set, &sub.left_map, &sub.right_map);
        keep_going = cb(loc);
        return keep_going;
      });
  return keep_going;
}

InflationBaselineStats InflationEngine::Run(
    const std::function<bool(const Biplex&)>& cb) {
  InflationBaselineStats stats;
  WallTimer timer;
  stats.inflated_edges = InflatedEdgeCount(g_);
  if (opts_.max_inflated_edges != 0 &&
      stats.inflated_edges > opts_.max_inflated_edges) {
    stats.completed = false;
    stats.out_of_budget = true;
    stats.seconds = timer.ElapsedSeconds();
    return stats;
  }
  InflatedGraph inflated = Inflate(g_);
  KPlexEnumOptions kopts;
  kopts.p = opts_.k + 1;
  kopts.time_budget_seconds = opts_.time_budget_seconds;
  kopts.cancel = opts_.cancel;
  KPlexEnumStats ks = EnumerateMaximalKPlexes(
      inflated.graph, kopts, [&](const std::vector<VertexId>& set) {
        Biplex b = SplitInflatedSet(inflated, set, nullptr, nullptr);
        return cb(b);
      });
  stats.solutions = ks.solutions;
  stats.completed = ks.completed;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace kbiplex
