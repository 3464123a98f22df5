// Configuration shared by the reverse-search traversal algorithms.
// One engine covers the paper's whole ablation space (Figure 11):
//   bTraversal          = no technique enabled
//   iTraversal-ES-RS    = left-anchored only
//   iTraversal-ES       = left-anchored + right-shrinking
//   iTraversal          = left-anchored + right-shrinking + exclusion
#ifndef KBIPLEX_CORE_TRAVERSAL_OPTIONS_H_
#define KBIPLEX_CORE_TRAVERSAL_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "core/enum_almost_sat.h"
#include "core/traversal_scratch.h"
#include "util/cancellation.h"
#include "util/common.h"

namespace kbiplex {

/// Which implementation serves the EnumAlmostSat procedure.
enum class LocalEnumImpl : uint8_t {
  kDirect,     // Algorithm 3 (Section 4), variant chosen by `local`
  kInflation,  // graph inflation + maximal (k+1)-plex enumeration
};

/// Options of one traversal run.
struct TraversalOptions {
  /// Disconnection budgets; both sides must be >= 1. Uniform budgets give
  /// the paper's k-biplex; asymmetric budgets implement the Section 2
  /// remark about different k's per side.
  KPair k = KPair::Uniform(1);

  /// Technique 1 (Section 3.3): only form almost-satisfying graphs by
  /// adding vertices of `anchored_side`; the initial solution contains the
  /// full opposite side. When false the engine behaves like bTraversal
  /// (candidates from both sides, arbitrary maximal initial solution).
  bool left_anchored = true;

  /// Technique 2 (Section 3.4): keep only links whose target solution does
  /// not grow the non-anchored side; local solutions to which some
  /// non-anchored vertex is still addable are discarded (Algorithm 2,
  /// line 7). Only meaningful when left_anchored is true.
  bool right_shrinking = true;

  /// Technique 3 (Section 3.5): maintain exclusion sets along the DFS and
  /// prune links towards solutions containing excluded vertices.
  bool exclusion = true;

  /// Side whose vertices are added to form almost-satisfying graphs under
  /// left-anchored traversal. kLeft gives the paper's default
  /// H0 = (L0, R); kRight the symmetric H0 = (L, R0) variant compared in
  /// Section 6.2.
  Side anchored_side = Side::kLeft;

  /// EnumAlmostSat refinement variants (Section 4) for kDirect.
  EnumAlmostSatOptions local;

  /// EnumAlmostSat implementation.
  LocalEnumImpl local_impl = LocalEnumImpl::kDirect;

  /// Stop after this many emitted solutions (0 = enumerate all). This is
  /// the "number of returned MBPs" knob of Figures 7(d,e).
  uint64_t max_results = 0;

  /// Wall-clock budget in seconds (0 = unlimited); the paper's INF knob.
  double time_budget_seconds = 0;

  /// Abort once this many solution-graph links were generated
  /// (0 = unlimited); the paper's UPP knob of Figure 11.
  uint64_t max_links = 0;

  /// Size thresholds for large-MBP enumeration (Section 5); solutions are
  /// emitted only when |L| >= theta_left and |R| >= theta_right. 0 = none.
  size_t theta_left = 0;
  size_t theta_right = 0;

  /// Enables the Section 5 pruning rules (almost-satisfying-graph pruning,
  /// local-solution pruning, solution pruning, left-side pruning). Only
  /// sound when the theta constraints are set and right_shrinking is on.
  bool prune_small = false;

  /// Optional cooperative cancellation, polled at the same cadence as the
  /// wall-clock deadline; a cancelled run stops with completed = false.
  /// Not owned; may be null.
  const CancellationToken* cancel = nullptr;

  /// Optional cross-run scratch (recursion-frame arena + EnumAlmostSat
  /// workspace) reused by consecutive engines of one session; when null
  /// the engine owns per-run scratch. Not owned; never shared between
  /// concurrently running engines (see core/traversal_scratch.h).
  TraversalScratch* scratch = nullptr;

  /// Uno's alternating-output trick: emit a solution before the recursive
  /// expansion at even DFS depth and after it at odd depth, which bounds
  /// the delay by one iThreeStep invocation (polynomial). When false,
  /// solutions are emitted on discovery.
  bool polynomial_delay_output = true;
};

/// Counters reported by a traversal run.
struct TraversalStats {
  uint64_t solutions_found = 0;    // unique solutions stored
  uint64_t solutions_emitted = 0;  // solutions delivered to the callback
  uint64_t links = 0;              // links of the (sparsified) solution graph
  uint64_t links_pruned_right_shrinking = 0;
  uint64_t links_pruned_exclusion = 0;
  uint64_t almost_sat_graphs = 0;  // Step-1 graphs formed
  uint64_t local_solutions = 0;    // Step-2 local solutions enumerated
  uint64_t dedup_hits = 0;         // links to already-known solutions
  uint64_t candidates_generated = 0;  // Step-1 candidates considered
  uint64_t candidates_pruned = 0;     // skipped before EnumAlmostSat
  EnumAlmostSatStats local_stats;  // Algorithm 3 work counters
  bool completed = true;  // false iff stopped by a budget or callback
  double seconds = 0;
  size_t max_stack_depth = 0;
};

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_TRAVERSAL_OPTIONS_H_
