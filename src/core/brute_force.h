// Exhaustive reference enumerator: ground truth for every property test.
#ifndef KBIPLEX_CORE_BRUTE_FORCE_H_
#define KBIPLEX_CORE_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include "core/biplex.h"
#include "graph/bipartite_graph.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace kbiplex {

/// Enumerates every maximal k-biplex of `g` by checking all 2^(|L|+|R|)
/// vertex-set pairs. Requires |L| <= 20 and |R| <= 20 and is intended for
/// graphs with at most ~16 vertices total. Results are sorted. Also
/// reachable through the Enumerator facade (api/enumerator.h) as
/// algorithm "brute-force"; tests that need the ground truth directly may
/// keep calling this.
std::vector<Biplex> BruteForceMaximalBiplexes(const BipartiteGraph& g,
                                              KPair k);
inline std::vector<Biplex> BruteForceMaximalBiplexes(const BipartiteGraph& g,
                                                     int k) {
  return BruteForceMaximalBiplexes(g, KPair::Uniform(k));
}

/// Interruptible slice of the exhaustive scan: checks only candidate
/// pairs whose left-side mask lies in [lmask_begin, lmask_end)
/// (lmask_end is clamped to 2^|L|). Maximality is still judged against
/// the whole graph, so the union of the slices over a partition of
/// [0, 2^|L|) is exactly the full solution set, with no duplicates across
/// slices; the "brute-force" backend declares that range domain as its
/// parallel split (api/registry.h). Polls `deadline` and `cancel` (either
/// may be null) every 2^16 candidate masks. When one fires the scan
/// stops, `*completed` (if non-null) is set to false, and the solutions
/// found so far are returned — a partial set, since candidates are
/// visited in mask order, not canonical order.
std::vector<Biplex> BruteForceMaximalBiplexesMaskRange(
    const BipartiteGraph& g, KPair k, const Deadline* deadline,
    const CancellationToken* cancel, bool* completed, uint64_t lmask_begin,
    uint64_t lmask_end);

/// Filters `solutions` to those with |L| >= theta_left and
/// |R| >= theta_right (the "large MBPs" of Section 5).
std::vector<Biplex> FilterBySize(const std::vector<Biplex>& solutions,
                                 size_t theta_left, size_t theta_right);

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_BRUTE_FORCE_H_
