// The shard plan behind every backend run, and the multi-threaded driver
// behind EnumerateRequest::threads.
//
// Parallelism lives at the facade layer: every shard runs an existing
// sequential backend on a part of the input chosen so that the union of
// the shards' solution sets provably equals the unsplit run's set. The
// split is declared by the backend (api/registry.h), and one runner
// executes every shard kind:
//
//   range slices     the backend declares a range domain [0, n) on the
//                    graph (brute-force: 2^|L| left masks; imb: |L|+|R|
//                    set-enumeration root branches) and runs any slice of
//                    it through Run with QueryContext::range_begin/end.
//                    Slices only spread work over workers, so the domain
//                    splits at two or more threads and a one-element
//                    domain never does.
//   components       every other backend, at every thread count: each
//                    shard enumerates one connected component's induced
//                    subgraph. Only equivalent when the size thresholds
//                    provably exclude solutions spanning several
//                    components (see ComponentShardingIsSafe), only when
//                    the backend allows it for the request, and only
//                    useful when at least two components can host a
//                    solution. Per-component runs never form the
//                    almost-satisfying graphs that straddle components, so
//                    the split pays even on one thread. There is no split
//                    inside one component: it would have to turn off
//                    iTraversal's path-dependent exclusion strategy, and
//                    the extra links cost more than the workers gain.
//
// A request that does not split runs the backend once, exactly as a direct
// run. With one worker the shards run inline on the calling thread, so the
// sink sees every solution from that thread; with more they run on a pool.
// Every shard runs on the request's one configured backend; shard stats
// fold through EnumerateStats::MergeShard and the backend's MergeDetail.
//
// One delivery guard wraps the caller's sink, split or not: it applies the
// size thresholds and max_results, serializes sink access and counts
// delivered solutions. Reaching max_results (or a sink refusal) fires a
// driver-owned CancellationToken chained to the caller's token, stopping
// every shard at its next poll point.
#ifndef KBIPLEX_API_PARALLEL_DRIVER_H_
#define KBIPLEX_API_PARALLEL_DRIVER_H_

#include <cstddef>

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/prepared_graph.h"
#include "api/registry.h"
#include "api/solution_sink.h"
#include "graph/bipartite_graph.h"

namespace kbiplex {
namespace internal {

/// Resolves EnumerateRequest::threads: 0 maps to the hardware thread
/// count, everything else to itself. Callers reject negatives upfront.
size_t ResolveThreadCount(int threads);

/// True iff component sharding provably yields the sequential solution
/// set: the size thresholds must exclude every maximal k-biplex that
/// spans two or more connected components (such spanning solutions exist
/// whenever the budgets allow fully-disconnected members — two disjoint
/// edges form one maximal 1-biplex — so this is a real restriction, not
/// an optimization detail).
bool ComponentShardingIsSafe(KPair k, size_t theta_left, size_t theta_right);

/// Runs `request` against `prepared.graph()` through `backend`'s plan:
/// range slices or component shards when the backend declares a split
/// that applies (see the file comment); otherwise one `backend.Run` with
/// `scratch`, exactly like a direct run. Component shards consume the
/// prepared graph's cached component labeling and subgraphs instead of
/// recomputing them per run. Pre-conditions: the request passed facade
/// validation, `backend` was configured from its backend_options, and
/// request.threads >= 0.
EnumerateStats RunPlan(const PreparedGraph& prepared,
                       TraversalScratch* scratch,
                       const EnumerateRequest& request,
                       const AlgorithmBackend& backend, SolutionSink* sink);

}  // namespace internal
}  // namespace kbiplex

#endif  // KBIPLEX_API_PARALLEL_DRIVER_H_
