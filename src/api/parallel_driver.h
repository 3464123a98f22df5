// The multi-threaded enumeration driver behind EnumerateRequest::threads.
//
// Parallelism lives at the facade layer: every worker runs an existing
// sequential backend on a shard chosen so that the union of the shards'
// solution sets provably equals the sequential run's set. The split is
// declared by the backend (api/registry.h), and one runner executes every
// shard kind:
//
//   range slices     the backend declares a range domain [0, n) on the
//                    graph (brute-force: 2^|L| left masks; imb: |L|+|R|
//                    set-enumeration root branches) and runs any slice of
//                    it through Run with QueryContext::range_begin/end.
//                    A one-element domain runs sequentially.
//   components       every other backend: each worker enumerates one
//                    connected component's induced subgraph. Only
//                    equivalent when the size thresholds provably exclude
//                    solutions spanning several components (see
//                    ComponentShardingIsSafe), only when the backend allows
//                    it for the request, and only useful when at least two
//                    components can host a solution; otherwise the facade
//                    runs the sequential engine. There is no split inside
//                    one component: it would have to turn off iTraversal's
//                    path-dependent exclusion strategy, and the extra links
//                    cost more than the workers gain.
//
// Shard stats fold through EnumerateStats::MergeShard; a shard the time
// budget expired before contributes the backend's NotStartedStats.
//
// Global budgets stay global: workers share one Delivery guarding the
// caller's sink with a mutex and counting delivered solutions atomically;
// reaching max_results (or a sink refusal) fires a driver-owned
// CancellationToken chained to the caller's token, stopping every worker
// at its next poll point.
#ifndef KBIPLEX_API_PARALLEL_DRIVER_H_
#define KBIPLEX_API_PARALLEL_DRIVER_H_

#include <cstddef>
#include <optional>

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

/// Runs `request` with the multi-threaded driver against
/// `prepared.graph()`, or returns nullopt when no equivalent
/// parallel split exists (single worker resolved, unsafe component
/// sharding, degenerate graph) — the caller then runs `backend`
/// sequentially. `backend` only answers the split hooks; every shard runs
/// on a fresh backend from `registry`. Component shards consume the
/// prepared graph's cached component labeling instead of recomputing it
/// per run. Pre-conditions: the request passed facade validation for its
/// algorithm and request.threads >= 0.
std::optional<EnumerateStats> TryRunParallel(const PreparedGraph& prepared,
                                             const EnumerateRequest& request,
                                             const AlgorithmRegistry& registry,
                                             const AlgorithmBackend& backend,
                                             SolutionSink* sink);

}  // namespace internal
}  // namespace kbiplex

#endif  // KBIPLEX_API_PARALLEL_DRIVER_H_
