// The multi-threaded enumeration driver behind EnumerateRequest::threads.
//
// Parallelism lives at the facade layer: every worker runs an existing
// sequential engine on a shard chosen so that the union of the shards'
// solution sets provably equals the sequential run's set. Three plans:
//
//   brute-force     left-mask ranges: each worker scans a slice of the
//                   2^|L| candidate masks; maximality is judged against
//                   the whole graph, so slices are disjoint and complete.
//                   Always available.
//   imb             root-branch ranges of the set-enumeration tree: the
//                   top-level branches are independent, so a partition of
//                   them across workers is disjoint and complete. Always
//                   available.
//   everything else connected-component sharding: each worker enumerates
//   (traversal      one component's induced subgraph. Only equivalent
//   family,         when the size thresholds provably exclude solutions
//   large-mbp,      spanning several components (see
//   inflation)      ComponentShardingIsSafe), and only useful when at
//                   least two components can host a solution; otherwise
//                   the facade runs the sequential engine. There is no
//                   split inside one component: it would have to turn off
//                   iTraversal's path-dependent exclusion strategy, and
//                   the extra links cost more than the workers gain.
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
/// `prepared.ExecutionGraph()`, or returns nullopt when no equivalent
/// parallel plan exists (single worker resolved, unsafe component
/// sharding, degenerate graph) — the caller then runs the normal
/// sequential path. The component plan consumes the prepared graph's
/// cached component labeling instead of recomputing it per run. Solutions
/// are delivered in execution-graph ids; renumbering map-back is the
/// caller's concern. Pre-conditions: the request passed facade validation
/// for `info` and request.threads >= 0.
std::optional<EnumerateStats> TryRunParallel(const PreparedGraph& prepared,
                                             const EnumerateRequest& request,
                                             const AlgorithmRegistry& registry,
                                             const AlgorithmInfo& info,
                                             SolutionSink* sink);

}  // namespace internal
}  // namespace kbiplex

#endif  // KBIPLEX_API_PARALLEL_DRIVER_H_
