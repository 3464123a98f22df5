// The "execute" half of the prepare/execute API: a QuerySession runs many
// EnumerateRequests against one PreparedGraph, reusing the prepared
// artifacts (component labeling, core bounds) and carrying engine scratch
// — the recursion-frame arena and the EnumAlmostSat workspace — across
// queries so steady-state query execution allocates almost nothing.
//
// A session is NOT thread-safe: it owns mutable scratch, so use one
// session per serving thread. Any number of sessions may share one
// PreparedGraph concurrently — the prepared artifacts are immutable once
// built, and builds are internally synchronized.
//
//   auto prepared = PreparedGraph::Prepare(LoadGraph(...));
//   QuerySession session(prepared);
//   for (const EnumerateRequest& req : queries) {
//     EnumerateStats stats = session.Run(req, &sink);
//   }
#ifndef KBIPLEX_API_QUERY_SESSION_H_
#define KBIPLEX_API_QUERY_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/prepared_graph.h"
#include "api/registry.h"
#include "api/solution_sink.h"
#include "core/traversal_scratch.h"

namespace kbiplex {

/// Executes many requests against one PreparedGraph. Create on one thread,
/// use from that thread; share the PreparedGraph, not the session.
class QuerySession {
 public:
  /// Uses the process-wide registry.
  explicit QuerySession(std::shared_ptr<const PreparedGraph> prepared)
      : QuerySession(std::move(prepared), AlgorithmRegistry::Global()) {}

  /// Uses a custom registry (tests, embedders). The registry must outlive
  /// the session.
  QuerySession(std::shared_ptr<const PreparedGraph> prepared,
               const AlgorithmRegistry& registry);

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// Runs one request, delivering solutions to `sink`. Rejected requests
  /// return stats with a non-empty `error` and no solutions delivered.
  EnumerateStats Run(const EnumerateRequest& request, SolutionSink* sink);

  /// Convenience: runs with a callback sink.
  EnumerateStats Run(const EnumerateRequest& request,
                     const std::function<bool(const Biplex&)>& cb);

  /// Convenience: collects and returns the solutions, sorted.
  std::vector<Biplex> Collect(const EnumerateRequest& request,
                              EnumerateStats* stats = nullptr);

  /// Convenience: counts solutions without materializing them.
  uint64_t Count(const EnumerateRequest& request,
                 EnumerateStats* stats = nullptr);

  const PreparedGraph& prepared() const { return *prepared_; }

  /// Queries executed through this session (including rejected ones).
  uint64_t queries_run() const { return queries_run_; }

  /// Queries answered from the cached core bound alone, without touching
  /// a backend (provably empty result sets).
  uint64_t short_circuits() const { return short_circuits_; }

 private:
  std::shared_ptr<const PreparedGraph> prepared_;
  const AlgorithmRegistry* registry_;
  TraversalScratch scratch_;
  uint64_t queries_run_ = 0;
  uint64_t short_circuits_ = 0;
};

namespace internal {

/// The one execution path behind QuerySession::Run and the Enumerate
/// compatibility shim: validates `request` against the backend's
/// capabilities and the sink's threading contract, configures the backend
/// from its backend_options (rejecting bad ones), applies the cached
/// core-bound short-circuit, and runs the backend's shard plan
/// (api/parallel_driver.h).
/// `scratch` may be null (per-run scratch); `short_circuited` (optional)
/// is set to whether the core bound answered the query without a backend.
EnumerateStats RunOnPrepared(const PreparedGraph& prepared,
                             TraversalScratch* scratch,
                             const AlgorithmRegistry& registry,
                             const EnumerateRequest& request,
                             SolutionSink* sink,
                             bool* short_circuited = nullptr);

}  // namespace internal
}  // namespace kbiplex

#endif  // KBIPLEX_API_QUERY_SESSION_H_
