// The unified enumeration facade: one entry point over every maximal
// k-biplex enumeration backend in the library.
//
//   Enumerator enumerator(g);
//   EnumerateRequest req;
//   req.algorithm = "itraversal";
//   req.k = KPair::Uniform(2);
//   CollectingSink sink;
//   EnumerateStats stats = enumerator.Run(req, &sink);
//
// Registered built-in algorithms (AlgorithmRegistry::Global()):
//
//   name              backend                                  constraints
//   ----------------  ---------------------------------------  -----------
//   itraversal        reverse search, all three techniques
//   itraversal-es     iTraversal without the exclusion strategy
//   itraversal-es-rs  left-anchored traversal only
//   btraversal        conventional reverse search (Algorithm 1)
//   large-mbp         Section 5 large-MBP enumeration with      theta >= 1
//                     (θ−k)-core pre-reduction
//   imb               iMB-style set enumeration baseline        uniform k
//   inflation         FaPlexen-style graph-inflation baseline   uniform k
//   brute-force       exhaustive reference enumerator           sides <= 20
//
// Backend options (EnumerateRequest::backend_options; parsed once per
// request by the backend's module in api/backends/, unknown keys are
// rejected):
//
//   traversal family: "anchored_side"       left | right
//   inflation:        "max_inflated_edges"  <N>  (0 = no guard)
#ifndef KBIPLEX_API_ENUMERATOR_H_
#define KBIPLEX_API_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/prepared_graph.h"
#include "api/registry.h"
#include "api/solution_sink.h"
#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Facade over the algorithm registry: validates a request against the
/// selected backend's capabilities, runs it, and returns unified stats.
/// The graph must outlive the facade. Run is const and reentrant; each
/// call is an independent enumeration.
///
/// This is the one-shot compatibility shim over the prepare/execute API
/// (api/prepared_graph.h + api/query_session.h): it borrows the caller's
/// graph without attaching any artifact, so each Run pays the full
/// per-query preprocessing cost. Services answering many queries over one
/// graph should use PreparedGraph::Prepare + QuerySession instead.
class Enumerator {
 public:
  /// Uses the process-wide registry.
  explicit Enumerator(const BipartiteGraph& g)
      : Enumerator(g, AlgorithmRegistry::Global()) {}

  /// Uses a custom registry (tests, embedders).
  Enumerator(const BipartiteGraph& g, const AlgorithmRegistry& registry)
      : prepared_(PreparedGraph::Borrow(g)), registry_(&registry) {}

  /// Runs the request, delivering solutions to `sink`. Rejected requests
  /// return stats with a non-empty `error` and no solutions delivered.
  EnumerateStats Run(const EnumerateRequest& request,
                     SolutionSink* sink) const;

  /// Convenience: runs with a callback sink.
  EnumerateStats Run(const EnumerateRequest& request,
                     const std::function<bool(const Biplex&)>& cb) const;

  /// Convenience: collects and returns the solutions, sorted.
  std::vector<Biplex> Collect(const EnumerateRequest& request,
                              EnumerateStats* stats = nullptr) const;

  /// Convenience: counts solutions without materializing them.
  uint64_t Count(const EnumerateRequest& request,
                 EnumerateStats* stats = nullptr) const;

 private:
  std::shared_ptr<const PreparedGraph> prepared_;
  const AlgorithmRegistry* registry_;
};

/// One-shot form of Enumerator(g).Run(request, sink).
EnumerateStats Enumerate(const BipartiteGraph& g,
                         const EnumerateRequest& request, SolutionSink* sink);

}  // namespace kbiplex

#endif  // KBIPLEX_API_ENUMERATOR_H_
