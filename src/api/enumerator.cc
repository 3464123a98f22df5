#include "api/enumerator.h"

#include <vector>

#include "api/backends/backends.h"
#include "api/prepared_graph.h"
#include "api/query_session.h"

namespace kbiplex {

// ---------------------------------------------------------------- facade --

EnumerateStats Enumerator::Run(const EnumerateRequest& request,
                               SolutionSink* sink) const {
  // Prepare + single execute, with no artifacts attached and no session
  // scratch: a borrowed prepared graph executes exactly like a direct run
  // on the caller's graph, keeping the one-shot behavior of this shim
  // compatible with the pre-session API. (Sole deliberate exception: the
  // sink threading contract — threads != 1 with a sink that does not
  // declare ThreadCompatible() is now rejected; see api/solution_sink.h.)
  return internal::RunOnPrepared(*prepared_, /*scratch=*/nullptr, *registry_,
                                 request, sink);
}

EnumerateStats Enumerator::Run(
    const EnumerateRequest& request,
    const std::function<bool(const Biplex&)>& cb) const {
  CallbackSink sink(cb);
  return Run(request, &sink);
}

std::vector<Biplex> Enumerator::Collect(const EnumerateRequest& request,
                                        EnumerateStats* stats) const {
  CollectingSink sink;
  EnumerateStats s = Run(request, &sink);
  if (stats != nullptr) *stats = s;
  return sink.Take();
}

uint64_t Enumerator::Count(const EnumerateRequest& request,
                           EnumerateStats* stats) const {
  CountingSink sink;
  EnumerateStats s = Run(request, &sink);
  if (stats != nullptr) *stats = s;
  return sink.count();
}

EnumerateStats Enumerate(const BipartiteGraph& g,
                         const EnumerateRequest& request,
                         SolutionSink* sink) {
  return Enumerator(g).Run(request, sink);
}

// -------------------------------------------------------------- builtins --

namespace internal {

void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry) {
  RegisterTraversalBackends(registry);
  RegisterImbBackend(registry);
  RegisterInflationBackend(registry);
  RegisterBruteForceBackend(registry);
}

}  // namespace internal
}  // namespace kbiplex
