// The one request type of the unified enumeration API. A request names an
// algorithm from the AlgorithmRegistry and carries every knob that is
// meaningful across backends: budgets, disconnection budgets, and size
// thresholds. Backend-specific tuning travels in `backend_options`, a
// string-keyed map documented per backend in api/enumerator.h, so adding a
// knob to one backend never changes this struct.
#ifndef KBIPLEX_API_ENUMERATE_REQUEST_H_
#define KBIPLEX_API_ENUMERATE_REQUEST_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/biplex.h"
#include "util/cancellation.h"

namespace kbiplex {

/// Backend-specific knobs, "key" -> "value".
using BackendOptions = std::map<std::string, std::string>;

/// Everything needed to run one enumeration, independent of the backend.
struct EnumerateRequest {
  /// Registry name of the backend; see AlgorithmRegistry::Names().
  /// Matching is case-insensitive.
  std::string algorithm = "itraversal";

  /// Per-side disconnection budgets (Definition 2.1). Backends that only
  /// support uniform budgets reject requests with k.left != k.right.
  KPair k = KPair::Uniform(1);

  /// Size thresholds: only solutions with |L'| >= theta_left and
  /// |R'| >= theta_right are delivered (0 = unconstrained). Backends with
  /// native size pruning (large-mbp, imb, the traversal family) push the
  /// thresholds into the search; the facade filters for the rest.
  size_t theta_left = 0;
  size_t theta_right = 0;

  /// Stop after this many delivered solutions (0 = all).
  uint64_t max_results = 0;

  /// Wall-clock budget in seconds (0 = unlimited); the paper's INF knob.
  double time_budget_seconds = 0;

  /// Abort once the backend generated this many work units — solution-graph
  /// links for the traversal family (the paper's UPP knob); ignored by
  /// backends without a comparable counter. 0 = unlimited.
  uint64_t max_links = 0;

  /// Worker threads of the run: 1 (the default) = the calling thread
  /// only, 0 = one per hardware thread, N = at most N workers (clamped to
  /// 256). The facade runs the backend's shard plan (see
  /// api/parallel_driver.h): component shards at every thread count when
  /// they are provably equivalent to an unsplit run and two or more
  /// components can hold a solution, range slices at two or more
  /// threads; otherwise one unsplit backend run. A completed split run
  /// delivers exactly the unsplit run's solution *set*, but in another
  /// order; with more than one thread the order is unspecified and sinks
  /// are invoked from worker threads (serialized, one at a time). When a
  /// run stops early — max_results, time budget, sink stop — the cap is
  /// still enforced exactly, but *which* solutions arrive depends on the
  /// shard order. Because delivery may happen from worker threads, the
  /// sink must declare it tolerates that (see the threading contract in
  /// api/solution_sink.h): every request with threads != 1 is rejected
  /// when the sink's ThreadCompatible() returns false — wrap such a sink
  /// in SynchronizedSink or override the method. threads = 1 delivers
  /// from the calling thread only.
  int threads = 1;

  /// Optional cooperative cancellation, polled by every backend at the
  /// same cadence as the wall-clock deadline. Not owned; may be null.
  const CancellationToken* cancellation = nullptr;

  /// Backend-specific knobs, parsed once per request by the backend's
  /// factory; unknown keys are rejected. See the table in api/enumerator.h.
  BackendOptions backend_options;
};

}  // namespace kbiplex

#endif  // KBIPLEX_API_ENUMERATE_REQUEST_H_
