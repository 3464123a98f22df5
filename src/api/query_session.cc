#include "api/query_session.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/parallel_driver.h"
#include "util/timer.h"

namespace kbiplex {
namespace {

/// True iff the cached (a,a)-core bound proves the request's result set
/// empty: a solution with |L'| >= theta_left and |R'| >= theta_right keeps
/// every left vertex at degree >= theta_right - k.left and every right
/// vertex at degree >= theta_left - k.right, so it lies inside the
/// corresponding (α,β)-core — which is empty whenever min(α,β) exceeds
/// the largest non-empty uniform core.
bool CoreBoundProvesEmpty(const PreparedGraph& prepared,
                          const EnumerateRequest& request) {
  if (request.theta_left == 0 || request.theta_right == 0) return false;
  const size_t kl = static_cast<size_t>(request.k.left);
  const size_t kr = static_cast<size_t>(request.k.right);
  if (request.theta_right <= kl || request.theta_left <= kr) return false;
  const size_t alpha = request.theta_right - kl;  // left-side degree demand
  const size_t beta = request.theta_left - kr;    // right-side degree demand
  return std::min(alpha, beta) > prepared.MaxUniformCore();
}

}  // namespace

namespace internal {

EnumerateStats RunOnPrepared(const PreparedGraph& prepared,
                             TraversalScratch* scratch,
                             const AlgorithmRegistry& registry,
                             const EnumerateRequest& request,
                             SolutionSink* sink, bool* short_circuited) {
  if (short_circuited != nullptr) *short_circuited = false;
  const std::string name = NormalizeAlgorithmName(request.algorithm);
  std::optional<AlgorithmInfo> info = registry.Find(name);
  if (!info.has_value()) {
    std::string names;
    for (const std::string& n : registry.Names()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    EnumerateStats out = EnumerateStats::Rejected(
        "unknown algorithm '" + request.algorithm + "'; registered: " + names);
    out.algorithm = name;
    return out;
  }

  const BipartiteGraph& g = prepared.graph();
  EnumerateStats out;
  if (request.k.left < 1 || request.k.right < 1) {
    out = EnumerateStats::Rejected("disconnection budgets must be >= 1");
  } else if (request.threads < 0) {
    out = EnumerateStats::Rejected(
        "threads must be >= 0 (0 = one per hardware thread)");
  } else if (request.threads != 1 && !sink->ThreadCompatible()) {
    // Deterministic contract check: any request asking for parallel
    // delivery is rejected with an incompatible sink, even when the plan
    // would not have split — whether it splits depends on the graph and
    // the hardware, and a sink contract must not. (threads = 1 runs every
    // shard on the calling thread.)
    out = EnumerateStats::Rejected(
        "threads = " + std::to_string(request.threads) +
        " asks for delivery from worker threads, but the sink does "
        "not declare thread compatibility; wrap it in SynchronizedSink or "
        "override SolutionSink::ThreadCompatible() (see "
        "api/solution_sink.h)");
  } else if (!info->supports_asymmetric_k && !request.k.IsUniform()) {
    out = EnumerateStats::Rejected(
        "algorithm '" + name +
        "' requires uniform budgets (k.left == k.right)");
  } else if (info->requires_theta &&
             (request.theta_left < 1 || request.theta_right < 1)) {
    out = EnumerateStats::Rejected(
        "algorithm '" + name +
        "' requires theta_left >= 1 and theta_right >= 1");
  } else if (info->max_side != 0 && (g.NumLeft() > info->max_side ||
                                     g.NumRight() > info->max_side)) {
    out = EnumerateStats::Rejected(
        "algorithm '" + name + "' supports at most " +
        std::to_string(info->max_side) + " vertices per side");
  } else if (ConfiguredBackend configured =
                 registry.Create(name, request.backend_options);
             configured.backend == nullptr) {
    // Configured only once the request passed every check above; the
    // later branches keep `configured` in scope.
    out = EnumerateStats::Rejected(std::move(configured.error));
  } else if (Cancelled(request.cancellation)) {
    out.completed = false;
    out.cancelled = true;
  } else if (!prepared.borrowed() && CoreBoundProvesEmpty(prepared, request)) {
    // Provably empty result set: answer from the cached core bound without
    // running the backend. Restricted to owned graphs, so the one-shot
    // paths (which Borrow) keep the pre-session stats (backend counters
    // and all) byte for byte and never pay the core-bound build.
    WallTimer timer;
    if (short_circuited != nullptr) *short_circuited = true;
    out.completed = true;
    out.seconds = timer.ElapsedSeconds();
  } else {
    out = RunPlan(prepared, scratch, request, *configured.backend, sink);
    if (!out.ok()) out.completed = false;
    if (!out.completed && Cancelled(request.cancellation)) {
      out.cancelled = true;
    }
  }
  out.algorithm = name;
  return out;
}

}  // namespace internal

QuerySession::QuerySession(std::shared_ptr<const PreparedGraph> prepared,
                           const AlgorithmRegistry& registry)
    : prepared_(std::move(prepared)), registry_(&registry) {}

EnumerateStats QuerySession::Run(const EnumerateRequest& request,
                                 SolutionSink* sink) {
  ++queries_run_;
  bool short_circuited = false;
  // The session's scratch is single-threaded state: the plan hands it to
  // an unsplit run and to inline shards, never to pool workers.
  EnumerateStats out = internal::RunOnPrepared(
      *prepared_, &scratch_, *registry_, request, sink, &short_circuited);
  if (short_circuited) ++short_circuits_;
  return out;
}

EnumerateStats QuerySession::Run(
    const EnumerateRequest& request,
    const std::function<bool(const Biplex&)>& cb) {
  CallbackSink sink(cb);
  return Run(request, &sink);
}

std::vector<Biplex> QuerySession::Collect(const EnumerateRequest& request,
                                          EnumerateStats* stats) {
  CollectingSink sink;
  EnumerateStats s = Run(request, &sink);
  if (stats != nullptr) *stats = s;
  return sink.Take();
}

uint64_t QuerySession::Count(const EnumerateRequest& request,
                             EnumerateStats* stats) {
  CountingSink sink;
  EnumerateStats s = Run(request, &sink);
  if (stats != nullptr) *stats = s;
  return sink.count();
}

}  // namespace kbiplex
