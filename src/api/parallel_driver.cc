#include "api/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "util/cancellation.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace kbiplex {
namespace internal {
namespace {

/// The one delivery guard between a backend and the caller's sink, for
/// split and unsplit runs alike: serializes sink access, counts delivered
/// solutions with an atomic, and turns a global stop condition (result
/// cap, sink refusal) into a cancellation visible to every shard.
class SharedDelivery final : public SolutionSink {
 public:
  SharedDelivery(const EnumerateRequest& request, SolutionSink* sink,
                 CancellationToken* stop)
      : request_(request), sink_(sink), stop_(stop) {}

  /// Thread-safe delivery: threshold filter, then sink, then the result
  /// cap; a solution counts as delivered only once the sink accepted it,
  /// so a sink-initiated stop leaves the count at what the sink took.
  bool Accept(const Biplex& b) override {
    if (b.left.size() < request_.theta_left ||
        b.right.size() < request_.theta_right) {
      return true;
    }
    MutexLock lock(&mu_);
    if (stopped_) return false;
    if (!sink_->Accept(b)) {
      Stop();
      return false;
    }
    const uint64_t n = delivered_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (request_.max_results != 0 && n >= request_.max_results) {
      Stop();
      return false;
    }
    return true;
  }

  uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  void Stop() KBIPLEX_REQUIRES(mu_) {
    stopped_ = true;
    stop_->Cancel();
  }

  const EnumerateRequest& request_;
  SolutionSink* const sink_ KBIPLEX_PT_GUARDED_BY(mu_);
  CancellationToken* const stop_;  // CancellationToken is atomic
  Mutex mu_;
  std::atomic<uint64_t> delivered_{0};
  bool stopped_ KBIPLEX_GUARDED_BY(mu_) = false;
};

/// Collects the first exception escaping any shard (engines do not throw
/// in normal operation).
class ErrorCollector {
 public:
  void Record(const std::string& error) {
    if (error.empty()) return;
    MutexLock lock(&mu_);
    if (error_.empty()) error_ = error;
  }

  std::string Take() {
    MutexLock lock(&mu_);
    return error_;
  }

 private:
  Mutex mu_;
  std::string error_ KBIPLEX_GUARDED_BY(mu_);
};

/// The time budget is global: a shard dequeued late must not restart the
/// clock, so each one gets the budget *remaining* on the driver's timer
/// when it actually starts. Returns false when the budget is already
/// spent and the shard should not run at all.
bool RemainingBudget(const EnumerateRequest& request, const WallTimer& timer,
                     double* remaining) {
  *remaining = 0;  // 0 = unlimited
  if (request.time_budget_seconds <= 0) return true;
  *remaining = request.time_budget_seconds - timer.ElapsedSeconds();
  return *remaining > 0;
}

/// Runs `body`, converting an escaping exception into a recorded error
/// instead of a process abort.
template <typename Body>
void RunGuarded(ErrorCollector* errors, const Body& body) {
  try {
    body();
  } catch (const std::exception& e) {
    errors->Record(std::string("worker failed: ") + e.what());
  } catch (...) {
    errors->Record("worker failed with an unknown exception");
  }
}

/// Sink handed to a component worker's backend: translates the
/// component's compact ids back to parent ids (the maps are ascending, so
/// sortedness is preserved) and forwards to the shared delivery.
class MappingSink final : public SolutionSink {
 public:
  MappingSink(SolutionSink* delivery, const InducedSubgraph& component)
      : delivery_(delivery), component_(component) {}

  bool Accept(const Biplex& solution) override {
    Biplex mapped;
    mapped.left.reserve(solution.left.size());
    for (VertexId v : solution.left) {
      mapped.left.push_back(component_.left_map[v]);
    }
    mapped.right.reserve(solution.right.size());
    for (VertexId u : solution.right) {
      mapped.right.push_back(component_.right_map[u]);
    }
    return delivery_->Accept(mapped);
  }

 private:
  SolutionSink* delivery_;
  const InducedSubgraph& component_;
};

/// One unit of parallel work: either a whole component subgraph, or the
/// slice [begin, end) of the backend's range domain on the execution
/// graph.
struct Shard {
  const InducedSubgraph* component = nullptr;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Splits [0, total) into `chunks` near-equal contiguous slices.
std::vector<Shard> SplitRange(uint64_t total, uint64_t chunks) {
  chunks = std::max<uint64_t>(1, std::min(chunks, total));
  std::vector<Shard> out;
  out.reserve(chunks);
  for (uint64_t i = 0; i < chunks; ++i) {
    out.push_back({nullptr, total * i / chunks, total * (i + 1) / chunks});
  }
  return out;
}

/// One shard per component large enough to hold a solution, biggest
/// first; empty (no split) when component sharding is unsafe or fewer
/// than two shards remain.
std::vector<Shard> ComponentShards(const PreparedGraph& prepared,
                                   const EnumerateRequest& request,
                                   const AlgorithmBackend& backend) {
  if (!ComponentShardingIsSafe(request.k, request.theta_left,
                               request.theta_right) ||
      !backend.ComponentShardsAllowed()) {
    return {};
  }
  // max_links is an engine-internal work counter with no cross-engine
  // accounting hook; copying it into every shard would turn the global
  // budget into a per-shard one (a truncated unsplit run could "complete"
  // when split). Run unsplit rather than change its meaning.
  if (request.max_links != 0) return {};

  // Cheap labeling pass first (cached on the prepared graph with its
  // per-component side sizes, so repeated queries of one session pay for
  // it once): a component too small for the thresholds cannot host a
  // deliverable solution (and spanning solutions are excluded by the
  // safety check), and unless at least two components survive that filter
  // the common single-component case bails out here without materializing
  // any induced subgraph.
  const ComponentLabeling& labels = prepared.Components();
  std::vector<int> eligible;
  for (int c = 0; c < labels.num_components; ++c) {
    if (labels.left_size[c] >= request.theta_left &&
        labels.right_size[c] >= request.theta_right) {
      eligible.push_back(c);
    }
  }
  if (eligible.size() < 2) return {};

  // Every component, materialized once on the prepared graph and shared
  // by all subsequent component-sharded queries; this query only indexes
  // into the cache. The labeling bail-outs above keep single-component
  // graphs (the common case) from ever paying the materialization.
  const std::vector<InducedSubgraph>& components =
      prepared.ComponentSubgraphs();
  std::vector<Shard> shards;
  shards.reserve(eligible.size());
  for (int c : eligible) shards.push_back({.component = &components[c]});
  // Big components first so a straggler starts early.
  std::sort(shards.begin(), shards.end(), [](const Shard& a, const Shard& b) {
    return a.component->graph.NumEdges() > b.component->graph.NumEdges();
  });
  return shards;
}

/// The shards `backend` declares for `request` on `threads` workers;
/// empty when the request does not split.
std::vector<Shard> PlanShards(const PreparedGraph& prepared,
                              const EnumerateRequest& request,
                              const AlgorithmBackend& backend,
                              size_t threads) {
  if (std::optional<RangeDomain> domain =
          backend.ParallelRange(prepared.graph())) {
    // Range slices only spread the domain's work over workers, so one
    // worker runs the domain whole; a one-element domain has nothing to
    // split.
    if (threads < 2 || domain->size <= 1) return {};
    return SplitRange(domain->size, threads * domain->slices_per_thread);
  }
  // Component shards at every worker count: a per-component run never
  // forms the almost-satisfying graphs that straddle components.
  // Splitting one component would have to turn off iTraversal's
  // path-dependent exclusion strategy, which costs more than it gains.
  return ComponentShards(prepared, request, backend);
}

}  // namespace

size_t ResolveThreadCount(int threads) {
  // Clamp absurd requests: beyond this, extra workers only add memory and
  // scheduler pressure (and std::thread creation can throw once the
  // process hits its thread limit, which nothing above could report
  // cleanly). Pool sizes are further capped by the number of shards.
  constexpr size_t kMaxThreads = 256;
  if (threads <= 0) return std::min(ThreadPool::HardwareThreads(), kMaxThreads);
  return std::min(static_cast<size_t>(threads), kMaxThreads);
}

bool ComponentShardingIsSafe(KPair k, size_t theta_left, size_t theta_right) {
  // A maximal k-biplex S = (L', R') touching two or more connected
  // components satisfies two structural facts:
  //   (1) if |L'| > k.right, every right member is confined to the
  //       components L' touches (a right vertex elsewhere would
  //       disconnect all of L'); so either L' spans >= 2 components —
  //       which forces |R'| <= 2*k.left, because each touched component
  //       must hold >= |R'| - k.left right members — or L' sits in one
  //       component and S does not span at all. Hence a spanning S has
  //       |L'| <= k.right or |R'| <= 2*k.left.
  //   (2) symmetrically, |R'| <= k.left or |L'| <= 2*k.right.
  // The thresholds exclude every spanning solution when they contradict
  // (1) or (2). The same bound makes per-component maximality global:
  // a delivered solution has |R'| >= theta_right > k.left and
  // |L'| >= theta_left > k.right, so no vertex of another component can
  // be added to it.
  const size_t kl = static_cast<size_t>(k.left);
  const size_t kr = static_cast<size_t>(k.right);
  return (theta_left > kr && theta_right > 2 * kl) ||
         (theta_right > kl && theta_left > 2 * kr);
}

EnumerateStats RunPlan(const PreparedGraph& prepared,
                       TraversalScratch* scratch,
                       const EnumerateRequest& request,
                       const AlgorithmBackend& backend, SolutionSink* sink) {
  const size_t threads = ResolveThreadCount(request.threads);
  WallTimer timer;
  const std::vector<Shard> shards =
      PlanShards(prepared, request, backend, threads);
  CancellationToken stop(request.cancellation);
  SharedDelivery delivery(request, sink, &stop);
  if (shards.empty()) {
    // Unsplit: the backend polls the caller's token, exactly as a direct
    // run; a stop at the guard reaches it through the sink.
    EnumerateStats out = backend.Run(
        QueryContext{.prepared = &prepared, .scratch = scratch}, request,
        &delivery);
    out.solutions = delivery.delivered();
    return out;
  }

  // One worker runs the shards inline on the calling thread, in order,
  // with the caller's `scratch`; more run them on a pool without scratch.
  ErrorCollector errors;
  std::vector<EnumerateStats> shard_stats(shards.size());
  const bool inline_shards = threads == 1;
  auto run_shard = [&](size_t i) {
    const Shard& shard = shards[i];
    EnumerateRequest shard_request = request;
    shard_request.cancellation = &stop;
    shard_request.threads = 1;
    if (!RemainingBudget(request, timer,
                         &shard_request.time_budget_seconds)) {
      // No detail block: MergeDetail still engages the backend's block
      // for this shard, so the merged stats' JSON schema does not depend
      // on which shard the expiring budget happened to hit first.
      shard_stats[i].completed = false;
      return;
    }
    QueryContext ctx{&prepared, inline_shards ? scratch : nullptr,
                     shard.begin, shard.end};
    SolutionSink* out = &delivery;
    std::shared_ptr<const PreparedGraph> borrowed;
    std::optional<MappingSink> mapping;
    if (shard.component != nullptr) {
      // A component shard wraps its subgraph in a borrowed prepared
      // graph (no artifacts), so the cached component graphs stay
      // untouched for the queries that follow.
      borrowed = PreparedGraph::Borrow(shard.component->graph);
      ctx.prepared = borrowed.get();
      out = &mapping.emplace(&delivery, *shard.component);
    }
    shard_stats[i] = backend.Run(ctx, shard_request, out);
  };
  if (inline_shards) {
    // The caller's thread delivers every solution, so a sink that is not
    // thread-compatible keeps its contract.
    for (size_t i = 0; i < shards.size(); ++i) {
      RunGuarded(&errors, [&] { run_shard(i); });
    }
  } else {
    ThreadPool pool(std::min(threads, shards.size()));
    for (size_t i = 0; i < shards.size(); ++i) {
      pool.Submit([&, i] { RunGuarded(&errors, [&] { run_shard(i); }); });
    }
    pool.Wait();
  }
  if (std::string err = errors.Take(); !err.empty()) {
    return EnumerateStats::Rejected(std::move(err));
  }

  EnumerateStats out;
  for (const EnumerateStats& s : shard_stats) {
    out.MergeShard(s);
    backend.MergeDetail(s, &out);
  }
  out.solutions = delivery.delivered();
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace internal
}  // namespace kbiplex
