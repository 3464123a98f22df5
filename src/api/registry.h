// String-keyed registry of enumeration backends. Every backend registers,
// from its module in api/backends/, a factory that configures it once per
// request; the CLI, benches, examples, and tests dispatch through the
// registry instead of hard-coding backend entry points. Adding a backend
// is one Register() call.
#ifndef KBIPLEX_API_REGISTRY_H_
#define KBIPLEX_API_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/solution_sink.h"
#include "graph/bipartite_graph.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace kbiplex {

class PreparedGraph;       // api/prepared_graph.h
struct TraversalScratch;   // core/traversal_scratch.h

/// Everything a backend executes against: the prepared graph whose
/// graph() it must enumerate plus optional session scratch reused across
/// queries.
struct QueryContext {
  const PreparedGraph* prepared = nullptr;  // never null for backend runs
  /// Cross-query scratch of the owning session, or null (per-run scratch).
  /// Never shared between concurrently running backends.
  TraversalScratch* scratch = nullptr;
  /// Slice [range_begin, range_end) of the backend's range domain (see
  /// AlgorithmBackend::ParallelRange) this run covers; range_end = 0 means
  /// the whole domain. Backends without a range domain ignore it.
  uint64_t range_begin = 0;
  uint64_t range_end = 0;
};

/// A backend's range split on one graph: the domain [0, size) is cut into
/// contiguous slices, `slices_per_thread` per worker (oversplit for load
/// balance when slices differ in cost).
struct RangeDomain {
  uint64_t size = 0;
  uint64_t slices_per_thread = 1;
};

/// One enumeration backend behind the unified API, configured for one
/// request's backend_options. Every shard of a split run executes on the
/// same instance, so Run is const and may run concurrently.
class AlgorithmBackend {
 public:
  virtual ~AlgorithmBackend() = default;

  /// Runs the enumeration against ctx.prepared's graph, handing every
  /// solution to `sink`: the plan's delivery guard, which applies the size
  /// thresholds and max_results and counts delivered solutions (so
  /// `solutions` is left to the plan). The request is already validated.
  virtual EnumerateStats Run(const QueryContext& ctx,
                             const EnumerateRequest& request,
                             SolutionSink* sink) const = 0;

  // Parallel split (api/parallel_driver.h).

  /// The backend's range domain on `g`, or nullopt if it declares none
  /// (the driver then tries component shards). Runs over the slices of any
  /// partition of [0, size) must deliver the sequential solution set with
  /// no duplicates. A one-element domain has nothing to split and runs
  /// sequentially.
  virtual std::optional<RangeDomain> ParallelRange(
      const BipartiteGraph& /*g*/) const {
    return std::nullopt;
  }

  /// False iff running per component would change the request's meaning
  /// even where the size thresholds make component shards equivalent (a
  /// per-run guard that every shard would otherwise get in full).
  virtual bool ComponentShardsAllowed() const { return true; }

  /// Folds `shard`'s detail block into `into`'s, engaging it. A shard the
  /// time budget expired before has no block and marks the merged one
  /// incomplete, so a truncated split run keeps the backend's stats schema.
  virtual void MergeDetail(const EnumerateStats& /*shard*/,
                           EnumerateStats* /*into*/) const {}
};

/// A factory's result: the configured backend, or null and the rejection.
struct ConfiguredBackend {
  std::unique_ptr<const AlgorithmBackend> backend;
  std::string error;
};

/// Capabilities and documentation of a registered backend, used by the
/// facade for uniform request validation and by the CLI for --help output.
struct AlgorithmInfo {
  std::string name;     // registry key, lower case
  std::string summary;  // one-line description
  /// False iff the backend requires k.left == k.right (the k-biplex /
  /// (k+1)-plex correspondence behind imb and inflation is uniform-only).
  bool supports_asymmetric_k = true;
  /// True iff the backend needs theta_left >= 1 and theta_right >= 1
  /// (Section 5 large-MBP enumeration is defined only with thresholds).
  bool requires_theta = false;
  /// Reject graphs with a side larger than this (0 = unbounded); brute
  /// force caps both sides at 20.
  size_t max_side = 0;
};

using AlgorithmFactory =
    std::function<ConfiguredBackend(const BackendOptions& options)>;

/// Thread-safe name -> backend-factory map.
class AlgorithmRegistry {
 public:
  /// The process-wide registry, pre-populated with the built-in backends.
  static AlgorithmRegistry& Global();

  /// Registers a backend; returns false (and changes nothing) if the name
  /// is already taken. Names are case-insensitive.
  bool Register(AlgorithmInfo info, AlgorithmFactory factory)
      KBIPLEX_EXCLUDES(mu_);

  /// True iff `name` is registered.
  bool Contains(const std::string& name) const KBIPLEX_EXCLUDES(mu_);

  /// Capability record of `name`, or std::nullopt if unknown.
  std::optional<AlgorithmInfo> Find(const std::string& name) const
      KBIPLEX_EXCLUDES(mu_);

  /// The backend of `name` configured with `options`, or the rejection of
  /// an unknown name or of the options.
  ConfiguredBackend Create(const std::string& name,
                           const BackendOptions& options) const
      KBIPLEX_EXCLUDES(mu_);

  /// All registered names, sorted.
  std::vector<std::string> Names() const KBIPLEX_EXCLUDES(mu_);

  /// All capability records, sorted by name.
  std::vector<AlgorithmInfo> List() const KBIPLEX_EXCLUDES(mu_);

 private:
  struct Entry {
    AlgorithmInfo info;
    AlgorithmFactory factory;
  };

  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ KBIPLEX_GUARDED_BY(mu_);
};

/// Lower-cases an algorithm name; registry lookups apply this themselves,
/// exposed for callers that render names.
std::string NormalizeAlgorithmName(const std::string& name);

namespace internal {
/// Registers the eight built-in backends from their modules
/// (api/backends/backends.h); called once by Global().
void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry);
}  // namespace internal

}  // namespace kbiplex

#endif  // KBIPLEX_API_REGISTRY_H_
