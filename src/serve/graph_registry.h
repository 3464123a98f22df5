// Named multi-graph registry of the serving daemon: maps graph names to
// shared PreparedGraphs under a reader/writer lock, so any number of
// concurrent queries resolve their target graph without contending with
// each other, and loads/evicts are rare exclusive writes.
//
// Eviction, reload, and update are generation-based: each successful
// (re)load or applied update batch bumps a registry-wide generation
// counter, and workers key their cached QuerySessions on (name,
// generation). An evicted or replaced graph's PreparedGraph stays alive —
// shared_ptr — until the last in-flight query over it finishes; stale
// worker sessions simply miss on the next lookup and are rebuilt against
// the new generation. Every replaced PreparedGraph is additionally
// tracked as a retired epoch (weak_ptr): PendingRetiredEpochs reports how
// many are still pinned by in-flight borrowers, making the
// snapshot-until-released contract observable from the stats op.
#ifndef KBIPLEX_SERVE_GRAPH_REGISTRY_H_
#define KBIPLEX_SERVE_GRAPH_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "graph/bipartite_graph.h"
#include "update/incremental.h"
#include "update/update_batch.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace kbiplex {
namespace serve {

/// One registered graph: the shared artifact holder plus the metadata the
/// `list` command reports.
struct RegisteredGraph {
  std::shared_ptr<const PreparedGraph> prepared;
  uint64_t generation = 0;  // unique per (re)load; session-cache key
  std::string path;         // source path ("" for graphs added in-process)
};

/// Outcome of a registry-level update apply, wire-error-coded so the
/// server can answer without re-deriving the failure class.
struct UpdateApplyOutcome {
  /// 0 on success; otherwise a WireError value — 404 (unknown graph),
  /// 409 (a reload/evict raced the apply; retry against the new
  /// generation), 400 (the batch itself was invalid).
  int error_code = 0;
  std::string error;
  uint64_t generation = 0;       // generation of the published epoch
  update::UpdateResult result;   // apply details; result.prepared = epoch

  bool ok() const { return error_code == 0; }
};

class GraphRegistry {
 public:
  /// Loads an edge list from `path` and registers it under `name`,
  /// replacing any previous graph of that name (its generation changes).
  /// Returns the error message, empty on success. The load and prepare
  /// run outside the lock: concurrent queries are never blocked behind
  /// file I/O.
  std::string LoadFile(const std::string& name, const std::string& path)
      KBIPLEX_EXCLUDES(mu_);

  /// Registers an already-built graph (daemon preload, tests).
  void Add(const std::string& name, BipartiteGraph graph) KBIPLEX_EXCLUDES(mu_);

  /// Removes `name`; returns false when it was not registered. In-flight
  /// queries holding the shared_ptr keep running to completion.
  bool Evict(const std::string& name) KBIPLEX_EXCLUDES(mu_);

  /// Applies `batch` to the current epoch of `name` and publishes the
  /// successor under a fresh generation. Updates to one graph serialize
  /// on a per-graph lock; the apply itself runs outside the registry
  /// lock, so queries and other graphs never block behind it. If a load
  /// or evict races the apply (the generation moved between snapshot and
  /// publish), the new epoch is discarded and the outcome is a 409 —
  /// the caller retries against the current state.
  UpdateApplyOutcome ApplyUpdates(const std::string& name,
                                  const update::UpdateBatch& batch)
      KBIPLEX_EXCLUDES(mu_);

  /// Retired epochs of `name` (replaced by update/load or evicted) still
  /// alive because an in-flight session borrows them. Expired trackers
  /// are pruned by the next mutating operation on the name.
  size_t PendingRetiredEpochs(const std::string& name) const
      KBIPLEX_EXCLUDES(mu_);

  /// Resolves `name`; nullopt when unknown.
  std::optional<RegisteredGraph> Get(const std::string& name) const
      KBIPLEX_EXCLUDES(mu_);

  /// Snapshot of every registered graph, sorted by name.
  std::vector<std::pair<std::string, RegisteredGraph>> List() const
      KBIPLEX_EXCLUDES(mu_);

  size_t size() const KBIPLEX_EXCLUDES(mu_);

 private:
  void Put(const std::string& name, RegisteredGraph entry)
      KBIPLEX_EXCLUDES(mu_);

  /// Records `prepared` as a retired epoch of `name`, pruning trackers
  /// whose epoch already died.
  void RetireLocked(const std::string& name,
                    const std::shared_ptr<const PreparedGraph>& prepared)
      KBIPLEX_REQUIRES(mu_);

  mutable SharedMutex mu_;
  std::map<std::string, RegisteredGraph> graphs_ KBIPLEX_GUARDED_BY(mu_);
  uint64_t next_generation_ KBIPLEX_GUARDED_BY(mu_) = 1;
  // Replaced/evicted epochs, weakly tracked so the count of still-borrowed
  // snapshots is observable without pinning them.
  std::map<std::string, std::vector<std::weak_ptr<const PreparedGraph>>>
      retired_ KBIPLEX_GUARDED_BY(mu_);
  // Per-graph update serialization (lock ordering: an update lock is
  // acquired only while mu_ is NOT held, and mu_ is taken under it for
  // the snapshot and publish steps — see docs/concurrency.md). Held via
  // shared_ptr so an evict can drop the map slot while an apply still
  // holds the lock object.
  std::map<std::string, std::shared_ptr<Mutex>> update_locks_
      KBIPLEX_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace kbiplex

#endif  // KBIPLEX_SERVE_GRAPH_REGISTRY_H_
