// The "prepare" half of the prepare/execute API: an immutable, shareable
// PreparedGraph owns a loaded BipartiteGraph plus the preprocessing
// artifacts every query over that graph wants — the connected-component
// labeling (and per-component subgraphs) used by the parallel driver, and
// a core-decomposition bound that lets provably-empty queries answer
// instantly. Queries execute on the input graph itself. Artifacts are
// built lazily, at most once, and are safe to consume from any number of
// concurrent QuerySessions (api/query_session.h):
//
//   auto prepared = PreparedGraph::Prepare(std::move(g));
//   QuerySession session(prepared);
//   for (const EnumerateRequest& req : queries) {
//     session.Run(req, &sink);   // artifacts and scratch reused
//   }
//
// This mirrors the classic prepare/execute split of database engines: the
// one-shot Enumerate(g, request, sink) facade remains as a thin
// compatibility shim (prepare + single execute, no artifacts attached).
//
// An epoch produced by ApplyUpdates is a new PreparedGraph over the
// spliced graph whose artifacts start lazy, like those of a fresh
// Prepare: there is one artifact lifecycle, and no artifact crosses an
// epoch.
#ifndef KBIPLEX_API_PREPARED_GRAPH_H_
#define KBIPLEX_API_PREPARED_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "graph/bipartite_graph.h"
#include "graph/components.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace kbiplex {

namespace update {
class UpdateBatch;
struct UpdateResult;
}  // namespace update

/// Build counters of the lazily-created artifacts; each counter is the
/// number of times the corresponding build actually ran, so a correctly
/// shared PreparedGraph reports at most 1 per artifact no matter how many
/// sessions raced to request it.
struct PrepareArtifactStats {
  int component_builds = 0;
  int component_subgraph_builds = 0;  // materialized per-component graphs
  int core_bound_builds = 0;
  double build_seconds = 0;  // total time spent inside artifact builds

  // Bytes of prepare-time adjacency structures beyond the CSR graph.
  // Queries test edges on the CSR arrays alone, so this is always 0; the
  // field and its JSON key stay for readers of the stats schema.
  size_t adjacency_memory_bytes = 0;

  /// Serializes every field as one JSON object (additive schema: new
  /// fields append, existing keys never change meaning).
  std::string ToJson() const;
};

/// Cumulative update history of a PreparedGraph's epoch chain. A freshly
/// prepared graph is epoch 0; every successful ApplyUpdates produces a
/// new immutable PreparedGraph at epoch N+1 carrying the chain's
/// counters forward. Immutable on a published epoch — the update
/// machinery fills it in before the new epoch becomes visible.
struct UpdateLineage {
  uint64_t epoch = 0;              // position in the chain (0 = fresh)
  uint64_t updates_applied = 0;    // successful ApplyUpdates in the chain
  uint64_t edges_inserted = 0;     // cumulative real inserts
  uint64_t edges_deleted = 0;      // cumulative real deletes
  // No artifact is carried across an epoch (every epoch builds its own
  // lazily), so these three are always 0; the fields and their JSON keys
  // stay for readers of the stats schema.
  uint64_t full_rebuilds = 0;
  uint64_t artifacts_incremental = 0;
  uint64_t artifacts_rebuilt = 0;
  double apply_seconds = 0;  // total wall time inside ApplyUpdates

  /// One JSON object, additive schema (same contract as
  /// PrepareArtifactStats::ToJson).
  std::string ToJson() const;
};

/// A graph prepared for repeated querying. Construct through Prepare()
/// (owning) or Borrow() (non-owning view, used by the one-shot
/// compatibility shim); instances are immutable from the caller's point of
/// view and every accessor is safe to call concurrently.
class PreparedGraph {
 public:
  /// Takes ownership of `g`. Artifacts are built lazily on first use;
  /// call Warmup() to build them eagerly.
  static std::shared_ptr<const PreparedGraph> Prepare(BipartiteGraph g);

  /// Wraps a caller-owned graph without copying it, so execution matches
  /// a direct run on `g` exactly. `g` must outlive the returned object.
  static std::shared_ptr<const PreparedGraph> Borrow(const BipartiteGraph& g);

  PreparedGraph(const PreparedGraph&) = delete;
  PreparedGraph& operator=(const PreparedGraph&) = delete;

  /// The input graph, exactly as handed to Prepare/Borrow.
  const BipartiteGraph& graph() const { return *graph_; }

  /// The graph queries execute on: the input graph, same as graph().
  const BipartiteGraph& ExecutionGraph() const { return *graph_; }

  /// True iff this wraps a caller-owned graph (Borrow). Borrowed graphs
  /// serve one-shot runs (the compatibility shim, the CLI
  /// enumerate/large commands), so sessions apply none of the
  /// session-only execution changes to them: the core-bound
  /// short-circuit fires only on owned graphs, and a one-shot run keeps
  /// its backend counter blocks and never pays the core-bound build.
  bool borrowed() const { return owned_ == nullptr; }

  /// Connected-component labeling of the graph (consumed by the shard
  /// plan). Built on first call, then cached; thread-safe.
  const ComponentLabeling& Components() const;

  /// Materialized induced subgraphs of every connected component of the
  /// graph, index-aligned with the labels of Components().
  /// Built on first call, then cached and shared by every subsequent
  /// component-sharded query; thread-safe. Roughly doubles the graph's
  /// resident memory, so callers should bail out via the cheap labeling
  /// (e.g. fewer than two shardable components) before touching this.
  const std::vector<InducedSubgraph>& ComponentSubgraphs() const;

  /// The largest a such that the (a,a)-core of the graph is non-empty
  /// (0 for an edgeless graph). Any k-biplex whose thresholds demand
  /// per-vertex degrees above this bound cannot exist, so sessions answer
  /// such queries instantly. Built on first call, then cached.
  size_t MaxUniformCore() const;

  /// Builds every artifact now (prepare-heavy, execute-light servers).
  void Warmup() const;

  /// Snapshot of the artifact build counters.
  PrepareArtifactStats artifact_stats() const;

  /// Position of this instance in its update chain (0 = fresh Prepare).
  uint64_t epoch() const { return lineage_.epoch; }

  /// The chain's cumulative update history.
  const UpdateLineage& lineage() const { return lineage_; }

  /// Applies an edge-update batch copy-on-write: this instance is left
  /// untouched (sessions borrowing it keep their snapshot), and on
  /// success the result carries a new immutable PreparedGraph at epoch
  /// N+1. The successor's CSR is spliced from this one; its artifacts
  /// are built lazily, like those of a fresh Prepare. Borrowed graphs
  /// reject updates.
  /// Thread-safe against concurrent queries; concurrent ApplyUpdates
  /// calls on the same instance are safe but produce sibling epochs —
  /// serialize updates per graph (the serving registry does) to keep a
  /// linear chain. Defined with the update subsystem (src/update/).
  update::UpdateResult ApplyUpdates(const update::UpdateBatch& batch) const;

 private:
  /// The artifact build counters behind their own capability, so the
  /// thread-safety analysis can verify every access (the surrounding
  /// artifact members are published through std::call_once, which the
  /// analysis cannot model — see the invariant note below).
  struct BuildCounters {
    mutable Mutex mu;
    mutable PrepareArtifactStats stats KBIPLEX_GUARDED_BY(mu);

    /// Bumps one build counter and the build-seconds total.
    void Count(int PrepareArtifactStats::*counter, double seconds) const
        KBIPLEX_EXCLUDES(mu) {
      MutexLock lock(&mu);
      stats.*counter += 1;
      stats.build_seconds += seconds;
    }

    PrepareArtifactStats Snapshot() const KBIPLEX_EXCLUDES(mu) {
      MutexLock lock(&mu);
      return stats;
    }
  };

  explicit PreparedGraph(BipartiteGraph g);
  explicit PreparedGraph(const BipartiteGraph* view);

  // Owning mode stores the graph; view mode points at the caller's.
  std::unique_ptr<const BipartiteGraph> owned_;
  const BipartiteGraph* graph_ = nullptr;

  // Lazily-built artifacts. Invariant: each artifact member below is
  // written only inside the std::call_once of its once_flag and read only
  // after that call_once returned, which sequences the write before every
  // read — a publication pattern the thread-safety analysis cannot
  // express with GUARDED_BY (there is no mutex) but TSan verifies
  // dynamically (session_test builds artifacts from 8 racing sessions).
  mutable std::once_flag components_once_;
  mutable ComponentLabeling components_;

  mutable std::once_flag component_subgraphs_once_;
  mutable std::vector<InducedSubgraph> component_subgraphs_;

  mutable std::once_flag core_bound_once_;
  mutable size_t max_uniform_core_ = 0;

  // Epoch chain history; written only between construction and
  // publication (ApplyUpdates), immutable afterwards.
  UpdateLineage lineage_;

  BuildCounters counters_;
};

}  // namespace kbiplex

#endif  // KBIPLEX_API_PREPARED_GRAPH_H_
