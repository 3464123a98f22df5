#include "update/incremental.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace kbiplex {
namespace update {
namespace {

using Edge = BipartiteGraph::Edge;

/// Largest degree on either side — a trivially sound upper bound on the
/// degeneracy, used to clamp the carried core bound after inserts.
size_t MaxDegree(const BipartiteGraph& g) {
  size_t m = 0;
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    m = std::max(m, g.LeftDegree(v));
  }
  for (VertexId u = 0; u < g.NumRight(); ++u) {
    m = std::max(m, g.RightDegree(u));
  }
  return m;
}

}  // namespace

ComponentLabeling IncrementalRelabel(const BipartiteGraph& new_graph,
                                     const ComponentLabeling& old,
                                     const std::vector<Edge>& insert,
                                     const std::vector<Edge>& erase) {
  const size_t nl = new_graph.NumLeft();
  const size_t nr = new_graph.NumRight();
  ComponentLabeling out;
  out.left.assign(nl, -1);
  out.right.assign(nr, -1);
  if (old.num_components == 0) return out;  // empty vertex sets

  // Union-find over the old component ids; every inserted edge merges the
  // two old components of its endpoints.
  std::vector<int> parent(old.num_components);
  for (int i = 0; i < old.num_components; ++i) parent[i] = i;
  const auto find = [&parent](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : insert) {
    const int a = find(old.left[e.first]);
    const int b = find(old.right[e.second]);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }

  // Deletes may split a component; mark the merged root of every deleted
  // endpoint dirty. Clean vertices keep their merged root as a
  // provisional label; dirty vertices are relabeled by BFS on the new
  // graph. The BFS cannot reach a clean vertex: a surviving old edge
  // keeps both endpoints in one old component (same merged root, same
  // dirtiness), and an inserted edge was just unioned.
  std::vector<char> dirty(old.num_components, 0);
  for (const Edge& e : erase) {
    dirty[find(old.left[e.first])] = 1;
    dirty[find(old.right[e.second])] = 1;
  }
  for (VertexId l = 0; l < nl; ++l) {
    const int root = find(old.left[l]);
    if (dirty[root] == 0) out.left[l] = root;
  }
  for (VertexId r = 0; r < nr; ++r) {
    const int root = find(old.right[r]);
    if (dirty[root] == 0) out.right[r] = root;
  }
  int next_label = old.num_components;  // provisional ids above old roots
  std::vector<std::pair<Side, VertexId>> frontier;
  const auto bfs_from = [&](Side side, VertexId seed) {
    const int comp = next_label++;
    (side == Side::kLeft ? out.left : out.right)[seed] = comp;
    frontier.assign(1, {side, seed});
    while (!frontier.empty()) {
      auto [s, v] = frontier.back();
      frontier.pop_back();
      for (VertexId u : new_graph.Neighbors(s, v)) {
        std::vector<int>& marks = s == Side::kLeft ? out.right : out.left;
        if (marks[u] != -1) continue;
        marks[u] = comp;
        frontier.emplace_back(Opposite(s), u);
      }
    }
  };
  for (VertexId l = 0; l < nl; ++l) {
    if (out.left[l] == -1) bfs_from(Side::kLeft, l);
  }
  for (VertexId r = 0; r < nr; ++r) {
    if (out.right[r] == -1) bfs_from(Side::kRight, r);
  }

  // Canonical renumber: first appearance in the left-then-right scan is
  // the order LabelConnectedComponents seeds its BFS, so the final
  // numbering matches a from-scratch labeling exactly.
  std::vector<int> canon(next_label, -1);
  for (VertexId l = 0; l < nl; ++l) {
    int& c = canon[out.left[l]];
    if (c < 0) c = out.num_components++;
    out.left[l] = c;
  }
  for (VertexId r = 0; r < nr; ++r) {
    int& c = canon[out.right[r]];
    if (c < 0) c = out.num_components++;
    out.right[r] = c;
  }
  return out;
}

/// Friend of PreparedGraph: builds successor epochs through the private
/// constructor, stamping the lineage and pre-populating the carried
/// artifacts via their call_once flags before the instance is published.
struct EpochBuilder {
  static UpdateResult Apply(const PreparedGraph& old, const UpdateBatch& batch,
                            const UpdateOptions& options) {
    WallTimer timer;
    UpdateResult out;
    if (old.borrowed()) {
      out.error = "cannot update a borrowed graph";
      return out;
    }
    NormalizedDelta delta;
    if (std::string err = batch.Normalize(old.graph(), &delta);
        !err.empty()) {
      out.error = err;
      return out;
    }
    out.edges_inserted = delta.insert.size();
    out.edges_deleted = delta.erase.size();
    out.noop_inserts = delta.noop_inserts;
    out.noop_deletes = delta.noop_deletes;

    UpdateLineage lineage = old.lineage_;
    lineage.epoch += 1;
    lineage.updates_applied += 1;
    lineage.edges_inserted += delta.insert.size();
    lineage.edges_deleted += delta.erase.size();

    const double fraction =
        static_cast<double>(delta.size()) /
        static_cast<double>(std::max<size_t>(1, old.graph().NumEdges()));
    const bool rebuild =
        options.force_rebuild || fraction > options.max_delta_fraction;

    std::shared_ptr<PreparedGraph> next(new PreparedGraph(
        old.graph().WithEdgeDelta(delta.insert, delta.erase), old.options_));

    const bool old_components =
        old.components_built_.load(std::memory_order_acquire);
    const bool old_core =
        old.core_bound_built_.load(std::memory_order_acquire);

    if (rebuild) {
      // Past the staleness threshold: every artifact the predecessor had
      // built is invalidated and rebuilds from scratch (lazily, exactly
      // like a fresh Prepare).
      lineage.full_rebuilds += 1;
      lineage.artifacts_rebuilt += (old_components ? 1 : 0) +
                                   (old_core ? 1 : 0);
      out.rebuilt = true;
    } else {
      if (old_components) {
        std::call_once(next->components_once_, [&] {
          WallTimer t;
          next->components_ = IncrementalRelabel(next->graph(), old.components_,
                                                 delta.insert, delta.erase);
          next->counters_.Count(&PrepareArtifactStats::component_builds,
                                t.ElapsedSeconds());
          next->components_built_.store(true, std::memory_order_release);
        });
        lineage.artifacts_incremental += 1;
      }
      if (old_core) {
        // Soundness, not exactness: the short-circuit only needs an upper
        // bound on the degeneracy. Deletes never raise it, each insert
        // raises it by at most one, and it never exceeds the maximum
        // degree — so the carried bound stays a valid upper bound and an
        // exact one returns at the next full rebuild.
        std::call_once(next->core_bound_once_, [&] {
          size_t bound = old.max_uniform_core_ + delta.insert.size();
          if (!delta.insert.empty()) {
            bound = std::min(bound, MaxDegree(next->graph()));
          }
          next->max_uniform_core_ = bound;
          next->core_bound_built_.store(true, std::memory_order_release);
        });
        lineage.artifacts_incremental += 1;
      }
    }

    out.seconds = timer.ElapsedSeconds();
    lineage.apply_seconds += out.seconds;
    next->lineage_ = lineage;
    out.prepared = std::move(next);
    return out;
  }
};

}  // namespace update

update::UpdateResult PreparedGraph::ApplyUpdates(
    const update::UpdateBatch& batch,
    const update::UpdateOptions& options) const {
  return update::EpochBuilder::Apply(*this, batch, options);
}

}  // namespace kbiplex
