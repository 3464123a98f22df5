#include "api/prepared_graph.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

#include "util/json.h"
#include "util/timer.h"

namespace kbiplex {
namespace {

/// Largest a with a non-empty (a,a)-core: the bipartite graph's
/// degeneracy, since the (a,a)-core is the a-core of the underlying
/// general graph. One Batagelj–Zaversnik peel over the joint vertex ids
/// (left v -> v, right u -> |L| + u): `vert` holds the vertices sorted by
/// current degree, `bin[d]` the first position of degree d in it and
/// `pos` each vertex's position, so a neighbor's degree drops by swapping
/// it to the front of its bin. The bound is the largest degree a vertex
/// has when it is peeled. O(|V| + |E|) over flat `Id` arrays, against
/// O(degeneracy * (|V| + |E|)) for repeated core peels.
template <typename Id>
size_t PeelDegeneracy(const BipartiteGraph& g) {
  const size_t nl = g.NumLeft();
  const size_t n = g.NumVertices();
  std::vector<Id> deg(n);
  size_t max_degree = 0;
  for (size_t v = 0; v < n; ++v) {
    deg[v] = static_cast<Id>(
        v < nl ? g.LeftDegree(static_cast<VertexId>(v))
               : g.RightDegree(static_cast<VertexId>(v - nl)));
    max_degree = std::max<size_t>(max_degree, deg[v]);
  }
  std::vector<Id> bin(max_degree + 1, 0);
  for (size_t v = 0; v < n; ++v) ++bin[deg[v]];
  Id start = 0;
  for (Id& b : bin) start = static_cast<Id>(start + std::exchange(b, start));
  std::vector<Id> pos(n);
  std::vector<Id> vert(n);
  for (size_t v = 0; v < n; ++v) {
    pos[v] = bin[deg[v]]++;
    vert[pos[v]] = static_cast<Id>(v);
  }
  // bin[d] now holds the end of degree d's run; shift back to its start.
  for (size_t d = max_degree; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  size_t degeneracy = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t v = vert[i];
    const Id dv = deg[v];
    degeneracy = std::max<size_t>(degeneracy, dv);
    const bool is_left = v < nl;
    for (VertexId x : is_left
                          ? g.LeftNeighbors(static_cast<VertexId>(v))
                          : g.RightNeighbors(static_cast<VertexId>(v - nl))) {
      const size_t w = is_left ? nl + size_t{x} : size_t{x};
      // Peeled vertices have degree <= dv, so only live ones move.
      if (deg[w] <= dv) continue;
      const Id dw = deg[w];
      const Id pw = pos[w];
      const Id front = bin[dw];
      const Id u = vert[front];
      if (u != w) {
        pos[u] = pw;
        vert[pw] = u;
        pos[w] = front;
        vert[front] = static_cast<Id>(w);
      }
      ++bin[dw];
      --deg[w];
    }
  }
  return degeneracy;
}

size_t ComputeMaxUniformCore(const BipartiteGraph& g) {
  if (g.NumEdges() == 0) return 0;
  // 32-bit arrays halve the peel's memory traffic; they hold every joint
  // id while |L| + |R| fits.
  return g.NumVertices() <= UINT32_MAX ? PeelDegeneracy<uint32_t>(g)
                                       : PeelDegeneracy<size_t>(g);
}

}  // namespace

std::shared_ptr<const PreparedGraph> PreparedGraph::Prepare(BipartiteGraph g) {
  return std::shared_ptr<const PreparedGraph>(new PreparedGraph(std::move(g)));
}

std::shared_ptr<const PreparedGraph> PreparedGraph::Borrow(
    const BipartiteGraph& g) {
  return std::shared_ptr<const PreparedGraph>(new PreparedGraph(&g));
}

PreparedGraph::PreparedGraph(BipartiteGraph g)
    : owned_(std::make_unique<BipartiteGraph>(std::move(g))),
      graph_(owned_.get()) {}

PreparedGraph::PreparedGraph(const BipartiteGraph* view) : graph_(view) {}

const ComponentLabeling& PreparedGraph::Components() const {
  std::call_once(components_once_, [this] {
    WallTimer timer;
    components_ = LabelConnectedComponents(*graph_);
    counters_.Count(&PrepareArtifactStats::component_builds,
                    timer.ElapsedSeconds());
  });
  return components_;
}

const std::vector<InducedSubgraph>& PreparedGraph::ComponentSubgraphs()
    const {
  std::call_once(component_subgraphs_once_, [this] {
    // Built from the cached labeling, so the result is index-aligned with
    // Components() by construction.
    const ComponentLabeling& labels = Components();
    WallTimer timer;
    component_subgraphs_ = ConnectedComponents(*graph_, labels);
    counters_.Count(&PrepareArtifactStats::component_subgraph_builds,
                    timer.ElapsedSeconds());
  });
  return component_subgraphs_;
}

size_t PreparedGraph::MaxUniformCore() const {
  std::call_once(core_bound_once_, [this] {
    WallTimer timer;
    max_uniform_core_ = ComputeMaxUniformCore(*graph_);
    counters_.Count(&PrepareArtifactStats::core_bound_builds,
                    timer.ElapsedSeconds());
  });
  return max_uniform_core_;
}

void PreparedGraph::Warmup() const {
  Components();
  MaxUniformCore();
}

PrepareArtifactStats PreparedGraph::artifact_stats() const {
  return counters_.Snapshot();
}

std::string PrepareArtifactStats::ToJson() const {
  std::ostringstream os;
  os << "{\"component_builds\":" << component_builds
     << ",\"component_subgraph_builds\":" << component_subgraph_builds
     << ",\"core_bound_builds\":" << core_bound_builds
     << ",\"build_seconds\":";
  json::AppendDouble(os, build_seconds);
  os << ",\"adjacency_memory_bytes\":" << adjacency_memory_bytes << '}';
  return os.str();
}

std::string UpdateLineage::ToJson() const {
  std::ostringstream os;
  os << "{\"epoch\":" << epoch << ",\"updates_applied\":" << updates_applied
     << ",\"edges_inserted\":" << edges_inserted
     << ",\"edges_deleted\":" << edges_deleted
     << ",\"full_rebuilds\":" << full_rebuilds
     << ",\"artifacts_incremental\":" << artifacts_incremental
     << ",\"artifacts_rebuilt\":" << artifacts_rebuilt
     << ",\"apply_seconds\":";
  json::AppendDouble(os, apply_seconds);
  os << '}';
  return os.str();
}

}  // namespace kbiplex
