#include "api/prepared_graph.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/json.h"
#include "util/timer.h"

namespace kbiplex {
namespace {

/// Largest a with a non-empty (a,a)-core, via one joint min-degree peel
/// over both sides (the bipartite graph's degeneracy: the (a,a)-core is
/// the a-core of the underlying general graph, so the bound equals the
/// maximum residual degree observed at removal time). O(|V| + |E|) with a
/// lazily-cleaned bucket queue, against O(degeneracy * (|V| + |E|)) for
/// repeated core peels.
size_t ComputeMaxUniformCore(const BipartiteGraph& g) {
  const size_t nl = g.NumLeft();
  const size_t n = nl + g.NumRight();
  if (g.NumEdges() == 0) return 0;
  // Joint vertex ids: left v -> v, right u -> nl + u.
  std::vector<size_t> deg(n);
  size_t max_degree = 0;
  for (size_t v = 0; v < nl; ++v) {
    deg[v] = g.LeftDegree(static_cast<VertexId>(v));
    max_degree = std::max(max_degree, deg[v]);
  }
  for (size_t u = nl; u < n; ++u) {
    deg[u] = g.RightDegree(static_cast<VertexId>(u - nl));
    max_degree = std::max(max_degree, deg[u]);
  }
  std::vector<std::vector<size_t>> buckets(max_degree + 1);
  for (size_t v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<char> removed(n, 0);
  size_t degeneracy = 0;
  size_t cur = 0;
  for (size_t peeled = 0; peeled < n;) {
    if (cur > max_degree) break;  // only stale entries were left
    if (buckets[cur].empty()) {
      ++cur;
      continue;
    }
    const size_t v = buckets[cur].back();
    buckets[cur].pop_back();
    if (removed[v] != 0 || deg[v] != cur) continue;  // stale entry
    removed[v] = 1;
    ++peeled;
    degeneracy = std::max(degeneracy, cur);
    const bool is_left = v < nl;
    for (VertexId w : is_left
                          ? g.LeftNeighbors(static_cast<VertexId>(v))
                          : g.RightNeighbors(static_cast<VertexId>(v - nl))) {
      const size_t wi = is_left ? nl + static_cast<size_t>(w)
                                : static_cast<size_t>(w);
      if (removed[wi] != 0) continue;
      buckets[--deg[wi]].push_back(wi);
      cur = std::min(cur, deg[wi]);
    }
  }
  return degeneracy;
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
