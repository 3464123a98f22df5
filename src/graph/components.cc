#include "graph/components.h"

#include <utility>

namespace kbiplex {

ComponentLabeling LabelConnectedComponents(const BipartiteGraph& g) {
  const size_t nl = g.NumLeft();
  const size_t nr = g.NumRight();
  constexpr int kUnvisited = -1;
  ComponentLabeling out;
  out.left.assign(nl, kUnvisited);
  out.right.assign(nr, kUnvisited);

  // BFS over a worklist of side-tagged vertices. Seeding left vertices
  // first and right vertices after numbers components by their smallest
  // (side, id) vertex.
  std::vector<std::pair<Side, VertexId>> frontier;
  auto bfs_from = [&](Side side, VertexId seed) {
    const int comp = out.num_components++;
    (side == Side::kLeft ? out.left : out.right)[seed] = comp;
    frontier.assign(1, {side, seed});
    while (!frontier.empty()) {
      auto [s, v] = frontier.back();
      frontier.pop_back();
      for (VertexId u : g.Neighbors(s, v)) {
        std::vector<int>& marks = s == Side::kLeft ? out.right : out.left;
        if (marks[u] != kUnvisited) continue;
        marks[u] = comp;
        frontier.emplace_back(Opposite(s), u);
      }
    }
  };
  for (VertexId l = 0; l < nl; ++l) {
    if (out.left[l] == kUnvisited) bfs_from(Side::kLeft, l);
  }
  for (VertexId r = 0; r < nr; ++r) {
    if (out.right[r] == kUnvisited) bfs_from(Side::kRight, r);
  }
  out.left_size.assign(out.num_components, 0);
  out.right_size.assign(out.num_components, 0);
  for (int c : out.left) ++out.left_size[c];
  for (int c : out.right) ++out.right_size[c];
  return out;
}

std::vector<InducedSubgraph> ConnectedComponents(const BipartiteGraph& g) {
  return ConnectedComponents(g, LabelConnectedComponents(g));
}

std::vector<InducedSubgraph> ConnectedComponents(
    const BipartiteGraph& g, const ComponentLabeling& labels) {
  std::vector<InducedSubgraph> out(labels.num_components);
  for (int c = 0; c < labels.num_components; ++c) {
    out[c].left_map.reserve(labels.left_size[c]);
    out[c].right_map.reserve(labels.right_size[c]);
  }
  for (VertexId l = 0; l < g.NumLeft(); ++l) {
    out[labels.left[l]].left_map.push_back(l);  // ascending: maps stay sorted
  }
  // One compact-id map shared by every component: a right vertex's compact
  // id is its rank within its own component, and components are disjoint,
  // so no entry is ever overwritten or needs clearing.
  std::vector<VertexId> right_compact(g.NumRight());
  for (VertexId r = 0; r < g.NumRight(); ++r) {
    std::vector<VertexId>& map = out[labels.right[r]].right_map;
    right_compact[r] = static_cast<VertexId>(map.size());
    map.push_back(r);
  }

  // Every neighbor of a component's left vertex lies in the component.
  std::vector<BipartiteGraph::Edge> edges;
  for (InducedSubgraph& sub : out) {
    edges.clear();
    for (size_t i = 0; i < sub.left_map.size(); ++i) {
      for (VertexId r : g.LeftNeighbors(sub.left_map[i])) {
        edges.emplace_back(static_cast<VertexId>(i), right_compact[r]);
      }
    }
    sub.graph = BipartiteGraph::FromEdges(sub.left_map.size(),
                                          sub.right_map.size(), edges);
  }
  return out;
}

}  // namespace kbiplex
