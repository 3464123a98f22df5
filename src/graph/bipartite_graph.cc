#include "graph/bipartite_graph.h"

#include <algorithm>
#include <cassert>

namespace kbiplex {

BipartiteGraph BipartiteGraph::FromEdges(size_t num_left, size_t num_right,
                                         std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  BipartiteGraph g;
  g.left_offsets_.assign(num_left + 1, 0);
  g.right_offsets_.assign(num_right + 1, 0);
  for (const auto& [l, r] : edges) {
    assert(l < num_left && r < num_right);
    ++g.left_offsets_[l + 1];
    ++g.right_offsets_[r + 1];
  }
  for (size_t i = 1; i <= num_left; ++i) {
    g.left_offsets_[i] += g.left_offsets_[i - 1];
  }
  for (size_t i = 1; i <= num_right; ++i) {
    g.right_offsets_[i] += g.right_offsets_[i - 1];
  }
  g.left_neighbors_.resize(edges.size());
  g.right_neighbors_.resize(edges.size());
  std::vector<size_t> lpos(g.left_offsets_.begin(),
                           g.left_offsets_.end() - 1);
  std::vector<size_t> rpos(g.right_offsets_.begin(),
                           g.right_offsets_.end() - 1);
  for (const auto& [l, r] : edges) {
    g.left_neighbors_[lpos[l]++] = r;
    g.right_neighbors_[rpos[r]++] = l;
  }
  // Edges were sorted by (l, r), so each left adjacency list is sorted; the
  // right lists need sorting.
  for (size_t u = 0; u < num_right; ++u) {
    std::sort(g.right_neighbors_.begin() +
                  static_cast<ptrdiff_t>(g.right_offsets_[u]),
              g.right_neighbors_.begin() +
                  static_cast<ptrdiff_t>(g.right_offsets_[u + 1]));
  }
  return g;
}

bool BipartiteGraph::HasEdge(VertexId l, VertexId r) const {
  // Search the shorter adjacency list.
  if (LeftDegree(l) <= RightDegree(r)) {
    auto nb = LeftNeighbors(l);
    return std::binary_search(nb.begin(), nb.end(), r);
  }
  auto nb = RightNeighbors(r);
  return std::binary_search(nb.begin(), nb.end(), l);
}

std::vector<BipartiteGraph::Edge> BipartiteGraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(NumEdges());
  for (VertexId l = 0; l < NumLeft(); ++l) {
    for (VertexId r : LeftNeighbors(l)) out.emplace_back(l, r);
  }
  return out;
}

BipartiteGraph BipartiteGraph::WithEdgeDelta(
    const std::vector<Edge>& insert, const std::vector<Edge>& erase) const {
  const size_t nl = NumLeft();
  const size_t nr = NumRight();
  assert(NumEdges() + insert.size() >= erase.size());
  const size_t new_edges = NumEdges() + insert.size() - erase.size();

  BipartiteGraph g;
  // Left side: the delta lists are already sorted by (left, right), so one
  // forward sweep merges each old adjacency row with its inserted ids and
  // skips its erased ids.
  g.left_offsets_.assign(nl + 1, 0);
  g.left_neighbors_.reserve(new_edges);
  {
    size_t ii = 0;  // cursor into insert
    size_t ei = 0;  // cursor into erase
    for (VertexId l = 0; l < nl; ++l) {
      const auto nb = LeftNeighbors(l);
      size_t a = 0;
      while (a < nb.size() ||
             (ii < insert.size() && insert[ii].first == l)) {
        const bool has_ins = ii < insert.size() && insert[ii].first == l;
        if (a < nb.size() && (!has_ins || nb[a] < insert[ii].second)) {
          if (ei < erase.size() && erase[ei].first == l &&
              erase[ei].second == nb[a]) {
            ++ei;  // erased: drop the old neighbor
          } else {
            g.left_neighbors_.push_back(nb[a]);
          }
          ++a;
        } else {
          g.left_neighbors_.push_back(insert[ii++].second);
        }
      }
      g.left_offsets_[l + 1] = g.left_neighbors_.size();
    }
    assert(ii == insert.size() && ei == erase.size());
  }
  assert(g.left_neighbors_.size() == new_edges);

  // Right side: the same sweep over delta copies re-sorted by (right,
  // left) — the delta is small, so the sort is O(delta log delta) against
  // the O(|E| log |E|) a FromEdges rebuild would pay.
  const auto by_rl = [](const Edge& a, const Edge& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  };
  std::vector<Edge> rins = insert;
  std::vector<Edge> rera = erase;
  std::sort(rins.begin(), rins.end(), by_rl);
  std::sort(rera.begin(), rera.end(), by_rl);
  g.right_offsets_.assign(nr + 1, 0);
  g.right_neighbors_.reserve(new_edges);
  {
    size_t ii = 0;
    size_t ei = 0;
    for (VertexId r = 0; r < nr; ++r) {
      const auto nb = RightNeighbors(r);
      size_t a = 0;
      while (a < nb.size() || (ii < rins.size() && rins[ii].second == r)) {
        const bool has_ins = ii < rins.size() && rins[ii].second == r;
        if (a < nb.size() && (!has_ins || nb[a] < rins[ii].first)) {
          if (ei < rera.size() && rera[ei].second == r &&
              rera[ei].first == nb[a]) {
            ++ei;
          } else {
            g.right_neighbors_.push_back(nb[a]);
          }
          ++a;
        } else {
          g.right_neighbors_.push_back(rins[ii++].first);
        }
      }
      g.right_offsets_[r + 1] = g.right_neighbors_.size();
    }
    assert(ii == rins.size() && ei == rera.size());
  }
  return g;
}

BipartiteGraph BipartiteGraph::Transposed() const {
  BipartiteGraph g;
  g.left_offsets_ = right_offsets_;
  g.left_neighbors_ = right_neighbors_;
  g.right_offsets_ = left_offsets_;
  g.right_neighbors_ = left_neighbors_;
  return g;
}

size_t BipartiteGraph::ConnCount(Side side, VertexId v,
                                 const std::vector<VertexId>& subset) const {
  size_t n = 0;
  ForEachAdjacency(side, v, subset, [&](size_t, bool adjacent) {
    if (adjacent) ++n;
  });
  return n;
}

InducedSubgraph Induce(const BipartiteGraph& g,
                       const std::vector<VertexId>& left,
                       const std::vector<VertexId>& right) {
  InducedSubgraph out;
  out.left_map = left;
  out.right_map = right;
  std::vector<VertexId> right_compact(g.NumRight(), kInvalidVertex);
  for (size_t i = 0; i < right.size(); ++i) {
    right_compact[right[i]] = static_cast<VertexId>(i);
  }
  std::vector<BipartiteGraph::Edge> edges;
  for (size_t i = 0; i < left.size(); ++i) {
    for (VertexId r : g.LeftNeighbors(left[i])) {
      if (right_compact[r] != kInvalidVertex) {
        edges.emplace_back(static_cast<VertexId>(i), right_compact[r]);
      }
    }
  }
  out.graph =
      BipartiteGraph::FromEdges(left.size(), right.size(), std::move(edges));
  return out;
}

}  // namespace kbiplex
