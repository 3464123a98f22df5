#include "graph/bipartite_graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace kbiplex {

namespace {

/// Turns per-row counts (row i's count in offsets[i], offsets.back() unused)
/// into row ends: offsets[i] becomes the end of row i and offsets.back()
/// the total. Writing a row's entries through `offsets[i]--` afterwards
/// leaves offsets[i] at the row's start, so no separate cursor array is
/// needed.
void CountsToRowEnds(std::vector<size_t>& offsets) {
  size_t total = 0;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    total += offsets[i];
    offsets[i] = total;
  }
  offsets.back() = total;
}

}  // namespace

BipartiteGraph BipartiteGraph::FromEdges(size_t num_left, size_t num_right,
                                         std::vector<Edge> edges) {
  BipartiteGraph g;
  // Left rows: count (and range-check) every edge, scatter the right ids
  // into their rows, then sort and deduplicate each short row in place.
  g.left_offsets_.assign(num_left + 1, 0);
  for (const auto& [l, r] : edges) {
    if (l >= num_left || r >= num_right) {
      throw std::out_of_range(
          "BipartiteGraph::FromEdges: edge (" + std::to_string(l) + ", " +
          std::to_string(r) + ") outside a " + std::to_string(num_left) +
          " x " + std::to_string(num_right) + " graph");
    }
    ++g.left_offsets_[l];
  }
  CountsToRowEnds(g.left_offsets_);
  // Rows fill from their ends, so scanning the edges backwards keeps each
  // row in input order: an input sorted by (left, right) sorts for free.
  g.left_neighbors_.resize(edges.size());
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    g.left_neighbors_[--g.left_offsets_[it->first]] = it->second;
  }
  std::vector<Edge>().swap(edges);
  // Compact the deduplicated rows leftwards; row l's old bounds are read
  // before offsets[l] is rewritten to its new start.
  const auto nb = g.left_neighbors_.begin();
  size_t out = 0;
  for (size_t l = 0; l < num_left; ++l) {
    const auto first = nb + static_cast<ptrdiff_t>(g.left_offsets_[l]);
    const auto last = nb + static_cast<ptrdiff_t>(g.left_offsets_[l + 1]);
    std::sort(first, last);
    const auto row_end = std::unique(first, last);
    g.left_offsets_[l] = out;
    out = static_cast<size_t>(
        std::move(first, row_end, nb + static_cast<ptrdiff_t>(out)) - nb);
  }
  g.left_offsets_[num_left] = out;
  if (out != g.left_neighbors_.size()) {
    g.left_neighbors_.resize(out);
    g.left_neighbors_.shrink_to_fit();
  }

  // Right rows: walking the left rows from the highest id down and
  // filling each right row from its end leaves every right row sorted.
  g.right_offsets_.assign(num_right + 1, 0);
  for (VertexId r : g.left_neighbors_) ++g.right_offsets_[r];
  CountsToRowEnds(g.right_offsets_);
  g.right_neighbors_.resize(out);
  for (size_t l = num_left; l-- > 0;) {
    for (size_t i = g.left_offsets_[l + 1]; i-- > g.left_offsets_[l];) {
      g.right_neighbors_[--g.right_offsets_[g.left_neighbors_[i]]] =
          static_cast<VertexId>(l);
    }
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
  // the O(|V| + |E|) a FromEdges rebuild would pay.
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
