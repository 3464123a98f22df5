// Immutable CSR bipartite graph: the substrate every algorithm in this
// library operates on. Left and right vertices use independent id spaces
// [0, NumLeft()) and [0, NumRight()); adjacency lists are sorted so that
// membership tests are O(log degree) and set operations are mergeable.
#ifndef KBIPLEX_GRAPH_BIPARTITE_GRAPH_H_
#define KBIPLEX_GRAPH_BIPARTITE_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/common.h"

namespace kbiplex {

/// An undirected, unweighted bipartite graph G = (L ∪ R, E) in CSR form.
/// Instances are immutable after construction; copy/move are cheap enough
/// for the test workloads and explicit everywhere else.
class BipartiteGraph {
 public:
  using Edge = std::pair<VertexId, VertexId>;  // (left id, right id)

  /// Empty graph.
  BipartiteGraph() = default;

  /// Builds a graph with `num_left` / `num_right` vertices from an edge
  /// list in any order. Duplicate edges are collapsed. An edge referencing
  /// an out-of-range vertex throws std::out_of_range in every build type.
  /// O(|V| + |E| + Σ d·log d) over the left degrees d: a counting sort
  /// buckets the edges by left id, each left row is sorted on its own, and
  /// the right rows come out sorted from one sweep over the left rows. The
  /// edge vector is released before the right rows are allocated.
  static BipartiteGraph FromEdges(size_t num_left, size_t num_right,
                                  std::vector<Edge> edges);

  size_t NumLeft() const { return left_offsets_.empty() ? 0 : left_offsets_.size() - 1; }
  size_t NumRight() const { return right_offsets_.empty() ? 0 : right_offsets_.size() - 1; }
  size_t NumEdges() const { return left_neighbors_.size(); }
  size_t NumVertices() const { return NumLeft() + NumRight(); }

  /// Sorted right-neighbors of left vertex `v`.
  std::span<const VertexId> LeftNeighbors(VertexId v) const {
    return {left_neighbors_.data() + left_offsets_[v],
            left_neighbors_.data() + left_offsets_[v + 1]};
  }

  /// Sorted left-neighbors of right vertex `u`.
  std::span<const VertexId> RightNeighbors(VertexId u) const {
    return {right_neighbors_.data() + right_offsets_[u],
            right_neighbors_.data() + right_offsets_[u + 1]};
  }

  /// Sorted neighbors of `v` on side `side`.
  std::span<const VertexId> Neighbors(Side side, VertexId v) const {
    return side == Side::kLeft ? LeftNeighbors(v) : RightNeighbors(v);
  }

  size_t LeftDegree(VertexId v) const {
    return left_offsets_[v + 1] - left_offsets_[v];
  }
  size_t RightDegree(VertexId u) const {
    return right_offsets_[u + 1] - right_offsets_[u];
  }
  size_t Degree(Side side, VertexId v) const {
    return side == Side::kLeft ? LeftDegree(v) : RightDegree(v);
  }

  /// Number of vertices on a side.
  size_t NumOnSide(Side side) const {
    return side == Side::kLeft ? NumLeft() : NumRight();
  }

  /// True iff the edge (l, r) exists.
  bool HasEdge(VertexId l, VertexId r) const;

  /// Adjacency test between `v` on side `side` and `u` on the opposite
  /// side: HasEdge with the endpoints put in (left, right) order.
  bool IsAdjacent(Side side, VertexId v, VertexId u) const {
    return side == Side::kLeft ? HasEdge(v, u) : HasEdge(u, v);
  }

  /// Edge density as defined by the paper: |E| / (|L| + |R|).
  double EdgeDensity() const {
    size_t n = NumVertices();
    return n == 0 ? 0.0 : static_cast<double>(NumEdges()) / static_cast<double>(n);
  }

  /// Materializes the edge list (sorted by (left, right)).
  std::vector<Edge> Edges() const;

  /// Returns a copy of the graph with `insert` added and `erase` removed,
  /// splicing the CSR arrays directly in O(|V| + |E| + delta) — no
  /// FromEdges rebuild. Contract (update::UpdateBatch::Normalize
  /// establishes it): both lists are sorted by (left, right) and
  /// duplicate-free, every insert edge is absent from the graph, every
  /// erase edge is present, and the two lists are disjoint.
  BipartiteGraph WithEdgeDelta(const std::vector<Edge>& insert,
                               const std::vector<Edge>& erase) const;

  /// Returns the graph with the two sides swapped (left becomes right).
  BipartiteGraph Transposed() const;

  /// Number of vertices v ∈ `subset` (of side opposite to `side`... see
  /// below) adjacent to `v`. Specifically: |Γ(v) ∩ subset| for vertex `v`
  /// on side `side`, where `subset` is a sorted id vector of the opposite
  /// side. This is the δ(v, S) primitive of the paper.
  size_t ConnCount(Side side, VertexId v,
                   const std::vector<VertexId>& subset) const;

  /// Calls fn(i, adjacent) for every index i of `subset`, in order, where
  /// `subset` is a sorted id vector of the side opposite to `side` and
  /// `adjacent` tells whether subset[i] ∈ Γ(v). Merges the two lists, or
  /// binary-searches Γ(v) when the subset is much smaller than it.
  template <typename Fn>
  void ForEachAdjacency(Side side, VertexId v,
                        const std::vector<VertexId>& subset, Fn&& fn) const {
    const std::span<const VertexId> nb = Neighbors(side, v);
    const bool search = subset.size() * 8 < nb.size();
    auto it = nb.begin();
    for (size_t i = 0; i < subset.size(); ++i) {
      if (search) {
        it = std::lower_bound(it, nb.end(), subset[i]);
      } else {
        while (it != nb.end() && *it < subset[i]) ++it;
      }
      fn(i, it != nb.end() && *it == subset[i]);
    }
  }

  /// δ̄(v, S) = |S| - δ(v, S): disconnections of `v` within `subset`.
  size_t DiscCount(Side side, VertexId v,
                   const std::vector<VertexId>& subset) const {
    return subset.size() - ConnCount(side, v, subset);
  }

 private:
  std::vector<size_t> left_offsets_;
  std::vector<VertexId> left_neighbors_;
  std::vector<size_t> right_offsets_;
  std::vector<VertexId> right_neighbors_;
};

/// An induced bipartite subgraph materialized with compacted ids, plus the
/// maps from compact ids back to the parent graph's ids.
struct InducedSubgraph {
  BipartiteGraph graph;
  std::vector<VertexId> left_map;   // compact left id -> parent left id
  std::vector<VertexId> right_map;  // compact right id -> parent right id
};

/// Materializes G[L ∪ R]. `left` and `right` must be sorted and in range.
InducedSubgraph Induce(const BipartiteGraph& g,
                       const std::vector<VertexId>& left,
                       const std::vector<VertexId>& right);

}  // namespace kbiplex

#endif  // KBIPLEX_GRAPH_BIPARTITE_GRAPH_H_
