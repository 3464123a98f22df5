// Hybrid adjacency acceleration structure: per-vertex rows over the
// opposite side for high-degree vertices (fast membership tests) while
// low-degree vertices keep using the graph's sorted CSR spans (O(log d)
// binary search). The enumeration hot paths issue millions of adjacency
// tests per second; on dense graphs the binary searches dominate the
// profile, and a row over the opposite side turns each test into one
// shift-and-mask (dense rows) or a short search over a compact array
// (sparse rows).
//
// Rows are only built for vertices whose degree reaches a threshold, and
// each row picks one of two roaring-style containers:
//
//   - dense: a bitset of ceil(|opposite|/64) words — O(1) tests, SIMD
//     gather/popcount connection counts;
//   - sparse: the sorted neighbor ids as a uint32 array — O(log d) tests,
//     merge-based counts, but only (1 + degree) * 4 bytes.
//
// With no memory budget every row is dense (the fastest layout, identical
// to the pre-compression behavior). A non-zero `memory_budget_bytes`
// bounds the whole row pool: rows are demoted dense -> sparse by largest
// byte savings first, then dropped entirely (smallest degree first, those
// rows fall back to CSR search) until the pool fits. The index is
// immutable after construction and safe to share across threads.
#ifndef KBIPLEX_GRAPH_ADJACENCY_INDEX_H_
#define KBIPLEX_GRAPH_ADJACENCY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/common.h"
#include "util/simd.h"

namespace kbiplex {

class BipartiteGraph;

/// Per-row hybrid (dense bitset / sparse sorted-array) adjacency rows for
/// the dense vertices of a graph, bounded by an optional memory budget.
class AdjacencyIndex {
 public:
  /// Sentinel threshold: pick the threshold automatically (at least
  /// kMinAutoDegree, at least the average degree of the graph).
  static constexpr size_t kAutoThreshold = 0;

  /// Minimum degree the auto heuristic ever uses: below this a binary
  /// search over the adjacency list is already cheap.
  static constexpr size_t kMinAutoDegree = 16;

  /// Sentinel budget: no limit, every row dense.
  static constexpr size_t kNoBudget = 0;

  /// Builds rows for every vertex with degree >= `min_degree` on either
  /// side. `min_degree` = kAutoThreshold selects a heuristic threshold;
  /// `memory_budget_bytes` = kNoBudget keeps every row dense, any other
  /// value bounds the total container bytes (see the file comment).
  explicit AdjacencyIndex(const BipartiteGraph& g,
                          size_t min_degree = kAutoThreshold,
                          size_t memory_budget_bytes = kNoBudget);

  /// Incremental rebuild against a small edge delta: plans rows for `g`
  /// exactly like the primary constructor (with `prev`'s resolved
  /// threshold and budget, so the plan stays deterministic across
  /// epochs), but copies container bytes straight out of `prev` for every
  /// row whose vertex is in neither changed set and whose planned
  /// representation matches the previous build; only rows of
  /// `changed_left` / `changed_right` (sorted ids whose neighbor sets
  /// differ between the graphs) and rows the budget planner moved between
  /// representations are filled from `g`'s adjacency. `g` must have the
  /// same vertex counts as the graph `prev` was built from — the update
  /// subsystem only changes edges, never the vertex sets.
  AdjacencyIndex(const BipartiteGraph& g, const AdjacencyIndex& prev,
                 const std::vector<VertexId>& changed_left,
                 const std::vector<VertexId>& changed_right);

  /// True iff vertex `v` of side `side` has a row (of either container).
  bool HasRow(Side side, VertexId v) const {
    const auto& starts = row_start_[SideIndex(side)];
    return v < starts.size() && starts[v] != kNoRow;
  }

  /// Adjacency test through the row of `v` (side `side`) against vertex
  /// `u` of the opposite side. Requires HasRow(side, v).
  bool TestRow(Side side, VertexId v, VertexId u) const {
    const size_t start = row_start_[SideIndex(side)][v];
    if (start & kSparseTag) {
      return TestSparseRow(start & ~kSparseTag, u);
    }
    const uint64_t word = words_[start + (static_cast<size_t>(u) >> 6)];
    return (word >> (u & 63)) & 1ULL;
  }

  /// Number of vertices of `subset` (sorted ids of the opposite side)
  /// adjacent to `v`. Requires HasRow(side, v); O(|subset|) on dense rows
  /// (SIMD gather/popcount), merge over the two sorted arrays on sparse
  /// rows.
  size_t RowConnCount(Side side, VertexId v,
                      const std::vector<VertexId>& subset) const {
    const size_t start = row_start_[SideIndex(side)][v];
    if (start & kSparseTag) {
      return SparseRowConnCount(start & ~kSparseTag, subset);
    }
    return kernels_->row_conn_count(words_.data() + start, subset.data(),
                                    subset.size());
  }

  /// The threshold actually used (resolved from kAutoThreshold).
  size_t min_degree() const { return min_degree_; }

  /// The budget the build was given (kNoBudget = unlimited); preserved so
  /// derived graphs (Induce, Transposed, renumber) rebuild like for like.
  size_t memory_budget_bytes() const { return memory_budget_bytes_; }

  /// Rows built on a side (both containers).
  size_t NumRows(Side side) const { return num_rows_[SideIndex(side)]; }

  /// Bytes held by the row containers (dense words + sparse arrays).
  size_t MemoryBytes() const {
    return words_.size() * sizeof(uint64_t) +
           sparse_pool_.size() * sizeof(uint32_t);
  }

  /// Per-representation build outcome, for observability and the budget
  /// tests: how many rows landed in each container, their bytes, and how
  /// many qualifying rows the budget forced out entirely.
  struct RepresentationStats {
    size_t dense_rows = 0;
    size_t sparse_rows = 0;
    size_t dropped_rows = 0;  // qualifying rows omitted to fit the budget
    size_t dense_bytes = 0;
    size_t sparse_bytes = 0;

    size_t total_bytes() const { return dense_bytes + sparse_bytes; }
  };
  const RepresentationStats& representation_stats() const { return stats_; }

 private:
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  /// High bit of a row_start_ entry: the offset addresses sparse_pool_
  /// (count-prefixed id array) instead of words_. kNoRow has every bit
  /// set and never collides with a real tagged offset.
  static constexpr size_t kSparseTag = static_cast<size_t>(1)
                                       << (sizeof(size_t) * 8 - 1);

  /// Shared build: plan (qualify + budget) and fill. `prev` non-null
  /// activates the copy-unchanged-rows fast path of the incremental
  /// constructor; `changed[side]` then flags the vertices whose rows must
  /// be refilled from `g`.
  void Build(const BipartiteGraph& g, const AdjacencyIndex* prev,
             const std::vector<char>* changed);

  bool TestSparseRow(size_t offset, VertexId u) const;
  size_t SparseRowConnCount(size_t offset,
                            const std::vector<VertexId>& subset) const;

  size_t min_degree_ = 0;
  size_t memory_budget_bytes_ = kNoBudget;
  size_t num_rows_[2] = {0, 0};
  RepresentationStats stats_;
  // Offset of v's row, tagged with kSparseTag for sparse rows, or kNoRow.
  // Dense rows on side s span ceil(|opposite side|/64) words of words_;
  // sparse rows are [count, id...] runs in sparse_pool_.
  std::vector<size_t> row_start_[2];
  std::vector<uint64_t> words_;
  std::vector<uint32_t> sparse_pool_;
  // SIMD kernel table resolved once at build (see util/simd.h).
  const simd::Kernels* kernels_;
};

/// δ(v, subset) through `index` when it has a row for `v`, falling back to
/// the graph's merge/binary-search counting otherwise. `index` may be null.
size_t AcceleratedConnCount(const AdjacencyIndex* index,
                            const BipartiteGraph& g, Side side, VertexId v,
                            const std::vector<VertexId>& subset);

/// Adjacency test between `v` (side `side`) and `u` (opposite side)
/// through the rows of `index` when either endpoint has one, falling back
/// to the graph's CSR binary search. `index` may be null. The single
/// dispatch every accelerated edge test goes through (defined inline in
/// bipartite_graph.h, which every caller includes).
bool AcceleratedIsAdjacent(const AdjacencyIndex* index,
                           const BipartiteGraph& g, Side side, VertexId v,
                           VertexId u);

}  // namespace kbiplex

#endif  // KBIPLEX_GRAPH_ADJACENCY_INDEX_H_
