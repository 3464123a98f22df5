// Edge-list text I/O for bipartite graphs (KONECT-style format).
//
// Format accepted by Load():
//   - lines starting with '%' or '#' are comments;
//   - a data line is "l r [extra...]": an edge between left vertex l and
//     right vertex r (0-based); trailing columns (KONECT weights or
//     timestamps) are ignored. Ids are strict non-negative integers.
//   - an optional header "L R M" declares the side sizes and edge count.
//     A three-column first data line is a header claim: when the later
//     lines are all two-column, the claim is validated loudly (M must
//     equal the number of edge lines — raw or distinct, duplicates are
//     collapsed — and every id must be < L / R); when later lines carry
//     extra columns, the header is accepted if it validates, the parse
//     fails if only the edge count is off (both readings are suspect),
//     and the first line is an edge like the others if the ids do not
//     respect the declared sizes. A lone three-column line is a header
//     only when it declares M = 0; with M > 0 it is ambiguous with a
//     truncated file and fails. A header may declare at most
//     kMaxDeclaredIsolatedVertices vertices per side beyond the largest id
//     + 1 on that side. Without a header the side sizes are inferred as
//     max id + 1, and a side may exceed the edge count by at most
//     kMaxDeclaredIsolatedVertices.
#ifndef KBIPLEX_GRAPH_GRAPH_IO_H_
#define KBIPLEX_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <optional>
#include <string>

#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Result of a fallible I/O operation: a graph or an error message.
struct LoadResult {
  std::optional<BipartiteGraph> graph;
  std::string error;  // non-empty iff !graph

  bool ok() const { return graph.has_value(); }
};

/// Most isolated vertices a header may declare on one side: an "L R M"
/// header whose L (or R) exceeds the largest left (right) id + 1 by more
/// than this fails to parse before anything is allocated, so a few bytes
/// of header cannot demand gigabytes of offset arrays. A headerless list
/// whose inferred side size (largest id + 1) exceeds its edge count by
/// more than this fails the same way. Isolated vertices
/// beyond the largest id only exist through the header, and no
/// enumeration result depends on them.
inline constexpr uint64_t kMaxDeclaredIsolatedVertices = uint64_t{1} << 24;

/// Default read-chunk size of the streaming loader.
inline constexpr size_t kDefaultLoadChunkBytes = size_t{1} << 20;

/// Loads an edge-list file with a bounded-memory streaming reader: the
/// file is consumed in `chunk_bytes` reads with at most one partial line
/// carried between chunks, so peak memory is O(edges * sizeof(Edge) +
/// chunk + longest line) — the file text is never materialized whole.
/// `chunk_bytes` exists for tests that pin chunk-boundary behavior; any
/// value >= 1 parses identically.
LoadResult LoadEdgeList(const std::string& path,
                        size_t chunk_bytes = kDefaultLoadChunkBytes);

/// Parses an edge list from a string (same format and single-pass parser
/// as LoadEdgeList).
LoadResult ParseEdgeList(const std::string& text);

/// Writes `g` as an edge-list file with a "L R M" header line.
/// Returns an empty string on success, an error message otherwise.
std::string SaveEdgeList(const BipartiteGraph& g, const std::string& path);

/// Serializes `g` into the edge-list text format.
std::string ToEdgeListString(const BipartiteGraph& g);

}  // namespace kbiplex

#endif  // KBIPLEX_GRAPH_GRAPH_IO_H_
