// Connected-component decomposition of a bipartite graph. The shard plan
// (api/parallel_driver.h) splits the traversal-family backends by
// component: each shard enumerates one component's induced subgraph, so
// the decomposition returns InducedSubgraph values whose id maps translate
// shard solutions back to the parent graph.
#ifndef KBIPLEX_GRAPH_COMPONENTS_H_
#define KBIPLEX_GRAPH_COMPONENTS_H_

#include <vector>

#include "graph/bipartite_graph.h"

namespace kbiplex {

/// Per-vertex connected-component labels — the cheap O(V + E) pre-pass.
/// Callers that may not need the materialized subgraphs (e.g. the shard
/// plan bailing out on single-component graphs) inspect the labeling and
/// its per-component side sizes first and only pay for
/// ConnectedComponents() when sharding is worthwhile.
/// Components are numbered by their smallest (side, id) vertex.
struct ComponentLabeling {
  int num_components = 0;
  std::vector<int> left;           // component of each left vertex
  std::vector<int> right;          // component of each right vertex
  std::vector<size_t> left_size;   // left vertices of each component
  std::vector<size_t> right_size;  // right vertices of each component
};

ComponentLabeling LabelConnectedComponents(const BipartiteGraph& g);

/// Splits `g` into its connected components, each materialized as an
/// induced subgraph with ascending id maps back to `g`. Every vertex of
/// `g` appears in exactly one component; a vertex with no edges forms a
/// single-vertex component of its own. Components are ordered by their
/// smallest (side, id) vertex, and within each component the id maps are
/// sorted ascending, so compact-id solutions translate back to parent ids
/// without re-sorting.
/// O(V + E) in total, whatever the number of components.
std::vector<InducedSubgraph> ConnectedComponents(const BipartiteGraph& g);

/// Same, from a labeling of `g` computed earlier; the result is
/// index-aligned with its component numbers.
std::vector<InducedSubgraph> ConnectedComponents(
    const BipartiteGraph& g, const ComponentLabeling& labels);

}  // namespace kbiplex

#endif  // KBIPLEX_GRAPH_COMPONENTS_H_
