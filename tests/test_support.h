// Shared helpers for the test suites.
#ifndef KBIPLEX_TESTS_TEST_SUPPORT_H_
#define KBIPLEX_TESTS_TEST_SUPPORT_H_

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/biplex.h"
#include "core/itraversal.h"
#include "core/large_mbp.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "util/random.h"

namespace kbiplex {
namespace testing_support {

/// Builds a bipartite graph from an initializer-friendly edge list.
inline BipartiteGraph MakeGraph(size_t nl, size_t nr,
                                std::vector<BipartiteGraph::Edge> edges) {
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

/// Renders a biplex as "{l0 l1 | r0 r1}" for failure messages.
inline std::string ToString(const Biplex& b) {
  std::ostringstream os;
  os << "{";
  for (VertexId v : b.left) os << " " << v;
  os << " |";
  for (VertexId u : b.right) os << " " << u;
  os << " }";
  return os.str();
}

/// Renders a list of biplexes.
inline std::string ToString(const std::vector<Biplex>& bs) {
  std::ostringstream os;
  for (const Biplex& b : bs) os << ToString(b) << "\n";
  return os.str();
}

/// Disjoint union: appends `b`'s vertices after `a`'s on both sides.
inline BipartiteGraph DisjointUnion(const BipartiteGraph& a,
                                    const BipartiteGraph& b) {
  std::vector<BipartiteGraph::Edge> edges = a.Edges();
  for (const auto& [l, r] : b.Edges()) {
    edges.emplace_back(l + static_cast<VertexId>(a.NumLeft()),
                       r + static_cast<VertexId>(a.NumRight()));
  }
  return BipartiteGraph::FromEdges(a.NumLeft() + b.NumLeft(),
                                   a.NumRight() + b.NumRight(),
                                   std::move(edges));
}

/// A reproducible family of small random graphs for property sweeps.
struct RandomGraphCase {
  size_t nl;
  size_t nr;
  double p;
  uint64_t seed;
};

inline BipartiteGraph MakeRandomGraph(const RandomGraphCase& c) {
  Rng rng(c.seed);
  return ErdosRenyiProbBipartite(c.nl, c.nr, c.p, &rng);
}

/// Runs the traversal engine once and returns its solutions, sorted;
/// the test-suite shorthand for one engine-level enumeration.
inline std::vector<Biplex> CollectWith(const BipartiteGraph& g,
                                       const TraversalOptions& opts,
                                       TraversalStats* stats = nullptr) {
  std::vector<Biplex> out;
  TraversalStats s = TraversalEngine(g, opts).Run([&](const Biplex& b) {
    out.push_back(b);
    return true;
  });
  if (stats != nullptr) *stats = s;
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs the large-MBP engine once and returns its solutions, sorted.
inline std::vector<Biplex> CollectLargeWith(const BipartiteGraph& g,
                                            const LargeMbpOptions& opts,
                                            LargeMbpStats* stats = nullptr) {
  std::vector<Biplex> out;
  LargeMbpStats s = LargeMbpEngine(g, opts).Run([&](const Biplex& b) {
    out.push_back(b);
    return true;
  });
  if (stats != nullptr) *stats = s;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace testing_support
}  // namespace kbiplex

#endif  // KBIPLEX_TESTS_TEST_SUPPORT_H_
