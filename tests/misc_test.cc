// Remaining coverage: edge-case I/O, budget handling of the baselines,
// quasi-biclique corner cases and inflation guards.
#include <gtest/gtest.h>

#include "analysis/quasi_biclique.h"
#include "baselines/kplex_enum.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/inflation.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::MakeGraph;

// ------------------------------------------------------------- graph io ---

TEST(GraphIoEdgeCases, EmptyInputYieldsEmptyGraph) {
  auto r = ParseEdgeList("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.graph->NumVertices(), 0u);
}

TEST(GraphIoEdgeCases, CommentsOnlyYieldsEmptyGraph) {
  auto r = ParseEdgeList("% a\n# b\n\n   \n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.graph->NumEdges(), 0u);
}

TEST(GraphIoEdgeCases, HeaderOnly) {
  auto r = ParseEdgeList("4 7 0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.graph->NumLeft(), 4u);
  EXPECT_EQ(r.graph->NumRight(), 7u);
}

TEST(GraphIoEdgeCases, DuplicateEdgesInFileCollapse) {
  auto r = ParseEdgeList("0 0\n0 0\n0 0\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.graph->NumEdges(), 1u);
}

TEST(GraphIoEdgeCases, ToStringParsesBack) {
  Rng rng(2);
  auto g = ErdosRenyiBipartite(6, 8, 17, &rng);
  auto r = ParseEdgeList(ToEdgeListString(g));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.graph->Edges(), g.Edges());
  EXPECT_EQ(r.graph->NumLeft(), g.NumLeft());
  EXPECT_EQ(r.graph->NumRight(), g.NumRight());
}

// --------------------------------------------------------------- k-plex ----

TEST(KPlexBudget, TimeBudgetStopsEnumeration) {
  Rng rng(5);
  std::vector<GeneralGraph::Edge> edges;
  for (VertexId a = 0; a < 60; ++a) {
    for (VertexId b = a + 1; b < 60; ++b) {
      if (rng.NextBool(0.5)) edges.emplace_back(a, b);
    }
  }
  auto g = GeneralGraph::FromEdges(60, std::move(edges));
  KPlexEnumOptions opts;
  opts.p = 3;
  opts.time_budget_seconds = 0.02;
  auto stats = EnumerateMaximalKPlexes(
      g, opts, [](const std::vector<VertexId>&) { return true; });
  EXPECT_FALSE(stats.completed);
}

TEST(KPlexBudget, CallbackStop) {
  auto g = GeneralGraph::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}});
  KPlexEnumOptions opts;
  opts.p = 2;
  size_t n = 0;
  EnumerateMaximalKPlexes(g, opts, [&](const std::vector<VertexId>&) {
    return ++n < 2;
  });
  EXPECT_EQ(n, 2u);
}

// ----------------------------------------------------------------- δ-QB ----

TEST(QuasiBicliqueEdgeCases, EmptyGraphYieldsNoBlocks) {
  BipartiteGraph g;
  auto blocks = FindQuasiBicliqueBlocks(g, QuasiBicliqueOptions{});
  EXPECT_TRUE(blocks.empty());
}

TEST(QuasiBicliqueEdgeCases, DeltaZeroRequiresBiclique) {
  // A complete 4x4 block qualifies at delta = 0.
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < 4; ++l) {
    for (VertexId r = 0; r < 4; ++r) edges.emplace_back(l, r);
  }
  auto g = BipartiteGraph::FromEdges(4, 4, edges);
  QuasiBicliqueOptions opts;
  opts.delta = 0.0;
  opts.theta_left = 4;
  opts.theta_right = 4;
  auto blocks = FindQuasiBicliqueBlocks(g, opts);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].left.size(), 4u);
}

// ------------------------------------------------------------- inflation ---

TEST(InflationGuards, EdgeCountFormula) {
  auto g = MakeGraph(4, 3, {{0, 0}});
  // C(4,2) + C(3,2) + 1 = 6 + 3 + 1.
  EXPECT_EQ(InflatedEdgeCount(g), 10u);
}

TEST(InflationGuards, EmptySidesSafe) {
  auto g = MakeGraph(0, 3, {});
  EXPECT_EQ(InflatedEdgeCount(g), 3u);
  InflatedGraph inf = Inflate(g);
  EXPECT_EQ(inf.graph.NumVertices(), 3u);
  EXPECT_EQ(inf.graph.NumEdges(), 3u);
}

}  // namespace
}  // namespace kbiplex
