#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "api/prepared_graph.h"
#include "graph/bipartite_graph.h"
#include "graph/core_decomposition.h"
#include "graph/general_graph.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/inflation.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::MakeGraph;

// --------------------------------------------------------- BipartiteGraph --

TEST(BipartiteGraph, EmptyGraph) {
  BipartiteGraph g;
  EXPECT_EQ(g.NumLeft(), 0u);
  EXPECT_EQ(g.NumRight(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(BipartiteGraph, BasicAdjacency) {
  auto g = MakeGraph(3, 4, {{0, 1}, {0, 3}, {1, 0}, {2, 2}, {0, 0}});
  EXPECT_EQ(g.NumLeft(), 3u);
  EXPECT_EQ(g.NumRight(), 4u);
  EXPECT_EQ(g.NumEdges(), 5u);
  EXPECT_EQ(g.LeftDegree(0), 3u);
  EXPECT_EQ(g.LeftDegree(1), 1u);
  EXPECT_EQ(g.RightDegree(0), 2u);
  auto nb = g.LeftNeighbors(0);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_TRUE(g.HasEdge(0, 0));
  EXPECT_TRUE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(2, 3));
}

TEST(BipartiteGraph, DuplicateEdgesCollapsed) {
  auto g = MakeGraph(2, 2, {{0, 0}, {0, 0}, {1, 1}, {1, 1}});
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(BipartiteGraph, EdgesRoundTrip) {
  std::vector<BipartiteGraph::Edge> edges = {{0, 1}, {1, 0}, {2, 2}};
  auto g = MakeGraph(3, 3, edges);
  auto out = g.Edges();
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(out, edges);
}

TEST(BipartiteGraph, Transposed) {
  auto g = MakeGraph(2, 3, {{0, 2}, {1, 0}});
  auto t = g.Transposed();
  EXPECT_EQ(t.NumLeft(), 3u);
  EXPECT_EQ(t.NumRight(), 2u);
  EXPECT_TRUE(t.HasEdge(2, 0));
  EXPECT_TRUE(t.HasEdge(0, 1));
  EXPECT_EQ(t.NumEdges(), 2u);
}

TEST(BipartiteGraph, ConnAndDiscCounts) {
  auto g = MakeGraph(2, 4, {{0, 0}, {0, 1}, {0, 2}, {1, 3}});
  std::vector<VertexId> subset = {0, 2, 3};
  EXPECT_EQ(g.ConnCount(Side::kLeft, 0, subset), 2u);
  EXPECT_EQ(g.DiscCount(Side::kLeft, 0, subset), 1u);
  EXPECT_EQ(g.ConnCount(Side::kLeft, 1, subset), 1u);
  std::vector<VertexId> lsub = {0, 1};
  EXPECT_EQ(g.ConnCount(Side::kRight, 3, lsub), 1u);
  EXPECT_EQ(g.DiscCount(Side::kRight, 3, lsub), 1u);
}

TEST(BipartiteGraph, EdgeDensity) {
  auto g = MakeGraph(5, 5, {{0, 0}, {1, 1}});
  EXPECT_DOUBLE_EQ(g.EdgeDensity(), 0.2);
}

TEST(Induce, CompactsIdsAndKeepsEdges) {
  auto g = MakeGraph(4, 4, {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {1, 2}});
  InducedSubgraph sub = Induce(g, {1, 3}, {1, 2});
  EXPECT_EQ(sub.graph.NumLeft(), 2u);
  EXPECT_EQ(sub.graph.NumRight(), 2u);
  EXPECT_EQ(sub.graph.NumEdges(), 2u);  // (1,1) and (1,2)
  EXPECT_TRUE(sub.graph.HasEdge(0, 0));
  EXPECT_TRUE(sub.graph.HasEdge(0, 1));
  EXPECT_EQ(sub.left_map, (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(sub.right_map, (std::vector<VertexId>{1, 2}));
}

/// Checks both sides' CSR rows of FromEdges(nl, nr, edges) against a
/// std::set of the distinct edges.
void ExpectCsrMatchesSet(size_t nl, size_t nr,
                         const std::vector<BipartiteGraph::Edge>& edges) {
  const std::set<BipartiteGraph::Edge> distinct(edges.begin(), edges.end());
  const BipartiteGraph g = BipartiteGraph::FromEdges(nl, nr, edges);
  ASSERT_EQ(g.NumLeft(), nl);
  ASSERT_EQ(g.NumRight(), nr);
  ASSERT_EQ(g.NumEdges(), distinct.size());
  std::vector<std::vector<VertexId>> left(nl), right(nr);
  for (const auto& [l, r] : distinct) {  // ascending (l, r): rows sorted
    left[l].push_back(r);
    right[r].push_back(l);
  }
  for (VertexId l = 0; l < nl; ++l) {
    const auto nb = g.LeftNeighbors(l);
    EXPECT_EQ(std::vector<VertexId>(nb.begin(), nb.end()), left[l])
        << "left " << l;
  }
  for (VertexId r = 0; r < nr; ++r) {
    const auto nb = g.RightNeighbors(r);
    EXPECT_EQ(std::vector<VertexId>(nb.begin(), nb.end()), right[r])
        << "right " << r;
  }
}

TEST(BipartiteGraph, FromEdgesMatchesSetReference) {
  Rng rng(24);
  for (int round = 0; round < 40; ++round) {
    const size_t nl = 1 + rng.NextBelow(30);
    const size_t nr = 1 + rng.NextBelow(30);
    // Ids stay off the first and last two vertices of each side half the
    // time, so isolated vertices sit at both ends.
    const bool margins = round % 2 == 0 && nl > 4 && nr > 4;
    const auto pick = [&](size_t n) {
      return static_cast<VertexId>(margins ? 2 + rng.NextBelow(n - 4)
                                           : rng.NextBelow(n));
    };
    std::vector<BipartiteGraph::Edge> edges;
    const size_t m = rng.NextBelow(3 * (nl + nr));
    for (size_t i = 0; i < m; ++i) edges.emplace_back(pick(nl), pick(nr));
    // Duplicate a share of the edges, in shuffled order.
    for (size_t i = 0; i < m / 3; ++i) edges.push_back(edges[rng.NextBelow(m)]);
    rng.Shuffle(&edges);
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectCsrMatchesSet(nl, nr, edges);
    // Sorted and reverse-sorted inputs take the same path.
    std::sort(edges.begin(), edges.end());
    ExpectCsrMatchesSet(nl, nr, edges);
    std::reverse(edges.begin(), edges.end());
    ExpectCsrMatchesSet(nl, nr, edges);
  }
  ExpectCsrMatchesSet(0, 0, {});
  ExpectCsrMatchesSet(4, 3, {});
  ExpectCsrMatchesSet(5, 0, {});  // one empty side
  ExpectCsrMatchesSet(0, 5, {});
}

TEST(BipartiteGraph, FromEdgesThrowsOnOutOfRangeEdge) {
  // Holds in every build type, not only where assert() is compiled in.
  EXPECT_THROW(BipartiteGraph::FromEdges(2, 2, {{0, 0}, {2, 0}}),
               std::out_of_range);
  EXPECT_THROW(BipartiteGraph::FromEdges(2, 2, {{0, 2}}), std::out_of_range);
  EXPECT_THROW(BipartiteGraph::FromEdges(0, 3, {{0, 0}}), std::out_of_range);
}

// ---------------------------------------------------------------- graph_io --

TEST(GraphIo, ParseWithHeader) {
  auto r = ParseEdgeList("% comment\n3 4 2\n0 1\n2 3\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 3u);
  EXPECT_EQ(r.graph->NumRight(), 4u);
  EXPECT_EQ(r.graph->NumEdges(), 2u);
}

TEST(GraphIo, ParseWithoutHeaderInfersSizes) {
  auto r = ParseEdgeList("0 1\n2 3\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 3u);
  EXPECT_EQ(r.graph->NumRight(), 4u);
}

TEST(GraphIo, ParseRejectsGarbage) {
  auto r = ParseEdgeList("0 1\nnot an edge\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 2"), std::string::npos);
}

TEST(GraphIo, ParseRejectsOutOfRange) {
  auto r = ParseEdgeList("2 2 1\n5 0\n");
  EXPECT_FALSE(r.ok());
}

TEST(GraphIo, SaveLoadRoundTrip) {
  Rng rng(3);
  auto g = ErdosRenyiBipartite(10, 12, 40, &rng);
  auto path =
      std::filesystem::temp_directory_path() / "kbiplex_io_test.txt";
  ASSERT_EQ(SaveEdgeList(g, path.string()), "");
  auto r = LoadEdgeList(path.string());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), g.NumLeft());
  EXPECT_EQ(r.graph->NumRight(), g.NumRight());
  EXPECT_EQ(r.graph->Edges(), g.Edges());
  std::filesystem::remove(path);
}

TEST(GraphIo, LoadMissingFileFails) {
  auto r = LoadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_FALSE(r.ok());
}

// ----------------------------------------------------- streaming loader --

/// Writes `text` to a temp file and returns the path (caller removes).
std::filesystem::path WriteTempEdgeList(const std::string& text) {
  auto path =
      std::filesystem::temp_directory_path() / "kbiplex_stream_test.txt";
  std::ofstream f(path, std::ios::binary);
  f << text;
  return path;
}

// The chunked reader must parse byte-identically to the in-memory parser
// for every chunk size — including chunks of 1 byte, where every line
// straddles a boundary — across inputs exercising each header heuristic.
TEST(GraphIo, StreamingLoaderMatchesInMemoryParserAtEveryChunkSize) {
  const std::string corpora[] = {
      "",                                  // empty file
      "% only a comment\n",                // no data lines
      "3 4 2\n0 1\n2 3\n",                 // header
      "0 1\n2 3\n",                        // headerless, sizes inferred
      "0 1 5\n1 0 7\n2 2 9\n",             // headerless weighted (KONECT)
      "5 5 3\n0 1 2\n1 2 9\n2 0 1\n",      // header over weighted lines
      "% c\r\n2 2 1\r\n0 0\r\n",           // CRLF + comments
      "0 1\n\n  \n2 3",                    // blanks, no trailing newline
      "10 10 0\n",                         // lone header, zero edges
      "0 1\n0 1\n1 0\n",                   // duplicate edge lines
  };
  for (const std::string& text : corpora) {
    const LoadResult expect = ParseEdgeList(text);
    auto path = WriteTempEdgeList(text);
    for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{64}, kDefaultLoadChunkBytes}) {
      const LoadResult got = LoadEdgeList(path.string(), chunk);
      ASSERT_EQ(got.ok(), expect.ok())
          << "chunk=" << chunk << " text=[" << text << "] got error '"
          << got.error << "' expect '" << expect.error << "'";
      if (expect.ok()) {
        EXPECT_EQ(got.graph->NumLeft(), expect.graph->NumLeft())
            << "chunk=" << chunk << " text=[" << text << "]";
        EXPECT_EQ(got.graph->NumRight(), expect.graph->NumRight())
            << "chunk=" << chunk << " text=[" << text << "]";
        EXPECT_EQ(got.graph->Edges(), expect.graph->Edges())
            << "chunk=" << chunk << " text=[" << text << "]";
      } else {
        EXPECT_EQ(got.error, expect.error) << "chunk=" << chunk;
      }
    }
    std::filesystem::remove(path);
  }
}

TEST(GraphIo, StreamingLoaderPreservesErrorLineNumbersAcrossChunks) {
  // The bad line sits past several boundary-straddling good lines; the
  // reported line number must not shift with the chunk size.
  auto path = WriteTempEdgeList("0 1\n2 3\n4 5\nbogus line\n");
  for (size_t chunk : {size_t{1}, size_t{5}, size_t{1024}}) {
    const LoadResult r = LoadEdgeList(path.string(), chunk);
    ASSERT_FALSE(r.ok()) << "chunk=" << chunk;
    EXPECT_NE(r.error.find("line 4"), std::string::npos)
        << "chunk=" << chunk << " error=" << r.error;
  }
  std::filesystem::remove(path);
}

TEST(GraphIo, StreamingLoaderHandlesLinesLongerThanTheChunk) {
  // A comment line much longer than the chunk forces repeated carryover
  // growth; the data after it must still parse.
  std::string text = "% " + std::string(300, 'x') + "\n7 8\n";
  auto path = WriteTempEdgeList(text);
  const LoadResult r = LoadEdgeList(path.string(), /*chunk_bytes=*/16);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 8u);
  EXPECT_EQ(r.graph->NumRight(), 9u);
  EXPECT_TRUE(r.graph->HasEdge(7, 8));
  std::filesystem::remove(path);
}

// Regression: a headerless KONECT-style edge list whose lines carry a
// weight/timestamp column used to have its first edge swallowed as an
// "L R M" header (and later edges could then fail the range check).
TEST(GraphIo, HeaderlessWeightedEdgeListIsNotMisreadAsHeader) {
  auto r = ParseEdgeList("1 2 3\n0 5 7\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 2u);   // max left id 1
  EXPECT_EQ(r.graph->NumRight(), 6u);  // max right id 5
  EXPECT_EQ(r.graph->NumEdges(), 2u);
  EXPECT_TRUE(r.graph->HasEdge(1, 2));
  EXPECT_TRUE(r.graph->HasEdge(0, 5));
}

TEST(GraphIo, LoneThreeColumnLineWithNonzeroCountFailsLoudly) {
  // Reads both as a truncated "L R M" header and as a single weighted
  // edge; either silent guess corrupts somebody's data, so it errors.
  auto r = ParseEdgeList("% weighted\n1 2 3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("ambiguous"), std::string::npos);
}

TEST(GraphIo, HeaderCountMayReferToDistinctEdges) {
  // Interaction data repeats edges; the graph collapses duplicates, so a
  // header declaring the distinct count is honest and must load.
  auto r = ParseEdgeList("2 2 2\n0 0\n0 1\n0 1\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 2u);
  EXPECT_EQ(r.graph->NumEdges(), 2u);
}

TEST(GraphIo, TrailingColumnsOnDataLinesAreIgnored) {
  auto r = ParseEdgeList("0 1 0.75\n1 0 0.5 1234567\n1 1 x\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumEdges(), 3u);
  EXPECT_TRUE(r.graph->HasEdge(0, 1));
  EXPECT_TRUE(r.graph->HasEdge(1, 0));
  EXPECT_TRUE(r.graph->HasEdge(1, 1));
}

TEST(GraphIo, HeaderOverWeightedDataLinesStillRecognized) {
  // A valid "L R M" header followed by weighted edges is ambiguous with a
  // purely-weighted file; the header wins when it validates (declared
  // count matches and every id is in range).
  auto r = ParseEdgeList("2 2 2\n0 0 1\n0 1 1\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 2u);
  EXPECT_EQ(r.graph->NumRight(), 2u);
  EXPECT_EQ(r.graph->NumEdges(), 2u);
  EXPECT_TRUE(r.graph->HasEdge(0, 0));
  EXPECT_TRUE(r.graph->HasEdge(0, 1));
}

TEST(GraphIo, HeaderEdgeCountIsValidated) {
  auto r = ParseEdgeList("3 3 5\n0 0\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("declares"), std::string::npos);
}

TEST(GraphIo, AmbiguousHeaderOverWeightedLinesFailsLoudly) {
  // Looks like a header whose edge count is stale (ids respect the
  // declared sizes) and like a weighted edge; refusing to guess beats
  // silently corrupting the graph either way.
  auto r = ParseEdgeList("3 3 99\n0 0 1\n0 1 1\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("ambiguous"), std::string::npos);
}

TEST(GraphIo, RejectsNegativeAndMalformedIds) {
  EXPECT_FALSE(ParseEdgeList("0 1\n-1 2\n").ok());
  EXPECT_FALSE(ParseEdgeList("0.5 1\n").ok());
  EXPECT_FALSE(ParseEdgeList("3x 1\n").ok());
  EXPECT_FALSE(ParseEdgeList("7\n").ok());
  auto r = ParseEdgeList("0 1\n2 oops\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 2"), std::string::npos);
}

TEST(GraphIo, StringRoundTripPreservesIsolatedVertices) {
  // Isolated vertices only survive a round trip through the header, so
  // this pins both ToEdgeListString's header and its re-parsing.
  auto g = MakeGraph(5, 7, {{0, 0}, {1, 1}, {1, 2}});
  auto r = ParseEdgeList(ToEdgeListString(g));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 5u);
  EXPECT_EQ(r.graph->NumRight(), 7u);
  EXPECT_EQ(r.graph->Edges(), g.Edges());
}

TEST(GraphIo, HugeDeclaredSideSizeFailsBeforeAllocating) {
  // A 24-byte header declaring 2^32 - 1 vertices per side must fail to
  // parse instead of allocating two 32 GiB offset arrays.
  auto r = ParseEdgeList("4294967295 4294967295 0\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 1"), std::string::npos) << r.error;
  // The slack is counted from the largest id on each side: one vertex
  // past it fails, a few thousand isolated vertices load.
  r = ParseEdgeList(std::to_string(kMaxDeclaredIsolatedVertices + 6) +
                    " 7 1\n4 6\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 1"), std::string::npos) << r.error;
  r = ParseEdgeList("5005 7 1\n4 6\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 5005u);
  r = ParseEdgeList("% two edges\n3 " +
                    std::to_string(kMaxDeclaredIsolatedVertices + 8) +
                    " 2\n0 1\n2 6\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
}

TEST(GraphIo, HugeInferredSideSizeFailsBeforeAllocating) {
  // A 22-byte headerless list whose largest ids infer 2^32 - 1 vertices
  // per side must fail to parse instead of allocating the offset arrays.
  auto r = ParseEdgeList("4294967294 4294967294\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("parse error at line 1"), std::string::npos)
      << r.error;
  // The slack is counted from the edge count; the error names the line of
  // the offending side's largest id.
  const std::string big = std::to_string(kMaxDeclaredIsolatedVertices + 10);
  r = ParseEdgeList("0 0\n1 1\n0 " + big + "\n" + big + " 1\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
  r = ParseEdgeList("# right side\n0 " + big + "\n1 2\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
  // A few thousand isolated vertices still load.
  r = ParseEdgeList("0 1\n3 5000\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumRight(), 5001u);
}

TEST(GraphIo, CrlfLinesParse) {
  auto r = ParseEdgeList("2 2 1\r\n0 1\r\n");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.graph->NumLeft(), 2u);
  EXPECT_EQ(r.graph->NumEdges(), 1u);
}

// -------------------------------------------------------------- generators --

TEST(Generators, ErdosRenyiExactEdgeCount) {
  Rng rng(5);
  auto g = ErdosRenyiBipartite(20, 30, 111, &rng);
  EXPECT_EQ(g.NumLeft(), 20u);
  EXPECT_EQ(g.NumRight(), 30u);
  EXPECT_EQ(g.NumEdges(), 111u);
}

TEST(Generators, ErdosRenyiDeterministic) {
  Rng a(5), b(5);
  auto g1 = ErdosRenyiBipartite(15, 15, 60, &a);
  auto g2 = ErdosRenyiBipartite(15, 15, 60, &b);
  EXPECT_EQ(g1.Edges(), g2.Edges());
}

TEST(Generators, ErdosRenyiProbApproximatesDensity) {
  Rng rng(6);
  auto g = ErdosRenyiProbBipartite(100, 100, 0.3, &rng);
  double density = static_cast<double>(g.NumEdges()) / (100.0 * 100.0);
  EXPECT_NEAR(density, 0.3, 0.05);
}

TEST(Generators, PowerLawHasTargetEdgesAndSkew) {
  Rng rng(8);
  auto g = PowerLawBipartite(200, 200, 1000, 2.2, &rng);
  EXPECT_EQ(g.NumEdges(), 1000u);
  // Degree skew: the max degree should significantly exceed the mean.
  size_t max_deg = 0;
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    max_deg = std::max(max_deg, g.LeftDegree(v));
  }
  EXPECT_GT(max_deg, 3u * g.NumEdges() / g.NumLeft());
}

TEST(Generators, PlantDenseBlockAppendsVertices) {
  Rng rng(9);
  auto base = ErdosRenyiBipartite(10, 10, 20, &rng);
  auto g = PlantDenseBlock(base, 5, 6, 1.0, &rng);
  EXPECT_EQ(g.NumLeft(), 15u);
  EXPECT_EQ(g.NumRight(), 16u);
  EXPECT_EQ(g.NumEdges(), 20u + 30u);
  // The planted block is complete.
  for (VertexId l = 10; l < 15; ++l) {
    for (VertexId r = 10; r < 16; ++r) EXPECT_TRUE(g.HasEdge(l, r));
  }
}

TEST(Generators, RunningExampleProperties) {
  auto g = RunningExampleGraph();
  EXPECT_EQ(g.NumLeft(), 5u);
  EXPECT_EQ(g.NumRight(), 5u);
  // v4 misses only u4.
  EXPECT_EQ(g.LeftDegree(4), 4u);
  EXPECT_FALSE(g.HasEdge(4, 4));
  // Every other left vertex misses at least two right vertices.
  for (VertexId v = 0; v < 4; ++v) EXPECT_LE(g.LeftDegree(v), 3u);
}

// ------------------------------------------------------ core decomposition --

TEST(AlphaBetaCore, WholeGraphWhenThresholdsAreLow) {
  auto g = MakeGraph(3, 3, {{0, 0}, {1, 1}, {2, 2}});
  CoreResult core = AlphaBetaCore(g, 1, 1);
  EXPECT_EQ(core.left.size(), 3u);
  EXPECT_EQ(core.right.size(), 3u);
}

TEST(AlphaBetaCore, PeelsLowDegreeVertices) {
  // Left 0 has degree 3; left 1 degree 1; rights have mixed degrees.
  auto g = MakeGraph(2, 3, {{0, 0}, {0, 1}, {0, 2}, {1, 0}});
  CoreResult core = AlphaBetaCore(g, 2, 1);
  // Left 1 (degree 1 < 2) is peeled; rights keep degree 1 from left 0.
  EXPECT_EQ(core.left, (std::vector<VertexId>{0}));
  EXPECT_EQ(core.right.size(), 3u);
}

TEST(AlphaBetaCore, CascadingPeel) {
  // A path-like structure that collapses entirely under (2,2).
  auto g = MakeGraph(3, 3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 2}});
  CoreResult core = AlphaBetaCore(g, 2, 2);
  EXPECT_TRUE(core.Empty());
}

TEST(AlphaBetaCore, DenseBlockSurvives) {
  Rng rng(10);
  auto base = ErdosRenyiBipartite(30, 30, 30, &rng);
  auto g = PlantDenseBlock(base, 8, 8, 1.0, &rng);
  CoreResult core = AlphaBetaCore(g, 5, 5);
  // The complete 8x8 block must survive a (5,5)-core.
  for (VertexId v = 30; v < 38; ++v) {
    EXPECT_TRUE(sorted::Contains(core.left, v));
    EXPECT_TRUE(sorted::Contains(core.right, v));
  }
  // Invariant: all survivors meet the degree thresholds inside the core.
  InducedSubgraph sub = AlphaBetaCoreSubgraph(g, 5, 5);
  for (VertexId v = 0; v < sub.graph.NumLeft(); ++v) {
    EXPECT_GE(sub.graph.LeftDegree(v), 5u);
  }
  for (VertexId u = 0; u < sub.graph.NumRight(); ++u) {
    EXPECT_GE(sub.graph.RightDegree(u), 5u);
  }
}

TEST(AlphaBetaCore, IsMaximal) {
  // No vertex outside the core can satisfy the thresholds against the
  // core: verify on a random graph by re-adding each removed vertex.
  Rng rng(11);
  auto g = ErdosRenyiBipartite(25, 25, 120, &rng);
  CoreResult core = AlphaBetaCore(g, 3, 3);
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    if (sorted::Contains(core.left, v)) continue;
    EXPECT_LT(g.ConnCount(Side::kLeft, v, core.right), 3u);
  }
}

TEST(MaxUniformCore, MatchesLargestNonEmptyUniformCore) {
  // The one-pass degeneracy peel against its definition: the largest a
  // whose (a,a)-core is non-empty, on random graphs alone and next to a
  // planted complete block in another component.
  const auto check = [](BipartiteGraph g, const std::string& label) {
    size_t want = 0;
    while (!AlphaBetaCore(g, want + 1, want + 1).Empty()) ++want;
    EXPECT_EQ(PreparedGraph::Prepare(std::move(g))->MaxUniformCore(), want)
        << label;
  };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (double p : {0.15, 0.4, 0.8}) {
      const BipartiteGraph g =
          testing_support::MakeRandomGraph({9 + seed, 7 + 3 * seed, p, seed});
      const BipartiteGraph block = testing_support::MakeRandomGraph(
          {2 + seed, 3 + seed % 3, 1.0, seed});
      const std::string label =
          "seed=" + std::to_string(seed) + " p=" + std::to_string(p);
      check(g, label);
      check(testing_support::DisjointUnion(g, block), label + " + block");
    }
  }
  // Edgeless and empty graphs report 0; a star and a lone edge report 1.
  check(MakeGraph(4, 6, {}), "edgeless");
  check(BipartiteGraph(), "empty");
  check(MakeGraph(1, 5, {{0, 0}, {0, 1}, {0, 4}}), "star");
  check(MakeGraph(3, 3, {{2, 2}}), "lone edge");
}

// ------------------------------------------------------------ GeneralGraph --

TEST(GeneralGraph, BasicsAndSymmetry) {
  auto g = GeneralGraph::FromEdges(4, {{0, 1}, {1, 2}, {0, 1}, {3, 3}});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 2u);  // dup collapsed, self-loop dropped
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.ConnCount(1, {0, 2, 3}), 2u);
}

// --------------------------------------------------------------- inflation --

TEST(Inflation, CountsAndStructure) {
  auto g = MakeGraph(3, 2, {{0, 0}, {1, 1}});
  EXPECT_EQ(InflatedEdgeCount(g), 3u + 1u + 2u);
  InflatedGraph inf = Inflate(g);
  EXPECT_EQ(inf.graph.NumVertices(), 5u);
  EXPECT_EQ(inf.graph.NumEdges(), 6u);
  // Same-side cliques.
  EXPECT_TRUE(inf.graph.HasEdge(0, 1));
  EXPECT_TRUE(inf.graph.HasEdge(0, 2));
  EXPECT_TRUE(inf.graph.HasEdge(3, 4));
  // Cross edges only where the bipartite graph has them.
  EXPECT_TRUE(inf.graph.HasEdge(0, 3));
  EXPECT_FALSE(inf.graph.HasEdge(0, 4));
  // Id mapping.
  EXPECT_EQ(inf.SideOf(2), Side::kLeft);
  EXPECT_EQ(inf.SideOf(3), Side::kRight);
  EXPECT_EQ(inf.BipartiteId(4), 1u);
  EXPECT_EQ(inf.GeneralId(Side::kRight, 1), 4u);
}

}  // namespace
}  // namespace kbiplex
