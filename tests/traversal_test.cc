#include <algorithm>
#include <string>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/btraversal.h"
#include "core/itraversal.h"
#include "core/large_mbp.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::CollectWith;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

// ----------------------------------------------------- initial solutions --

TEST(InitialSolution, LeftAnchoredContainsFullRightSide) {
  auto g = RunningExampleGraph();
  TraversalEngine engine(g, MakeITraversalOptions(1));
  Biplex h0 = engine.InitialSolution();
  EXPECT_EQ(h0.right.size(), g.NumRight());
  EXPECT_EQ(h0.left, (std::vector<VertexId>{4}));  // only v4 fits
  EXPECT_TRUE(IsMaximalKBiplex(g, h0, 1));
}

TEST(InitialSolution, RightAnchoredContainsFullLeftSide) {
  auto g = RunningExampleGraph();
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.anchored_side = Side::kRight;
  TraversalEngine engine(g, opts);
  Biplex h0 = engine.InitialSolution();
  EXPECT_EQ(h0.left.size(), g.NumLeft());
  EXPECT_TRUE(IsKBiplex(g, h0, 1));
}

TEST(InitialSolution, BTraversalIsMaximal) {
  auto g = RunningExampleGraph();
  TraversalEngine engine(g, MakeBTraversalOptions(1));
  EXPECT_TRUE(IsMaximalKBiplex(g, engine.InitialSolution(), 1));
}

// --------------------------------------------------------- config naming --

TEST(ConfigNames, AllFour) {
  EXPECT_EQ(TraversalConfigName(MakeBTraversalOptions(1)), "bTraversal");
  EXPECT_EQ(TraversalConfigName(MakeITraversalOptions(1)), "iTraversal");
  EXPECT_EQ(TraversalConfigName(MakeITraversalNoExclusionOptions(1)),
            "iTraversal-ES");
  EXPECT_EQ(TraversalConfigName(MakeITraversalLeftAnchoredOnlyOptions(1)),
            "iTraversal-ES-RS");
}

// -------------------------------------------------- correctness sweeps ----

struct SweepCase {
  size_t nl, nr;
  double p;
  int k;
  uint64_t seed;
};

std::vector<TraversalOptions> AllConfigs(int k) {
  return {MakeBTraversalOptions(k), MakeITraversalLeftAnchoredOnlyOptions(k),
          MakeITraversalNoExclusionOptions(k), MakeITraversalOptions(k)};
}

class TraversalSweep
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(TraversalSweep, AllConfigsMatchBruteForce) {
  const int k = std::get<0>(GetParam());
  const double p = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  auto g = MakeRandomGraph({6, 5, p, seed * 7 + 3});
  const auto expect = BruteForceMaximalBiplexes(g, k);
  for (const TraversalOptions& opts : AllConfigs(k)) {
    TraversalStats stats;
    auto got = CollectWith(g, opts, &stats);
    ASSERT_EQ(got, expect)
        << TraversalConfigName(opts) << " k=" << k << " p=" << p
        << " seed=" << seed << "\ngot:\n"
        << ToString(got) << "want:\n"
        << ToString(expect);
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.solutions_found, expect.size());
    EXPECT_EQ(stats.solutions_emitted, expect.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraversalSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.2, 0.4, 0.6, 0.8),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7)));

// Larger sparse instances against iTraversal vs bTraversal agreement
// (brute force is too slow there, but the two engines are independent
// implementations of the same set).
class EngineAgreementSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineAgreementSweep, ITraversalMatchesBTraversal) {
  const uint64_t seed = GetParam();
  Rng rng(seed + 500);
  auto g = ErdosRenyiBipartite(12, 12, 40 + seed % 30, &rng);
  for (int k = 1; k <= 2; ++k) {
    auto a = CollectWith(g, MakeBTraversalOptions(k));
    auto b = CollectWith(g, MakeITraversalOptions(k));
    ASSERT_EQ(a, b) << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ----------------------------------------------- solutions are solutions --

TEST(Traversal, EverySolutionIsMaximalAndUnique) {
  Rng rng(42);
  auto g = ErdosRenyiBipartite(10, 10, 35, &rng);
  std::set<Biplex> seen;
  TraversalEngine engine(g, MakeITraversalOptions(1));
  engine.Run([&](const Biplex& b) {
    EXPECT_TRUE(IsMaximalKBiplex(g, b, 1)) << ToString(b);
    EXPECT_TRUE(seen.insert(b).second)
        << "duplicate " << ToString(b);
    return true;
  });
  EXPECT_FALSE(seen.empty());
}

// ------------------------------------------------- sparsification order ---

TEST(Traversal, SparsificationShrinksLinkCounts) {
  // links(G) >= links(G_L) >= links(G_R) >= links(G_E) (Section 3 / Fig 11).
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto g = MakeRandomGraph({6, 6, 0.5, seed});
    uint64_t prev = ~0ull;
    for (const TraversalOptions& opts : AllConfigs(1)) {
      TraversalStats stats;
      CollectWith(g, opts, &stats);
      EXPECT_LE(stats.links, prev)
          << TraversalConfigName(opts) << " seed=" << seed;
      prev = stats.links;
    }
  }
}

TEST(Traversal, RunningExampleLinkCountsShrink) {
  auto g = RunningExampleGraph();
  std::vector<uint64_t> links;
  std::vector<uint64_t> solutions;
  for (const TraversalOptions& opts : AllConfigs(1)) {
    TraversalStats stats;
    CollectWith(g, opts, &stats);
    links.push_back(stats.links);
    solutions.push_back(stats.solutions_found);
  }
  // All four configurations find the same number of solutions...
  for (uint64_t s : solutions) EXPECT_EQ(s, solutions[0]);
  // ...but strictly fewer links as the techniques stack up (the paper's
  // running example shrinks 76 -> 41 -> 21 -> 13 on its Figure 1 graph).
  EXPECT_GT(links[0], links[1]);
  EXPECT_GT(links[1], links[2]);
  EXPECT_GE(links[2], links[3]);
}

// -------------------------------------------------------------- budgets ---

TEST(Traversal, MaxResultsStopsEarly) {
  Rng rng(77);
  auto g = ErdosRenyiBipartite(12, 12, 50, &rng);
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.max_results = 3;
  TraversalStats stats;
  auto got = CollectWith(g, opts, &stats);
  EXPECT_EQ(got.size(), 3u);
  EXPECT_FALSE(stats.completed);
}

TEST(Traversal, CallbackStop) {
  Rng rng(78);
  auto g = ErdosRenyiBipartite(10, 10, 40, &rng);
  size_t count = 0;
  TraversalStats stats =
      TraversalEngine(g, MakeITraversalOptions(1)).Run([&](const Biplex&) {
        return ++count < 2;
      });
  EXPECT_EQ(count, 2u);
  EXPECT_FALSE(stats.completed);
}

TEST(Traversal, MaxLinksCapsWork) {
  Rng rng(79);
  auto g = ErdosRenyiBipartite(10, 10, 40, &rng);
  TraversalOptions opts = MakeBTraversalOptions(1);
  opts.max_links = 5;
  TraversalStats stats;
  CollectWith(g, opts, &stats);
  EXPECT_FALSE(stats.completed);
  EXPECT_LE(stats.links, 5u);
}

TEST(Traversal, TimeBudgetHonored) {
  Rng rng(80);
  auto g = ErdosRenyiBipartite(30, 30, 300, &rng);
  TraversalOptions opts = MakeBTraversalOptions(2);
  opts.time_budget_seconds = 0.02;
  TraversalStats stats;
  CollectWith(g, opts, &stats);
  EXPECT_FALSE(stats.completed);
  EXPECT_LT(stats.seconds, 5.0);
}

// ------------------------------------------------------- output parity ----

TEST(Traversal, AlternatingOutputMatchesEagerOutput) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto g = MakeRandomGraph({6, 6, 0.5, seed});
    TraversalOptions eager = MakeITraversalOptions(1);
    eager.polynomial_delay_output = false;
    auto a = CollectWith(g, MakeITraversalOptions(1));
    auto b = CollectWith(g, eager);
    ASSERT_EQ(a, b) << "seed=" << seed;
  }
}

// ----------------------------------------------------- anchor symmetry ----

TEST(Traversal, RightAnchoredEnumeratesSameSet) {
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    auto g = MakeRandomGraph({6, 6, 0.5, seed});
    auto expect = BruteForceMaximalBiplexes(g, 1);
    TraversalOptions opts = MakeITraversalOptions(1);
    opts.anchored_side = Side::kRight;
    auto got = CollectWith(g, opts);
    ASSERT_EQ(got, expect) << "seed=" << seed;
  }
}

// ------------------------------------------------- inflation local impl ---

TEST(Traversal, InflationLocalEnumMatchesDirect) {
  for (uint64_t seed : {41u, 42u}) {
    auto g = MakeRandomGraph({6, 5, 0.5, seed});
    TraversalOptions direct = MakeITraversalOptions(1);
    TraversalOptions infl = MakeITraversalOptions(1);
    infl.local_impl = LocalEnumImpl::kInflation;
    ASSERT_EQ(CollectWith(g, direct), CollectWith(g, infl))
        << "seed=" << seed;
  }
}

// ----------------------------------------------------------- edge cases ---

TEST(Traversal, EmptyGraph) {
  BipartiteGraph g;
  auto got = CollectWith(g, MakeITraversalOptions(1));
  // The only maximal biplex of the empty graph is the empty subgraph.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].left.empty());
  EXPECT_TRUE(got[0].right.empty());
}

TEST(Traversal, NoEdges) {
  auto g = BipartiteGraph::FromEdges(3, 3, {});
  auto expect = BruteForceMaximalBiplexes(g, 1);
  for (const TraversalOptions& opts : AllConfigs(1)) {
    ASSERT_EQ(CollectWith(g, opts), expect)
        << TraversalConfigName(opts);
  }
}

TEST(Traversal, CompleteGraph) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < 4; ++l) {
    for (VertexId r = 0; r < 4; ++r) edges.emplace_back(l, r);
  }
  auto g = BipartiteGraph::FromEdges(4, 4, edges);
  auto expect = BruteForceMaximalBiplexes(g, 1);
  EXPECT_EQ(expect.size(), 1u);  // the whole graph
  for (const TraversalOptions& opts : AllConfigs(1)) {
    ASSERT_EQ(CollectWith(g, opts), expect);
  }
}

TEST(Traversal, StarGraph) {
  // One left hub connected to every right vertex.
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId r = 0; r < 5; ++r) edges.emplace_back(0, r);
  auto g = BipartiteGraph::FromEdges(3, 5, edges);
  auto expect = BruteForceMaximalBiplexes(g, 1);
  for (const TraversalOptions& opts : AllConfigs(1)) {
    ASSERT_EQ(CollectWith(g, opts), expect);
  }
}

TEST(Traversal, SideWithSingleVertex) {
  auto g = BipartiteGraph::FromEdges(1, 4, {{0, 0}, {0, 2}});
  for (int k = 1; k <= 2; ++k) {
    auto expect = BruteForceMaximalBiplexes(g, k);
    for (const TraversalOptions& opts : AllConfigs(k)) {
      ASSERT_EQ(CollectWith(g, opts), expect) << "k=" << k;
    }
  }
}

// ------------------------------------------------- 2-hop candidate gate --

// Left-anchored, right-shrinking runs with prune_small and theta_other > k
// draw Step-1 candidates from the 2-hop generator; the result must still
// be exactly the large MBPs.
TEST(TwoHopCandidates, GatedRunMatchesBruteForce) {
  for (uint64_t seed : {37, 40, 41}) {
    BipartiteGraph g = MakeRandomGraph({8, 8, 0.5, seed});
    const std::vector<Biplex> all = BruteForceMaximalBiplexes(g, 1);
    for (size_t theta : {2, 3}) {
      TraversalOptions opts = MakeITraversalOptions(1);
      opts.theta_left = opts.theta_right = theta;
      opts.prune_small = true;
      ASSERT_EQ(CollectWith(g, opts), FilterBySize(all, theta, theta))
          << "seed=" << seed << " theta=" << theta;
    }
  }
}

// The generator only proposes vertices with at least theta_other - k
// connections into the current solution, so isolated vertices on the
// anchored side are never candidates: ten more of them add no work,
// where a full-side scan would examine each one in every frame. Both
// graphs carry some padding because the Section 5 left-side prune
// depends on the anchored side's size.
TEST(TwoHopCandidates, IsolatedVerticesAreNeverCandidates) {
  const std::vector<BipartiteGraph::Edge> edges =
      MakeRandomGraph({8, 8, 0.5, 37}).Edges();
  const BipartiteGraph g = BipartiteGraph::FromEdges(10, 8, edges);
  const BipartiteGraph padded = BipartiteGraph::FromEdges(20, 8, edges);
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.theta_left = opts.theta_right = 3;
  opts.prune_small = true;
  TraversalStats base, pad;
  EXPECT_EQ(CollectWith(padded, opts, &pad), CollectWith(g, opts, &base));
  EXPECT_GT(base.candidates_generated, 0u);
  EXPECT_EQ(pad.candidates_generated, base.candidates_generated);
  EXPECT_EQ(pad.almost_sat_graphs, base.almost_sat_graphs);
  EXPECT_EQ(pad.links, base.links);
}

TEST(TwoHopCandidates, RightAnchoredTraversalMatchesBruteForce) {
  BipartiteGraph g = MakeRandomGraph({8, 9, 0.45, 38});
  TraversalOptions opts = MakeITraversalOptions(1);
  opts.anchored_side = Side::kRight;
  opts.theta_left = opts.theta_right = 2;
  opts.prune_small = true;
  EXPECT_EQ(CollectWith(g, opts),
            FilterBySize(BruteForceMaximalBiplexes(g, 1), 2, 2));
}

// ------------------------------------------- pinned threads=1 behaviour --

// FNV-1a over the emission sequence, each solution as |L|, L, |R|, R.
class EmissionDigest {
 public:
  void Add(const Biplex& b) {
    Word(static_cast<uint32_t>(b.left.size()));
    for (VertexId v : b.left) Word(v);
    Word(static_cast<uint32_t>(b.right.size()));
    for (VertexId u : b.right) Word(u);
    ++count_;
  }
  uint64_t value() const { return h_; }
  uint64_t count() const { return count_; }

 private:
  void Word(uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
  uint64_t count_ = 0;
};

struct GoldenRun {
  uint64_t digest;
  uint64_t emitted;
  uint64_t solutions_found;
  uint64_t dedup_hits;
  uint64_t links;
};

void ExpectGolden(const char* what, const EmissionDigest& d,
                  const TraversalStats& s, const GoldenRun& want) {
  EXPECT_TRUE(s.completed) << what;
  EXPECT_EQ(d.value(), want.digest) << what;
  EXPECT_EQ(d.count(), want.emitted) << what;
  EXPECT_EQ(s.solutions_found, want.solutions_found) << what;
  EXPECT_EQ(s.dedup_hits, want.dedup_hits) << what;
  EXPECT_EQ(s.links, want.links) << what;
}

// The engine is single-threaded, so the emission order and the work
// counters are functions of the graph and the options alone. These values
// pin them: a change to the dedup store, the frame hand-off or any
// traversal layer that alters the order or the counters shows up here.
TEST(GoldenTraversal, ITraversalEmissionOrderAndCounters) {
  struct Case {
    uint64_t seed;
    size_t nl, nr, m;
    int k;
    GoldenRun want;
  };
  const Case cases[] = {
      {3, 14, 14, 60, 1, {0x3a0a2e99eab63b2dull, 940, 940, 1528, 2467}},
      {3, 14, 14, 60, 2, {0x129788c1917a3e4bull, 11886, 11886, 42957, 54842}},
      {8, 18, 16, 90, 1, {0xbfa01871054d1e44ull, 2524, 2524, 5045, 7568}},
      {8, 18, 16, 90, 2,
       {0x644576ce26b77d1ull, 42629, 42629, 185926, 228554}},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const BipartiteGraph g = ErdosRenyiBipartite(c.nl, c.nr, c.m, &rng);
    EmissionDigest d;
    TraversalEngine engine(g, MakeITraversalOptions(c.k));
    const TraversalStats s = engine.Run([&](const Biplex& b) {
      d.Add(b);
      return true;
    });
    const std::string what = "seed=" + std::to_string(c.seed) +
                             " k=" + std::to_string(c.k);
    ExpectGolden(what.c_str(), d, s, c.want);
  }
}

TEST(GoldenTraversal, LargeMbpEmissionOrderAndCounters) {
  Rng rng(12);
  const BipartiteGraph base = ErdosRenyiBipartite(60, 60, 420, &rng);
  const BipartiteGraph g = PlantDenseBlock(base, 8, 8, 0.9, &rng);
  LargeMbpOptions opts;
  opts.k = KPair::Uniform(1);
  opts.theta_left = 3;
  opts.theta_right = 3;
  EmissionDigest d;
  const LargeMbpStats s = LargeMbpEngine(g, opts).Run([&](const Biplex& b) {
    d.Add(b);
    return true;
  });
  EXPECT_TRUE(s.completed);
  ExpectGolden("large-mbp", d, s.traversal,
               {0x398d9dfcee64957dull, 14673, 40319, 28821, 69139});
}

}  // namespace
}  // namespace kbiplex
