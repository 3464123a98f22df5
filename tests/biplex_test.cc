#include <algorithm>

#include <gtest/gtest.h>

#include "core/biplex.h"
#include "core/brute_force.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;
using testing_support::RandomGraphCase;
using testing_support::ToString;

TEST(BiplexKey, DistinctBiplexesDistinctKeys) {
  // (|L|, ids...) framing distinguishes {1}|{2} from {1,2}|{}, and the
  // side a vertex sits on is part of the key.
  const std::vector<Biplex> cases = {
      {{}, {}}, {{3}, {}}, {{}, {3}}, {{1}, {2}}, {{1, 2}, {}}, {{}, {1, 2}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    for (size_t j = i + 1; j < cases.size(); ++j) {
      EXPECT_NE(EncodeBiplexKey(cases[i]), EncodeBiplexKey(cases[j]))
          << ToString(cases[i]) << " vs " << ToString(cases[j]);
    }
  }
}

TEST(IsKBiplex, Definition) {
  // Complete 2x2 minus one edge.
  auto g = MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}});
  Biplex all{{0, 1}, {0, 1}};
  EXPECT_FALSE(IsKBiplex(g, all, 0));
  EXPECT_TRUE(IsKBiplex(g, all, 1));
  Biplex sub{{0}, {0, 1}};
  EXPECT_TRUE(IsKBiplex(g, sub, 0));
}

TEST(IsKBiplex, EmptySidesAreAlwaysBiplexes) {
  auto g = MakeGraph(2, 2, {});
  EXPECT_TRUE(IsKBiplex(g, Biplex{}, 1));
  EXPECT_TRUE(IsKBiplex(g, Biplex{{0, 1}, {}}, 1));
  EXPECT_TRUE(IsKBiplex(g, Biplex{{}, {0, 1}}, 1));
}

TEST(HereditaryProperty, SubgraphsOfBiplexesAreBiplexes) {
  Rng rng(21);
  auto g = ErdosRenyiProbBipartite(6, 6, 0.5, &rng);
  auto solutions = BruteForceMaximalBiplexes(g, 1);
  for (const Biplex& b : solutions) {
    // Drop each single vertex; the rest must stay a 1-biplex.
    for (VertexId v : b.left) {
      Biplex sub = b;
      sorted::Erase(&sub.left, v);
      EXPECT_TRUE(IsKBiplex(g, sub, 1)) << ToString(sub);
    }
    for (VertexId u : b.right) {
      Biplex sub = b;
      sorted::Erase(&sub.right, u);
      EXPECT_TRUE(IsKBiplex(g, sub, 1)) << ToString(sub);
    }
  }
}

TEST(CanAdd, RespectsBothSidesBudgets) {
  // g: left {0,1}, right {0,1,2}; edges make right 0 miss both lefts.
  auto g = MakeGraph(2, 3, {{0, 1}, {0, 2}, {1, 1}, {1, 2}});
  Biplex b{{0, 1}, {1, 2}};
  ASSERT_TRUE(IsKBiplex(g, b, 1));
  // Adding right 0 gives it two disconnections (k=1 forbids).
  EXPECT_FALSE(CanAdd(g, b, Side::kRight, 0, 1));
  EXPECT_TRUE(CanAdd(g, b, Side::kRight, 0, 2));
}

TEST(CanAdd, MemberNotAddable) {
  auto g = MakeGraph(2, 2, {{0, 0}, {1, 1}});
  Biplex b{{0}, {0}};
  EXPECT_FALSE(CanAdd(g, b, Side::kLeft, 0, 1));
}

TEST(IsMaximalKBiplex, AgreesWithBruteForceDefinition) {
  Rng rng(33);
  auto g = ErdosRenyiProbBipartite(5, 5, 0.5, &rng);
  auto maximal = BruteForceMaximalBiplexes(g, 1);
  for (const Biplex& b : maximal) {
    EXPECT_TRUE(IsMaximalKBiplex(g, b, 1)) << ToString(b);
  }
  // A strict subset of a maximal solution is not maximal.
  for (const Biplex& b : maximal) {
    if (b.left.empty()) continue;
    Biplex sub = b;
    sub.left.erase(sub.left.begin());
    EXPECT_FALSE(IsMaximalKBiplex(g, sub, 1)) << ToString(sub);
  }
}

TEST(MaximalExtender, ExtendsToMaximal) {
  Rng rng(44);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto g = MakeRandomGraph({6, 6, 0.4, seed});
    MaximalExtender ext(g, 1);
    Biplex b;  // empty seed
    ext.Extend(&b, true, true);
    EXPECT_TRUE(IsMaximalKBiplex(g, b, 1)) << "seed=" << seed << ToString(b);
  }
}

TEST(MaximalExtender, DeterministicForSameSeed) {
  auto g = RunningExampleGraph();
  MaximalExtender ext(g, 1);
  Biplex a{{1}, {0, 1}};
  Biplex b = a;
  ext.Extend(&a, true, true);
  ext.Extend(&b, true, true);
  EXPECT_EQ(a, b);
}

TEST(MaximalExtender, GrowLeftOnlyKeepsRightFixed) {
  auto g = RunningExampleGraph();
  MaximalExtender ext(g, 1);
  Biplex b{{}, {0, 1, 2, 3, 4}};
  ext.Extend(&b, /*grow_left=*/true, /*grow_right=*/false);
  EXPECT_EQ(b.right.size(), 5u);
  // v4 misses only u4, so it joins; all others miss >= 2.
  EXPECT_EQ(b.left, (std::vector<VertexId>{4}));
  EXPECT_TRUE(IsKBiplex(g, b, 1));
}

TEST(MaximalExtender, ExtensionPreservesSeed) {
  Rng rng(55);
  auto g = ErdosRenyiProbBipartite(7, 7, 0.5, &rng);
  MaximalExtender ext(g, 2);
  Biplex seed{{2}, {3}};
  ASSERT_TRUE(IsKBiplex(g, seed, 2));
  Biplex out = seed;
  ext.Extend(&out, true, true);
  EXPECT_TRUE(sorted::IsSubset(seed.left, out.left));
  EXPECT_TRUE(sorted::IsSubset(seed.right, out.right));
  EXPECT_TRUE(IsMaximalKBiplex(g, out, 2));
}

TEST(MaximalExtender, AnyAddableMatchesDefinition) {
  Rng rng(66);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto g = MakeRandomGraph({5, 5, 0.5, seed + 100});
    MaximalExtender ext(g, 1);
    for (const Biplex& b : BruteForceMaximalBiplexes(g, 1)) {
      EXPECT_FALSE(ext.AnyAddable(b, Side::kLeft));
      EXPECT_FALSE(ext.AnyAddable(b, Side::kRight));
    }
  }
}

// Step 3's exact function: one pass over each grown side in ascending id
// order, adding v iff CanAdd holds against the set built so far.
Biplex ReferenceExtend(const BipartiteGraph& g, Biplex b, KPair k,
                       bool grow_left, bool grow_right) {
  for (Side side : {Side::kLeft, Side::kRight}) {
    if (!(side == Side::kLeft ? grow_left : grow_right)) continue;
    for (VertexId v = 0; v < g.NumOnSide(side); ++v) {
      if (CanAdd(g, b, side, v, k)) sorted::Insert(&b.MutableSideSet(side), v);
    }
  }
  return b;
}

bool ReferenceAnyAddable(const BipartiteGraph& g, const Biplex& b,
                         Side side, KPair k) {
  for (VertexId v = 0; v < g.NumOnSide(side); ++v) {
    if (CanAdd(g, b, side, v, k)) return true;
  }
  return false;
}

// Random k-biplexes of `g`: random subsets that pass IsKBiplex, plus
// maximal ones with one vertex dropped (these leave slackless members
// on the opposite side and a vertex that can rejoin).
std::vector<Biplex> RandomKBiplexes(const BipartiteGraph& g, KPair k,
                                    Rng* rng) {
  std::vector<Biplex> out;
  MaximalExtender ext(g, k);
  for (int trial = 0; trial < 40; ++trial) {
    const double density = 0.1 + 0.1 * (trial % 6);
    Biplex b;
    for (VertexId v = 0; v < g.NumLeft(); ++v) {
      if (rng->NextBool(density)) b.left.push_back(v);
    }
    for (VertexId u = 0; u < g.NumRight(); ++u) {
      if (rng->NextBool(density)) b.right.push_back(u);
    }
    if (!IsKBiplex(g, b, k)) continue;
    out.push_back(b);
    ext.Extend(&b, true, true);
    for (Side side : {Side::kLeft, Side::kRight}) {
      const std::vector<VertexId>& set = b.SideSet(side);
      if (set.empty()) continue;
      Biplex sub = b;
      sorted::Erase(&sub.MutableSideSet(side),
                    set[rng->NextBelow(set.size())]);
      out.push_back(sub);
    }
  }
  return out;
}

TEST(MaximalExtender, MatchesReferencePass) {
  const std::vector<KPair> ks = {KPair::Uniform(1), KPair::Uniform(2),
                                 KPair::Uniform(3), KPair{1, 3},
                                 KPair{2, 1}};
  const std::vector<std::pair<bool, bool>> grows = {
      {true, false}, {false, true}, {true, true}};
  size_t checked = 0;
  size_t addable = 0;
  size_t not_addable = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const double p = 0.2 + 0.06 * static_cast<double>(seed % 10);
    auto g = MakeRandomGraph({9, 8, p, seed + 500});
    Rng rng(seed * 131 + 3);
    for (const KPair& k : ks) {
      MaximalExtender ext(g, k);
      for (const Biplex& b : RandomKBiplexes(g, k, &rng)) {
        for (const auto& [grow_left, grow_right] : grows) {
          Biplex out = b;
          ext.Extend(&out, grow_left, grow_right);
          ASSERT_EQ(out, ReferenceExtend(g, b, k, grow_left, grow_right))
              << "k=" << k.left << "/" << k.right << " seed=" << seed
              << " grow=" << grow_left << grow_right << " " << ToString(b);
        }
        for (Side side : {Side::kLeft, Side::kRight}) {
          const bool want = ReferenceAnyAddable(g, b, side, k);
          ASSERT_EQ(ext.AnyAddable(b, side), want)
              << "k=" << k.left << "/" << k.right << " seed=" << seed
              << " side=" << static_cast<int>(side) << " " << ToString(b);
          ++(want ? addable : not_addable);
        }
        ++checked;
      }
    }
  }
  // The sweep must reach both answers of the filter.
  EXPECT_GT(checked, 200u);
  EXPECT_GT(addable, 100u);
  EXPECT_GT(not_addable, 20u);
}

// Property sweep: for random k-biplex seeds, Extend yields a maximal
// k-biplex containing the seed.
class ExtenderSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ExtenderSweep, ExtendAlwaysMaximal) {
  const int k = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  auto g = MakeRandomGraph({6, 5, 0.45, seed});
  MaximalExtender ext(g, k);
  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    Biplex seed_bp;
    for (VertexId v = 0; v < g.NumLeft(); ++v) {
      if (rng.NextBool(0.3)) seed_bp.left.push_back(v);
    }
    for (VertexId u = 0; u < g.NumRight(); ++u) {
      if (rng.NextBool(0.3)) seed_bp.right.push_back(u);
    }
    if (!IsKBiplex(g, seed_bp, k)) continue;
    Biplex out = seed_bp;
    ext.Extend(&out, true, true);
    ASSERT_TRUE(IsMaximalKBiplex(g, out, k))
        << "k=" << k << " seed=" << seed << " " << ToString(out);
    ASSERT_TRUE(sorted::IsSubset(seed_bp.left, out.left));
    ASSERT_TRUE(sorted::IsSubset(seed_bp.right, out.right));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtenderSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)));

}  // namespace
}  // namespace kbiplex
