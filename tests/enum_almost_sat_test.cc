#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "api/enumerator.h"
#include "baselines/inflation_enum.h"
#include "core/brute_force.h"
#include "core/enum_almost_sat.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::MakeRandomGraph;
using testing_support::ToString;

/// Reference implementation: local solutions of (A ∪ {v}, B) are the
/// maximal k-biplexes of the induced almost-satisfying subgraph that
/// contain v.
std::vector<Biplex> LocalOracle(const BipartiteGraph& g, const Biplex& h,
                                Side v_side, VertexId v, int k) {
  Biplex almost = h;
  sorted::Insert(&almost.MutableSideSet(v_side), v);
  InducedSubgraph sub = Induce(g, almost.left, almost.right);
  const std::vector<VertexId>& v_map =
      v_side == Side::kLeft ? sub.left_map : sub.right_map;
  const VertexId v_compact = static_cast<VertexId>(
      std::lower_bound(v_map.begin(), v_map.end(), v) - v_map.begin());

  std::vector<Biplex> out;
  for (const Biplex& loc : BruteForceMaximalBiplexes(sub.graph, k)) {
    if (!sorted::Contains(loc.SideSet(v_side), v_compact)) continue;
    Biplex mapped;
    for (VertexId x : loc.left) mapped.left.push_back(sub.left_map[x]);
    for (VertexId x : loc.right) mapped.right.push_back(sub.right_map[x]);
    out.push_back(std::move(mapped));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Biplex> RunVariant(const BipartiteGraph& g, const Biplex& h,
                               Side v_side, VertexId v, int k,
                               LRefinement l, RRefinement r,
                               EnumAlmostSatStats* stats = nullptr) {
  EnumAlmostSatOptions opts;
  opts.l_variant = l;
  opts.r_variant = r;
  std::vector<Biplex> out;
  EnumAlmostSat(g, h, v_side, v, k, opts,
                [&](const Biplex& b) {
                  out.push_back(b);
                  return true;
                },
                stats);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Biplex> RunInflationVariant(const BipartiteGraph& g,
                                        const Biplex& h, Side v_side,
                                        VertexId v, int k) {
  std::vector<Biplex> out;
  EnumAlmostSatByInflation(g, h, v_side, v, k, [&](const Biplex& b) {
    out.push_back(b);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(EnumAlmostSat, RunningExampleLocalSolution) {
  // Example 3.1 of the paper: from H0 = ({v4}, {u0..u4}) with k = 1,
  // including v0 must yield local solutions that all contain v0 and keep
  // v0's neighbors.
  auto g = RunningExampleGraph();
  Biplex h0{{4}, {0, 1, 2, 3, 4}};
  ASSERT_TRUE(IsKBiplex(g, h0, 1));
  auto locals =
      RunVariant(g, h0, Side::kLeft, 0, 1, LRefinement::kL20,
                 RRefinement::kR20);
  auto expect = LocalOracle(g, h0, Side::kLeft, 0, 1);
  EXPECT_EQ(locals, expect) << "got:\n"
                            << ToString(locals) << "want:\n"
                            << ToString(expect);
  for (const Biplex& loc : locals) {
    EXPECT_TRUE(sorted::Contains(loc.left, 0));
    // Lemma 4.1: every right neighbor of v0 within R is kept.
    for (VertexId u : g.LeftNeighbors(0)) {
      EXPECT_TRUE(sorted::Contains(loc.right, u)) << ToString(loc);
    }
  }
}

struct VariantCase {
  LRefinement l;
  RRefinement r;
};

class EnumAlmostSatSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

// The core property test: on random graphs, every (solution, v) pair must
// produce exactly the oracle's local solutions, for all four refinement
// combinations and for the inflation-based implementation.
TEST_P(EnumAlmostSatSweep, AllVariantsMatchOracle) {
  const int k = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  auto g = MakeRandomGraph({5, 5, 0.45, seed * 13 + 1});
  const auto solutions = BruteForceMaximalBiplexes(g, k);
  const VariantCase variants[] = {
      {LRefinement::kL10, RRefinement::kR10},
      {LRefinement::kL10, RRefinement::kR20},
      {LRefinement::kL20, RRefinement::kR10},
      {LRefinement::kL20, RRefinement::kR20},
  };
  for (const Biplex& h : solutions) {
    for (Side side : {Side::kLeft, Side::kRight}) {
      const size_t n = g.NumOnSide(side);
      for (VertexId v = 0; v < n; ++v) {
        if (sorted::Contains(h.SideSet(side), v)) continue;
        auto expect = LocalOracle(g, h, side, v, k);
        for (const VariantCase& vc : variants) {
          auto got = RunVariant(g, h, side, v, k, vc.l, vc.r);
          ASSERT_EQ(got, expect)
              << "k=" << k << " seed=" << seed << " H=" << ToString(h)
              << " side=" << (side == Side::kLeft ? "L" : "R") << " v=" << v
              << "\ngot:\n"
              << ToString(got) << "want:\n"
              << ToString(expect);
        }
        auto inflation = RunInflationVariant(g, h, side, v, k);
        ASSERT_EQ(inflation, expect)
            << "inflation impl mismatch, k=" << k << " seed=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnumAlmostSatSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)));

TEST(EnumAlmostSat, L20PrunesAtLeastAsMuchAsL10) {
  auto g = MakeRandomGraph({6, 6, 0.5, 99});
  for (const Biplex& h : BruteForceMaximalBiplexes(g, 2)) {
    for (VertexId v = 0; v < g.NumLeft(); ++v) {
      if (sorted::Contains(h.left, v)) continue;
      EnumAlmostSatStats s10, s20;
      auto a = RunVariant(g, h, Side::kLeft, v, 2, LRefinement::kL10,
                          RRefinement::kR20, &s10);
      auto b = RunVariant(g, h, Side::kLeft, v, 2, LRefinement::kL20,
                          RRefinement::kR20, &s20);
      ASSERT_EQ(a, b);
      EXPECT_LE(s20.a_subsets, s10.a_subsets);
    }
  }
}

TEST(EnumAlmostSat, R20PrunesAtLeastAsMuchAsR10) {
  auto g = MakeRandomGraph({6, 6, 0.5, 77});
  for (const Biplex& h : BruteForceMaximalBiplexes(g, 2)) {
    for (VertexId v = 0; v < g.NumLeft(); ++v) {
      if (sorted::Contains(h.left, v)) continue;
      EnumAlmostSatStats s10, s20;
      auto a = RunVariant(g, h, Side::kLeft, v, 2, LRefinement::kL20,
                          RRefinement::kR10, &s10);
      auto b = RunVariant(g, h, Side::kLeft, v, 2, LRefinement::kL20,
                          RRefinement::kR20, &s20);
      ASSERT_EQ(a, b);
      EXPECT_LE(s20.b_subsets, s10.b_subsets);
    }
  }
}

TEST(EnumAlmostSat, CallbackStopHonored) {
  auto g = MakeRandomGraph({6, 6, 0.6, 123});
  auto solutions = BruteForceMaximalBiplexes(g, 2);
  ASSERT_FALSE(solutions.empty());
  const Biplex& h = solutions.front();
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    if (sorted::Contains(h.left, v)) continue;
    size_t count = 0;
    bool completed = EnumAlmostSat(
        g, h, Side::kLeft, v, 2, EnumAlmostSatOptions{},
        [&](const Biplex&) { return ++count < 1; });
    if (count >= 1) {
      EXPECT_FALSE(completed);
      EXPECT_EQ(count, 1u);
      return;  // found a case that produced a local solution; done
    }
  }
}

TEST(EnumAlmostSat, MinBSizePruneDropsSmallLocals) {
  auto g = MakeRandomGraph({6, 6, 0.5, 5});
  for (const Biplex& h : BruteForceMaximalBiplexes(g, 1)) {
    for (VertexId v = 0; v < g.NumLeft(); ++v) {
      if (sorted::Contains(h.left, v)) continue;
      EnumAlmostSatOptions opts;
      opts.min_b_size = 3;
      std::vector<Biplex> got;
      EnumAlmostSat(g, h, Side::kLeft, v, 1, opts, [&](const Biplex& b) {
        got.push_back(b);
        return true;
      });
      std::sort(got.begin(), got.end());
      std::vector<Biplex> expect;
      for (const Biplex& b : LocalOracle(g, h, Side::kLeft, v, 1)) {
        if (b.right.size() >= 3) expect.push_back(b);
      }
      ASSERT_EQ(got, expect);
    }
  }
}

// ------------------------------------------------------------ workspace --

TEST(EnumAlmostSatWorkspace, ReuseMatchesFreshAllocation) {
  BipartiteGraph g = MakeRandomGraph({8, 8, 0.5, 39});
  // A 1-biplex to expand: take the first solution of the engine.
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.max_results = 4;
  std::vector<Biplex> sols = Enumerator(g).Collect(req);
  ASSERT_FALSE(sols.empty());

  EnumAlmostSatWorkspace ws;
  for (const Biplex& h : sols) {
    for (VertexId v = 0; v < g.NumLeft(); ++v) {
      if (sorted::Contains(h.left, v)) continue;
      std::vector<Biplex> fresh, reused;
      EnumAlmostSatOptions fresh_opts;
      EnumAlmostSat(g, h, Side::kLeft, v, 1, fresh_opts,
                    [&](const Biplex& b) {
                      fresh.push_back(b);
                      return true;
                    });
      EnumAlmostSatOptions reuse_opts;
      reuse_opts.workspace = &ws;  // carries state across iterations
      EnumAlmostSat(g, h, Side::kLeft, v, 1, reuse_opts,
                    [&](const Biplex& b) {
                      reused.push_back(b);
                      return true;
                    });
      ASSERT_EQ(reused, fresh) << "v=" << v;
    }
  }
}

}  // namespace
}  // namespace kbiplex
