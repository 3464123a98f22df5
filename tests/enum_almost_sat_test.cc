#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "api/enumerator.h"
#include "baselines/inflation_enum.h"
#include "core/brute_force.h"
#include "core/enum_almost_sat.h"
#include "core/itraversal.h"
#include "util/dynamic_bitset.h"
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

// ---------------------------------------------------- non-adjacency record --

/// One EnumAlmostSat call's local solutions in emission order, plus its
/// counters.
struct LocalRun {
  std::vector<Biplex> locals;
  EnumAlmostSatStats stats;
};

LocalRun RunInOrder(const BipartiteGraph& g, const Biplex& h, Side side,
                    VertexId v, KPair k, const EnumAlmostSatOptions& opts) {
  LocalRun run;
  EnumAlmostSat(g, h, side, v, k, opts,
                [&](const Biplex& b) {
                  run.locals.push_back(b);
                  return true;
                },
                &run.stats);
  return run;
}

/// Random k-biplexes of `g`: vertex subsets drawn at random, kept when
/// they are k-biplexes with both sides non-empty.
std::vector<Biplex> RandomKBiplexes(const BipartiteGraph& g, KPair k,
                                    Rng* rng, size_t want) {
  std::vector<Biplex> out;
  for (int attempt = 0; attempt < 400 && out.size() < want; ++attempt) {
    Biplex h;
    for (VertexId x = 0; x < g.NumLeft(); ++x) {
      if (rng->NextBool(0.6)) h.left.push_back(x);
    }
    for (VertexId x = 0; x < g.NumRight(); ++x) {
      if (rng->NextBool(0.6)) h.right.push_back(x);
    }
    if (!h.left.empty() && !h.right.empty() && IsKBiplex(g, h, k)) {
      out.push_back(std::move(h));
    }
  }
  return out;
}

// Every candidate of both sides of H, run through one shared record of H
// (built by the first call), must emit exactly what a cold call emits, in
// the same order and with the same counters, with and without the
// exclusion filter and the Section 5 size prune.
TEST(BiplexNonAdjacency, SharedRecordMatchesColdCalls) {
  const KPair budgets[] = {{1, 1}, {2, 2}, {3, 3}, {1, 3}, {2, 1}};
  size_t calls = 0;
  size_t emitted = 0;
  for (const KPair& k : budgets) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      BipartiteGraph g = MakeRandomGraph({7, 7, 0.55, seed * 31 + 7});
      Rng rng(seed * 101 + static_cast<uint64_t>(k.left * 10 + k.right));
      for (const Biplex& h : RandomKBiplexes(g, k, &rng, 4)) {
        BiplexNonAdjacency shared;
        EnumAlmostSatWorkspace ws;
        uint64_t shared_tests = 0;
        uint64_t merged = 0;  // Σ |B| over the shared-record calls
        for (Side side : {Side::kLeft, Side::kRight}) {
          DynamicBitset excluded;
          excluded.Resize(g.NumOnSide(side));
          for (VertexId x = 0; x < g.NumOnSide(side); ++x) {
            if (rng.NextBool(0.2)) excluded.Set(x);
          }
          const size_t b_size = h.SideSet(Opposite(side)).size();
          for (VertexId v = 0; v < g.NumOnSide(side); ++v) {
            if (sorted::Contains(h.SideSet(side), v)) continue;
            for (bool filtered : {false, true}) {
              EnumAlmostSatOptions cold;
              if (filtered) {
                cold.excluded_anchored = &excluded;
                cold.min_b_size = b_size / 2;
              }
              EnumAlmostSatOptions warm = cold;
              warm.workspace = &ws;
              warm.non_adjacency = &shared;
              const LocalRun want = RunInOrder(g, h, side, v, k, cold);
              const LocalRun got = RunInOrder(g, h, side, v, k, warm);
              ASSERT_EQ(got.locals, want.locals)
                  << "k=(" << k.left << "," << k.right << ") seed=" << seed
                  << " H=" << ToString(h) << " v=" << v
                  << " filtered=" << filtered;
              EXPECT_EQ(got.stats.b_subsets, want.stats.b_subsets);
              EXPECT_EQ(got.stats.a_subsets, want.stats.a_subsets);
              EXPECT_EQ(got.stats.local_solutions, want.stats.local_solutions);
              shared_tests += got.stats.adjacency_tests;
              merged += b_size;
              ++calls;
              emitted += got.locals.size();
            }
          }
        }
        // The shared record was built once, by the first call.
        if (merged != 0) {
          EXPECT_EQ(shared_tests, h.left.size() * h.right.size() + merged);
        }
      }
    }
  }
  EXPECT_GT(calls, 100u);
  EXPECT_GT(emitted, calls);
}

/// One Step-3 query's count by the candidate rule that decides it. The
/// bounding side is L's anchored side for the right-shrinking test and B'
/// for the extension. With no member at budget, the pigeonhole rule takes
/// k + 1 of its members when it has more than k (the cut-off), else every
/// outsider is a candidate (the sweep-only rule).
struct RuleTally {
  size_t at_budget = 0;  // a member of L at its budget
  size_t at_cut = 0;     // none, bounding side of k + 1
  size_t above = 0;      // none, bounding side above k + 1
  size_t sweep = 0;      // none, bounding side of k or fewer

  /// Counts one query; true iff it takes the sweep-only rule.
  bool Count(bool any_at_budget, size_t side_size, size_t k) {
    if (any_at_budget) {
      ++at_budget;
    } else if (side_size == k + 1) {
      ++at_cut;
    } else {
      ++(side_size > k ? above : sweep);
    }
    return !any_at_budget && side_size <= k;
  }
};

/// Local solutions checked by CheckStep3.
struct Step3Tally {
  RuleTally test;                  // right-shrinking tests
  RuleTally extension;             // anchored extensions
  size_t grown = 0;                // extensions that added a vertex
  size_t stopped = 0;              // extensions stopped at an excluded vertex
  size_t grown_past_excluded = 0;  // ... that had more additions to make
};

/// Compares both LocalStep3 answers on the local solution `loc` (anchored
/// side `side`) with MaximalExtender's on a copy. `excluded` is the call's
/// EnumAlmostSatOptions::excluded_anchored (may be null): the extension
/// must stop at the first excluded vertex the full extension adds, and
/// otherwise match it. Returns the number of queries asked that took the
/// sweep-only rule.
size_t CheckStep3(const BipartiteGraph& g, const MaximalExtender& ext,
                  KPair k, Side side, const Biplex& loc,
                  const LocalStep3& step3, const DynamicBitset* excluded,
                  Step3Tally* tally) {
  const Side opp = Opposite(side);
  const size_t ka = static_cast<size_t>(k.ForSide(side));
  const size_t kb = static_cast<size_t>(k.ForSide(opp));
  const std::vector<VertexId>& la = loc.SideSet(side);
  const std::vector<VertexId>& lb = loc.SideSet(opp);
  bool any_slackless = false;
  for (VertexId x : la) any_slackless |= g.DiscCount(side, x, lb) == ka;
  bool any_tight = false;
  for (VertexId u : lb) any_tight |= g.DiscCount(opp, u, la) == kb;
  const size_t sweeps =
      static_cast<size_t>(tally->test.Count(any_slackless, la.size(), kb)) +
      tally->extension.Count(any_tight, lb.size(), ka);

  EXPECT_EQ(step3.OppositeAddable(), ext.AnyAddable(loc, opp))
      << ToString(loc);
  Biplex want = loc;
  ext.Extend(&want, side == Side::kLeft, side == Side::kRight);
  std::vector<VertexId> want_added;
  std::set_difference(want.SideSet(side).begin(), want.SideSet(side).end(),
                      la.begin(), la.end(), std::back_inserter(want_added));
  tally->grown += !want_added.empty();
  Biplex got = loc;
  std::span<const VertexId> added = step3.ExtendAnchored(&got);
  const std::vector<VertexId> got_added(added.begin(), added.end());
  // The early stop happens iff the full extension adds an excluded
  // vertex, and then the list is the full list up to and including the
  // first one, with *out left as L.
  const auto first_excluded =
      excluded == nullptr
          ? want_added.end()
          : std::find_if(want_added.begin(), want_added.end(),
                         [&](VertexId x) { return excluded->Test(x); });
  if (first_excluded == want_added.end()) {
    EXPECT_EQ(got, want) << ToString(loc);
    EXPECT_EQ(got_added, want_added) << ToString(loc);
    return sweeps;
  }
  ++tally->stopped;
  tally->grown_past_excluded += first_excluded + 1 != want_added.end();
  EXPECT_EQ(got_added,
            std::vector<VertexId>(want_added.begin(), first_excluded + 1))
      << ToString(loc);
  EXPECT_EQ(got, loc) << ToString(loc);
  return sweeps;
}

// Step 3 read from the enumerator's data (LocalStep3) decides exactly as
// MaximalExtender does on every local solution: the right-shrinking test
// and the anchored-side extension, also when the extension stops at an
// excluded vertex. The sweep covers asymmetric budgets, both anchored
// sides, exclusion filters, the Section 5 size prune, and local solutions
// under each candidate rule: a member at its budget, the pigeonhole rule
// at and above its cut-off, and the sweep-only case, whose count must
// match the step3_sweeps counter.
TEST(LocalStep3, MatchesMaximalExtenderOnEveryLocalSolution) {
  const std::vector<testing_support::RandomGraphCase> graphs = {
      {9, 10, 0.55, 41},
      {11, 9, 0.3, 42},
      {12, 12, 0.15, 43},
      {8, 8, 0.8, 44},
  };
  const KPair ks[] = {{1, 1}, {2, 2}, {3, 3}, {1, 3}, {2, 1}};
  Step3Tally tally;
  EnumAlmostSatWorkspace ws;  // shared across graphs of every size
  Rng rng(7);
  for (const auto& gc : graphs) {
    const BipartiteGraph g = MakeRandomGraph(gc);
    for (KPair k : ks) {
      MaximalExtender ext(g, k);
      TraversalOptions topts;
      topts.k = k;
      topts.max_results = 12;
      std::vector<Biplex> frames;
      TraversalEngine(g, topts).Run([&](const Biplex& b) {
        frames.push_back(b);
        return true;
      });
      for (const Biplex& h : frames) {
        for (Side side : {Side::kLeft, Side::kRight}) {
          const std::vector<VertexId>& a = h.SideSet(side);
          for (VertexId v = 0; v < g.NumOnSide(side); ++v) {
            if (sorted::Contains(a, v)) continue;
            for (int variant = 0; variant < 4; ++variant) {
              // The exclusion set marks vertices of the whole anchored
              // side, as the traversal's does: members of A filter Step 2,
              // outsiders stop the extension.
              const bool exclusion = (variant & 1) != 0;
              DynamicBitset excl(g.NumOnSide(side));
              for (VertexId x = 0; x < g.NumOnSide(side); ++x) {
                if (exclusion && x != v && rng.NextBelow(5) == 0) excl.Set(x);
              }
              const DynamicBitset* excluded = exclusion ? &excl : nullptr;
              EnumAlmostSatOptions opts;
              opts.workspace = &ws;
              opts.min_b_size = (variant & 2) != 0 ? 3 : 0;
              opts.excluded_anchored = excluded;
              size_t sweeps = 0;
              auto check = [&](const LocalStep3& step3) {
                sweeps += CheckStep3(g, ext, k, side, step3.Solution(), step3,
                                     excluded, &tally);
                return true;
              };
              EnumAlmostSatStats stats;
              EnumAlmostSat(g, h, side, v, k, opts, check, &stats);
              EXPECT_EQ(stats.step3_sweeps, sweeps);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(tally.test.at_budget, 1000u);
  EXPECT_GT(tally.test.at_cut, 100u);
  EXPECT_GT(tally.test.above, 1000u);
  EXPECT_GT(tally.test.sweep, 50u);
  EXPECT_GT(tally.extension.at_budget, 1000u);
  EXPECT_GT(tally.extension.at_cut, 1000u);
  EXPECT_GT(tally.extension.above, 1000u);
  EXPECT_GT(tally.extension.sweep, 1000u);
  EXPECT_GT(tally.grown, 100u);
  EXPECT_GT(tally.stopped, 1000u);
  EXPECT_GT(tally.grown_past_excluded, 1000u);
}

// A member with more than k non-neighbours in H is reported by an
// exception, not an assert, so Release builds keep the check (and the
// record's fixed-stride storage never overflows).
TEST(BiplexNonAdjacency, NonKBiplexThrows) {
  // Left 0 and left 3 miss both right members; left 2 is the candidate.
  BipartiteGraph g =
      BipartiteGraph::FromEdges(4, 2, {{1, 0}, {1, 1}, {2, 0}});
  const Biplex left_heavy{{0, 1}, {0, 1}};  // left 0 misses 2
  const Biplex both_heavy{{0, 3}, {0, 1}};  // every member misses 2
  auto run = [&](const Biplex& h, KPair k) {
    return EnumAlmostSat(g, h, Side::kLeft, 2, k, EnumAlmostSatOptions{},
                         [](const Biplex&) { return true; });
  };
  EXPECT_THROW(run(left_heavy, KPair{1, 1}), std::logic_error);
  EXPECT_THROW(run(left_heavy, KPair{1, 3}), std::logic_error);
  EXPECT_NO_THROW(run(left_heavy, KPair{2, 1}));
  EXPECT_THROW(run(both_heavy, KPair{2, 1}), std::logic_error);
  EXPECT_NO_THROW(run(both_heavy, KPair{2, 2}));

  // A shared record that failed to build reads as not built.
  BiplexNonAdjacency rec;
  EXPECT_THROW(rec.Build(g, both_heavy, KPair{2, 1}), std::logic_error);
  EXPECT_FALSE(rec.built());
  EXPECT_EQ(rec.Build(g, both_heavy, KPair{2, 2}), 4u);
  EXPECT_TRUE(rec.built());
  EXPECT_EQ(rec.Of(Side::kRight, 1).size(), 2u);
}

// A shared record built for another H is reported by an exception in every
// build type: reading it would index past its lists.
TEST(BiplexNonAdjacency, RecordOfAnotherHThrows) {
  BipartiteGraph g = BipartiteGraph::FromEdges(
      4, 3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}, {3, 2}});
  const Biplex small{{0}, {0, 1}};
  const Biplex large{{0, 1}, {0, 1, 2}};
  auto run = [&](const Biplex& h, BiplexNonAdjacency* rec) {
    EnumAlmostSatOptions opts;
    opts.non_adjacency = rec;
    return EnumAlmostSat(g, h, Side::kLeft, 2, KPair{1, 1}, opts,
                         [](const Biplex&) { return true; });
  };
  BiplexNonAdjacency rec;
  ASSERT_EQ(rec.Build(g, small, KPair{1, 1}), 2u);
  EXPECT_THROW(run(large, &rec), std::logic_error);
  EXPECT_NO_THROW(run(small, &rec));
  rec.Clear();
  EXPECT_NO_THROW(run(large, &rec));  // rebuilt for `large`
  EXPECT_EQ(rec.NumMembers(Side::kRight), 3u);
  EXPECT_THROW(run(small, &rec), std::logic_error);
}

}  // namespace
}  // namespace kbiplex
