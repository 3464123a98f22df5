// Google-benchmark micro benchmarks for the core primitives: graph
// construction, core decomposition, EnumAlmostSat, maximal extension,
// edge tests and sorted-list lookups. These track the constant factors
// behind the figure-level harnesses.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "core/biplex.h"
#include "core/enum_almost_sat.h"
#include "graph/core_decomposition.h"
#include "graph/generators.h"
#include "util/dynamic_bitset.h"
#include "util/random.h"

namespace kbiplex {
namespace {

void BM_GraphBuild(benchmark::State& state) {
  const size_t edges = static_cast<size_t>(state.range(0));
  Rng rng(4);
  auto g0 = ErdosRenyiBipartite(edges / 8, edges / 8, edges, &rng);
  auto edge_list = g0.Edges();
  for (auto _ : state) {
    auto g =
        BipartiteGraph::FromEdges(edges / 8, edges / 8, edge_list);
    benchmark::DoNotOptimize(g.NumEdges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges));
}
BENCHMARK(BM_GraphBuild)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_CoreDecomposition(benchmark::State& state) {
  const size_t edges = static_cast<size_t>(state.range(0));
  Rng rng(5);
  auto g = PowerLawBipartiteAsym(edges / 4, edges / 16, edges, 3.0, 2.2,
                                 &rng);
  for (auto _ : state) {
    auto core = AlphaBetaCore(g, 3, 3);
    benchmark::DoNotOptimize(core.left.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges));
}
BENCHMARK(BM_CoreDecomposition)->Arg(100000)->Arg(1000000);

// One EnumAlmostSat call per iteration, on a solution iTraversal reaches
// and a random outside left vertex. The graph is Crime: on Writer, the
// set-up run at k >= 2 never reaches its solutions. The set-up stops at
// 500k links: k = 2 reaches its 50 solutions in 321,750, while at k = 3
// the first frame's near-H0 batch alone exceeds the cap (uncapped, it
// runs past a 4 GB address-space limit), so /3 ends in the "no
// solutions" skip.
void BM_EnumAlmostSat(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto g = bench::MakeDataset(bench::FindDataset("Crime"));
  std::vector<Biplex> sols;
  CallbackSink sink([&](const Biplex& b) {
    // Skip the giant near-H0 solutions: with |R| in the thousands the
    // subset enumeration is O(|R|^k) and would swamp the benchmark.
    if (b.Size() <= 300) sols.push_back(b);
    return true;
  });
  EnumerateRequest request = bench::MakeRequest("itraversal", k, 50, 0);
  request.max_links = 500000;
  Enumerator(g).Run(request, &sink);
  if (sols.empty()) {
    state.SkipWithError("no solutions");
    return;
  }
  Rng rng(6);
  size_t i = 0;
  for (auto _ : state) {
    const Biplex& h = sols[i++ % sols.size()];
    VertexId v;
    do {
      v = static_cast<VertexId>(rng.NextBelow(g.NumLeft()));
    } while (sorted::Contains(h.left, v));
    size_t found = 0;
    EnumAlmostSat(g, h, Side::kLeft, v, k, EnumAlmostSatOptions{},
                  [&](const Biplex&) {
                    ++found;
                    return true;
                  });
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_EnumAlmostSat)->Arg(1)->Arg(2)->Arg(3);

// BM_EnumAlmostSat's calls with iTraversal's Step 3 asked on every local
// solution: the right-shrinking test, then the anchored extension of the
// solutions it keeps. Args: k, and whether a random fifth of the left
// side is excluded (filtering Step 2 and stopping extensions).
void BM_LocalStep3(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const bool exclusion = state.range(1) != 0;
  auto g = bench::MakeDataset(bench::FindDataset("Crime"));
  std::vector<Biplex> sols;
  CallbackSink sink([&](const Biplex& b) {
    if (b.Size() <= 300) sols.push_back(b);
    return true;
  });
  Enumerator(g).Run(bench::MakeRequest("itraversal", k, 50, 0), &sink);
  if (sols.empty()) {
    state.SkipWithError("no solutions");
    return;
  }
  Rng rng(6);
  DynamicBitset excluded(g.NumLeft());
  for (VertexId x = 0; exclusion && x < g.NumLeft(); ++x) {
    if (rng.NextBelow(5) == 0) excluded.Set(x);
  }
  EnumAlmostSatOptions opts;
  EnumAlmostSatWorkspace ws;
  opts.workspace = &ws;
  if (exclusion) opts.excluded_anchored = &excluded;
  Biplex out;
  size_t i = 0;
  for (auto _ : state) {
    const Biplex& h = sols[i++ % sols.size()];
    VertexId v;
    do {
      v = static_cast<VertexId>(rng.NextBelow(g.NumLeft()));
    } while (sorted::Contains(h.left, v) || excluded.Test(v));
    size_t grown = 0;
    auto step3 = [&](const LocalStep3& s) {
      if (!s.OppositeAddable()) {
        grown += s.ExtendAnchored(&out).size();
      }
      return true;
    };
    EnumAlmostSat(g, h, Side::kLeft, v, KPair::Uniform(k), opts, step3);
    benchmark::DoNotOptimize(grown);
  }
}
BENCHMARK(BM_LocalStep3)->ArgsProduct({{1, 2}, {0, 1}});

void BM_ExtendToMaximal(benchmark::State& state) {
  auto g = bench::MakeDataset(bench::FindDataset("Opsahl"));
  MaximalExtender ext(g, 1);
  Rng rng(7);
  for (auto _ : state) {
    Biplex b;
    b.left.push_back(static_cast<VertexId>(rng.NextBelow(g.NumLeft())));
    ext.Extend(&b, true, true);
    benchmark::DoNotOptimize(b.Size());
  }
}
BENCHMARK(BM_ExtendToMaximal);

// The right-shrinking filter on non-maximal k-biplexes: maximal ones with
// one vertex dropped, so both the slackless-member branch and the
// addable answer are exercised.
void BM_AnyAddable(benchmark::State& state) {
  auto g = bench::MakeDataset(bench::FindDataset("Opsahl"));
  MaximalExtender ext(g, 1);
  Rng rng(8);
  std::vector<Biplex> pool;
  while (pool.size() < 64) {
    // Seed with a star around a left vertex so the right side is nonempty.
    const auto v = static_cast<VertexId>(rng.NextBelow(g.NumLeft()));
    if (g.LeftDegree(v) < 2) continue;
    auto nbrs = g.LeftNeighbors(v);
    Biplex b{{v}, {nbrs.begin(), nbrs.end()}};
    ext.Extend(&b, true, true);
    sorted::Erase(&b.right, b.right[rng.NextBelow(b.right.size())]);
    pool.push_back(std::move(b));
  }
  size_t i = 0;
  for (auto _ : state) {
    const Biplex& b = pool[i++ % pool.size()];
    benchmark::DoNotOptimize(ext.AnyAddable(b, Side::kRight));
    benchmark::DoNotOptimize(ext.AnyAddable(b, Side::kLeft));
  }
}
BENCHMARK(BM_AnyAddable);

void BM_ITraversalFirst100(benchmark::State& state) {
  auto g = bench::MakeDataset(bench::FindDataset("Crime"));
  Enumerator enumerator(g);
  for (auto _ : state) {
    CountingSink sink;
    enumerator.Run(bench::MakeRequest("itraversal", 1, 100, 0), &sink);
    benchmark::DoNotOptimize(sink.count());
  }
}
BENCHMARK(BM_ITraversalFirst100);

void BM_AdjacencyTest(benchmark::State& state) {
  Rng rng(8);
  auto g = ErdosRenyiBipartite(2000, 2000, 200000, &rng);
  std::vector<std::pair<VertexId, VertexId>> probes;
  for (size_t i = 0; i < 1024; ++i) {
    probes.emplace_back(static_cast<VertexId>(rng.NextBelow(2000)),
                        static_cast<VertexId>(rng.NextBelow(2000)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [l, r] = probes[i++ & 1023];
    benchmark::DoNotOptimize(g.IsAdjacent(Side::kLeft, l, r));
  }
}
BENCHMARK(BM_AdjacencyTest);

void BM_SortedContains(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<VertexId> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<VertexId>(2 * i));
  Rng rng(10);
  size_t i = 0;
  std::vector<VertexId> probes;
  for (size_t p = 0; p < 256; ++p) {
    probes.push_back(static_cast<VertexId>(rng.NextBelow(2 * n + 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sorted::Contains(v, probes[i++ & 255]));
  }
}
BENCHMARK(BM_SortedContains)->Arg(4)->Arg(16)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace kbiplex

BENCHMARK_MAIN();
