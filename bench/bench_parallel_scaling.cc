// Parallel-enumeration scaling: sweeps the EnumerateRequest::threads knob
// over 1/2/4/8 workers for one workload per sharding plan of the parallel
// driver (api/parallel_driver.h):
//
//   brute-force   left-mask range sharding on one dense graph
//   imb           root-branch sharding of the set-enumeration tree
//   itraversal    connected-component sharding (multi-component graph,
//   large-mbp     thresholds chosen so the component plan is safe)
//
// A traversal-family request on one connected component has no parallel
// plan (it runs the sequential engine), so no row times it.
//
// Each row reports wall seconds, the speedup over the 1-thread run, and
// the delivered solution count — which must be identical down the column;
// a mismatch means a sharding bug, and the bench says so loudly.
//
// Speedups track the machine: on a single-core container every row is
// ~1.0x; the >1 numbers need real hardware threads.
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/enumerator.h"
#include "bench_common.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

namespace {

struct Workload {
  std::string name;
  BipartiteGraph graph;
  EnumerateRequest request;  // threads overwritten per run
};

BipartiteGraph MultiComponentGraph(size_t components, size_t side,
                                   double p, uint64_t seed) {
  Rng rng(seed);
  std::vector<BipartiteGraph::Edge> edges;
  for (size_t c = 0; c < components; ++c) {
    BipartiteGraph block = ErdosRenyiProbBipartite(side, side, p, &rng);
    const VertexId off = static_cast<VertexId>(c * side);
    for (const auto& [l, r] : block.Edges()) {
      edges.emplace_back(l + off, r + off);
    }
  }
  return BipartiteGraph::FromEdges(components * side, components * side,
                                   std::move(edges));
}

std::vector<Workload> MakeWorkloads(bool quick) {
  std::vector<Workload> out;
  Rng rng(1234);

  {
    Workload w;
    w.name = "brute-force (mask sharding)";
    const size_t side = quick ? 12 : 14;
    w.graph = ErdosRenyiProbBipartite(side, side, 0.5, &rng);
    w.request.algorithm = "brute-force";
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "imb (root-branch sharding)";
    w.graph = ErdosRenyiProbBipartite(quick ? 24 : 30, quick ? 24 : 30,
                                      0.25, &rng);
    w.request.algorithm = "imb";
    w.request.theta_left = 3;
    w.request.theta_right = 3;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "itraversal (component sharding)";
    w.graph = MultiComponentGraph(8, quick ? 14 : 18, 0.45, 99);
    w.request.algorithm = "itraversal";
    w.request.theta_left = 3;   // safe: theta_l > k_r, theta_r > 2 k_l
    w.request.theta_right = 3;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "large-mbp (component sharding)";
    w.graph = MultiComponentGraph(8, quick ? 16 : 20, 0.4, 77);
    w.request.algorithm = "large-mbp";
    w.request.theta_left = 4;
    w.request.theta_right = 4;
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  BenchJsonWriter writer("parallel_scaling");
  bool consistent = true;
  for (Workload& w : MakeWorkloads(quick)) {
    Enumerator enumerator(w.graph);
    std::cout << "== " << w.name << " (|L|=" << w.graph.NumLeft()
              << ", |R|=" << w.graph.NumRight()
              << ", |E|=" << w.graph.NumEdges() << ", k=1) ==\n";
    TextTable table({"threads", "seconds", "speedup", "solutions"});
    double base_seconds = 0;
    uint64_t base_solutions = 0;
    for (int threads : {1, 2, 4, 8}) {
      w.request.threads = threads;
      EnumerateStats stats;
      CountingSink sink;
      stats = enumerator.Run(w.request, &sink);
      if (!stats.ok()) {
        std::cout << "request rejected: " << stats.error << "\n";
        consistent = false;
        break;
      }
      if (threads == 1) {
        base_seconds = stats.seconds;
        base_solutions = stats.solutions;
      } else if (stats.solutions != base_solutions) {
        consistent = false;
      }
      writer.AddRun(w.request.algorithm + "/threads=" +
                        std::to_string(threads),
                    w.name, w.request, stats);
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    stats.seconds > 0 ? base_seconds / stats.seconds : 1.0);
      table.AddRow({std::to_string(threads), FormatSeconds(stats.seconds),
                    speedup, std::to_string(stats.solutions)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  if (!consistent) {
    std::cout << "ERROR: solution counts diverged across thread counts\n";
    return 1;
  }
  return 0;
}
