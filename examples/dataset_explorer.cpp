// Dataset explorer: load or synthesize a bipartite graph, print structure
// statistics ((α,β)-core sizes, degree profile), and sample its maximal
// k-biplexes with a bounded enumeration.
//
//   ./dataset_explorer                  (synthesizes a power-law graph)
//   ./dataset_explorer <edge-list> [k]
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "api/enumerator.h"
#include "graph/core_decomposition.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "util/random.h"

using namespace kbiplex;

int main(int argc, char** argv) {
  BipartiteGraph g;
  int k = 1;
  if (argc >= 2) {
    LoadResult r = LoadEdgeList(argv[1]);
    if (!r.ok()) {
      std::cerr << "failed to load " << argv[1] << ": " << r.error << "\n";
      return 1;
    }
    g = std::move(*r.graph);
    if (argc >= 3) k = std::stoi(argv[2]);
  } else {
    Rng rng(5);
    g = PowerLawBipartiteAsym(5000, 1200, 16000, 2.8, 2.2, &rng);
  }

  std::cout << "Graph: |L| = " << g.NumLeft() << ", |R| = " << g.NumRight()
            << ", |E| = " << g.NumEdges()
            << ", density = " << g.EdgeDensity() << "\n\n";

  // Degree profile.
  size_t lmax = 0, rmax = 0;
  for (VertexId v = 0; v < g.NumLeft(); ++v) {
    lmax = std::max(lmax, g.LeftDegree(v));
  }
  for (VertexId u = 0; u < g.NumRight(); ++u) {
    rmax = std::max(rmax, g.RightDegree(u));
  }
  std::cout << "Max degree: left " << lmax << ", right " << rmax << "\n";

  // Core profile: how fast does the graph peel away?
  std::cout << "(a,a)-core sizes:\n";
  for (size_t a = 1; a <= 6; ++a) {
    CoreResult core = AlphaBetaCore(g, a, a);
    std::cout << "  a=" << a << ": " << core.left.size() << " + "
              << core.right.size() << " vertices\n";
    if (core.Empty()) break;
  }

  // Sample maximal k-biplexes.
  EnumerateRequest req;
  req.k = KPair::Uniform(k);
  req.max_results = 500;
  req.time_budget_seconds = 5;
  size_t count = 0;
  size_t best_size = 0;
  Biplex best;
  Enumerator enumerator(g);
  EnumerateStats stats = enumerator.Run(req, [&](const Biplex& b) {
    ++count;
    if (b.Size() > best_size) {
      best_size = b.Size();
      best = b;
    }
    return true;
  });
  std::cout << "\nSampled " << count << " maximal " << k << "-biplexes in "
            << stats.seconds << " s"
            << (stats.completed ? " (complete enumeration)" : " (bounded)")
            << "\n";
  if (count > 0) {
    std::cout << "Largest sampled: " << best.left.size() << " x "
              << best.right.size() << " vertices\n";
  }
  return 0;
}
