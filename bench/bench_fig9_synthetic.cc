// Figure 9: scalability on synthetic Erdős–Rényi bipartite graphs,
// returning the first 1,000 MBPs with k = 1.
//   (a) varying the number of vertices at edge density 10,
//   (b) varying the edge density at a fixed vertex count.
// Edge density is the paper's |E| / (|L| + |R|).
#include <iostream>
#include <string>

#include "bench_common.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

namespace {

std::string RunCell(const BipartiteGraph& g, const std::string& algo,
                    double budget) {
  EnumerateStats stats = RunCounting(g, MakeRequest(algo, 1, 1000, budget));
  if (!stats.completed && stats.solutions < 1000 &&
      stats.seconds >= budget) {
    return "INF";
  }
  return FormatSeconds(stats.seconds);
}

BipartiteGraph MakeEr(size_t vertices, double density, uint64_t seed) {
  Rng rng(seed);
  const size_t nl = vertices / 2;
  const size_t nr = vertices - nl;
  const size_t edges = static_cast<size_t>(density * vertices);
  return ErdosRenyiBipartite(nl, nr, edges, &rng);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const double budget = RunBudgetSeconds(quick);

  std::cout << "== Figure 9(a): varying #vertices (ER, density 10, k=1, "
               "first 1000 MBPs) ==\n";
  TextTable ta({"#vertices", "bTraversal", "iTraversal"});
  std::vector<size_t> sizes = quick
                                  ? std::vector<size_t>{10'000, 100'000,
                                                        1'000'000}
                                  : std::vector<size_t>{10'000, 100'000,
                                                        1'000'000,
                                                        10'000'000};
  for (size_t n : sizes) {
    BipartiteGraph g = MakeEr(n, 10.0, 42 + n);
    ta.AddRow({std::to_string(n), RunCell(g, "btraversal", budget),
               RunCell(g, "itraversal", budget)});
  }
  ta.Print(std::cout);

  std::cout << "\n== Figure 9(b): varying edge density (ER, "
            << (quick ? 20'000 : 100'000)
            << " vertices, k=1, first 1000 MBPs) ==\n";
  const size_t fixed_n = quick ? 20'000 : 100'000;
  TextTable tb({"density", "bTraversal", "iTraversal"});
  for (double density : {0.1, 1.0, 10.0, 100.0}) {
    BipartiteGraph g = MakeEr(fixed_n, density, 77);
    tb.AddRow({FormatDouble(density, 1), RunCell(g, "btraversal", budget),
               RunCell(g, "itraversal", budget)});
  }
  tb.Print(std::cout);

  std::cout << "\n(INF: " << budget
            << "s budget expired before 1000 MBPs were returned)\n";
  return 0;
}
