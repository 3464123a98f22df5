// Extension benchmark (not in the paper): asymmetric disconnection budgets
// (k_l, k_r), the generalization Section 2 mentions. Reports the number of
// maximal biplexes and the time to the first 1000 for a grid of budgets on
// the Opsahl stand-in, demonstrating that a loose budget on one side is
// much cheaper than loose budgets on both.
#include <iostream>
#include <string>

#include "bench_common.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const double budget = RunBudgetSeconds(quick);

  std::cout << "== Extension: asymmetric budgets (k_l, k_r), Opsahl "
               "stand-in, first 1000 MBPs ==\n";
  BipartiteGraph g = MakeDataset(FindDataset("Opsahl"));
  TextTable t({"k_l", "k_r", "time (s)", "#returned"});
  for (int kl = 1; kl <= 2; ++kl) {
    for (int kr = 1; kr <= 3; ++kr) {
      EnumerateRequest req = MakeRequest("itraversal", 1, 1000, budget);
      req.k = KPair{kl, kr};
      EnumerateStats stats = RunCounting(g, req);
      const bool finished = FinishedFirstN(stats, 1000);
      t.AddRow({std::to_string(kl), std::to_string(kr),
                finished ? FormatSeconds(stats.seconds)
                         : FormatSeconds(stats.seconds) + "*",
                std::to_string(stats.solutions)});
    }
  }
  t.Print(std::cout);
  std::cout << "\n(*: " << budget
            << "s budget hit; every configuration is validated against an "
               "exhaustive oracle in tests/asymmetric_k_test.cc)\n";
  return 0;
}
