// Figure 7: running time of iMB, FaPlexen (graph inflation), bTraversal
// and iTraversal when returning the first 1,000 MBPs.
//   (a) across datasets at k = 1,
//   (b)(c) varying k on the Writer and DBLP stand-ins,
//   (d)(e) varying the number of returned MBPs.
// Entries print INF when the per-run time budget was exhausted and OUT
// when the inflation baseline refuses the memory blow-up, mirroring the
// paper's INF/OUT markers. All four algorithms run through the unified
// Enumerator facade, selected by registry name.
#include <iostream>
#include <string>

#include "bench_common.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

namespace {

std::string Cell(const BipartiteGraph& g, const std::string& algo, int k,
                 uint64_t max_results, double budget,
                 size_t max_inflated_edges) {
  EnumerateRequest req = MakeRequest(algo, k, max_results, budget);
  if (algo == "inflation") {
    req.backend_options["max_inflated_edges"] =
        std::to_string(max_inflated_edges);
  }
  return BudgetCell(RunCounting(g, req), max_results);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const double budget = RunBudgetSeconds(quick);
  const uint64_t kFirst = 1000;
  // Mirror the paper's OUT threshold proportionally: FaPlexen dies on
  // Marvel's ~200M inflated edges; our guard is laptop-sized.
  const size_t kMaxInflatedEdges = 3'000'000;

  std::cout << "== Figure 7(a): runtime, first 1000 MBPs, k=1 ==\n";
  TextTable ta({"Dataset", "iMB", "FaPlexen", "bTraversal", "iTraversal"});
  for (const DatasetSpec& spec : StandInDatasets()) {
    BipartiteGraph g = MakeDataset(spec);
    auto cell = [&](const std::string& algo) {
      return Cell(g, algo, 1, kFirst, budget, kMaxInflatedEdges);
    };
    ta.AddRow({spec.name, cell("imb"), cell("inflation"),
               cell("btraversal"), cell("itraversal")});
  }
  ta.Print(std::cout);

  for (const char* name : {"Writer", "DBLP"}) {
    std::cout << "\n== Figure 7(b/c): runtime vs k (" << name
              << " stand-in, first 1000 MBPs) ==\n";
    BipartiteGraph g = MakeDataset(FindDataset(name));
    TextTable tk({"k", "bTraversal", "iTraversal"});
    for (int k = 1; k <= 5; ++k) {
      tk.AddRow({std::to_string(k), Cell(g, "btraversal", k, kFirst, budget, 0),
                 Cell(g, "itraversal", k, kFirst, budget, 0)});
    }
    tk.Print(std::cout);
  }

  for (const char* name : {"Writer", "DBLP"}) {
    std::cout << "\n== Figure 7(d/e): runtime vs #returned MBPs (" << name
              << " stand-in, k=1) ==\n";
    BipartiteGraph g = MakeDataset(FindDataset(name));
    TextTable tn({"#MBPs", "bTraversal", "iTraversal"});
    for (uint64_t n = 1; n <= 100000; n *= 10) {
      tn.AddRow({std::to_string(n), Cell(g, "btraversal", 1, n, budget, 0),
                 Cell(g, "itraversal", 1, n, budget, 0)});
    }
    tn.Print(std::cout);
  }

  std::cout << "\n(*: time budget of " << budget
            << "s hit after partial output; INF: budget hit before any "
               "output; OUT: inflation exceeded the memory guard)\n";
  return 0;
}
