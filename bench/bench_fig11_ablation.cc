// Figure 11: bTraversal vs iTraversal ablation. Measures the number of
// links of the (sparsified) solution graph and the running time for
//   bTraversal, iTraversal-ES-RS, iTraversal-ES, iTraversal
// on the small datasets (a)(b) and varying k on Divorce (c)(d). All four
// configurations share the L2.0+R2.0 EnumAlmostSat for fair comparison,
// exactly as the paper does. Runs hitting the link cap print UPP, runs
// hitting the time budget print INF.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

namespace {

struct Cells {
  std::string links;
  std::string seconds;
};

Cells RunConfig(BenchJsonWriter* writer, const std::string& row,
                const std::string& dataset, const BipartiteGraph& g,
                const std::string& algo, int k, double budget,
                uint64_t max_links) {
  EnumerateRequest req = MakeRequest(algo, k, 0, budget);
  req.max_links = max_links;
  EnumerateStats stats =
      RunCountingLogged(writer, row + "/" + algo, dataset, g, req);
  const uint64_t links = stats.work_units;  // solution-graph links
  Cells c;
  if (links >= max_links) {
    c.links = "UPP";
    c.seconds = "INF";
  } else if (!stats.completed) {
    c.links = std::string(">").append(std::to_string(links));
    c.seconds = "INF";
  } else {
    c.links = std::to_string(links);
    c.seconds = FormatSeconds(stats.seconds);
  }
  return c;
}

// Display name -> registry name of the four Figure 11 configurations,
// weakest to strongest.
std::vector<std::pair<std::string, std::string>> Configs() {
  return {
      {"bTraversal", "btraversal"},
      {"iTraversal-ES-RS", "itraversal-es-rs"},
      {"iTraversal-ES", "itraversal-es"},
      {"iTraversal", "itraversal"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const double budget = RunBudgetSeconds(quick);
  const uint64_t kUpp = quick ? 20'000'000 : 1'000'000'000;
  BenchJsonWriter writer("fig11_ablation");

  std::cout << "== Figure 11(a)(b): solution-graph links and runtime "
               "(k=1) ==\n";
  TextTable t({"Dataset", "Config", "#links", "time (s)"});
  for (const DatasetSpec& spec : SmallDatasets()) {
    BipartiteGraph g = MakeDataset(spec);
    for (const auto& [name, algo] : Configs()) {
      Cells c = RunConfig(&writer, "ab/k=1", spec.name, g, algo, 1,
                          budget, kUpp);
      t.AddRow({spec.name, name, c.links, c.seconds});
    }
  }
  t.Print(std::cout);

  std::cout << "\n== Figure 11(c)(d): varying k (Divorce stand-in) ==\n";
  BipartiteGraph divorce = MakeDataset(FindDataset("Divorce"));
  TextTable tk({"k", "Config", "#links", "time (s)"});
  const int kmax = quick ? 3 : 4;
  for (int k = 1; k <= kmax; ++k) {
    for (const auto& [name, algo] : Configs()) {
      Cells c = RunConfig(&writer, "cd/k=" + std::to_string(k), "Divorce",
                          divorce, algo, k, budget, kUpp);
      tk.AddRow({std::to_string(k), name, c.links, c.seconds});
    }
  }
  tk.Print(std::cout);

  std::cout << "\n(UPP: link cap of " << kUpp
            << " reached; INF: time budget of " << budget
            << "s expired; links shrink as techniques stack up)\n";
  return 0;
}
