// Table 1: the real-dataset summary. Prints the paper's original sizes
// next to the synthetic stand-ins this repository uses offline.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  std::cout << "== Table 1: real datasets and their offline stand-ins ==\n";
  TextTable t({"Name", "Category", "|L| (paper)", "|R| (paper)",
               "|E| (paper)", "scale", "|L| (ours)", "|R| (ours)",
               "|E| (ours)", "density"});
  for (const DatasetSpec& spec : StandInDatasets()) {
    BipartiteGraph g = MakeDataset(spec);
    t.AddRow({spec.name, spec.category, std::to_string(spec.paper_left),
              std::to_string(spec.paper_right),
              std::to_string(spec.paper_edges),
              "1/" + std::to_string(spec.scale), std::to_string(g.NumLeft()),
              std::to_string(g.NumRight()), std::to_string(g.NumEdges()),
              FormatDouble(g.EdgeDensity(), 2)});
  }
  t.Print(std::cout);
  std::cout << "\nStand-ins are seeded synthetic graphs (see DESIGN.md); "
               "the four smallest are full-size, larger ones are scaled by "
               "the listed factor.\n";
  return 0;
}
