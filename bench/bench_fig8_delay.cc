// Figure 8: delay (maximum wait between consecutive outputs, including
// start-up and termination) of the four algorithms.
//   (a) small datasets at k = 1,
//   (b) varying k on the Divorce stand-in.
// The paper measures delay over complete enumerations within a 24h limit;
// to keep this harness laptop-fast we measure the observed maximum delay
// over a budgeted prefix of the enumeration (first 50k outputs or the time
// budget) and mark entries produced by a partial run with '*'. Entries
// with no output inside the budget print INF. Every algorithm runs through
// the unified Enumerator facade, selected by registry name.
#include <iostream>
#include <string>

#include "bench_common.h"
#include "core/delay_tracker.h"
#include "util/table.h"

using namespace kbiplex;
using namespace kbiplex::bench;

namespace {

constexpr uint64_t kMaxOutputs = 50'000;

std::string DelayCell(const DelayTracker& d, bool completed) {
  if (d.outputs() == 0) return "INF";
  std::string s = FormatSeconds(d.MaxDelaySeconds());
  if (!completed) s += "*";
  return s;
}

std::string Measure(const BipartiteGraph& g, const std::string& algo, int k,
                    double budget) {
  EnumerateRequest req = MakeRequest(algo, k, kMaxOutputs, budget);
  DelayTracker d;
  d.Start();
  CallbackSink sink([&](const Biplex&) {
    d.RecordOutput();
    return true;
  });
  EnumerateStats stats = Enumerator(g).Run(req, &sink);
  if (stats.completed) d.Finish();
  return DelayCell(d, stats.completed);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const double budget = quick ? 3.0 : 60.0;

  std::cout << "== Figure 8(a): delay on small datasets (k=1) ==\n";
  TextTable ta({"Dataset", "iMB", "FaPlexen", "bTraversal", "iTraversal"});
  for (const DatasetSpec& spec : SmallDatasets()) {
    BipartiteGraph g = MakeDataset(spec);
    auto cell = [&](const std::string& algo) {
      return Measure(g, algo, 1, budget);
    };
    ta.AddRow({spec.name, cell("imb"), cell("inflation"),
               cell("btraversal"), cell("itraversal")});
  }
  ta.Print(std::cout);

  std::cout << "\n== Figure 8(b): delay vs k (Divorce stand-in) ==\n";
  BipartiteGraph divorce = MakeDataset(FindDataset("Divorce"));
  TextTable tk({"k", "iMB", "FaPlexen", "bTraversal", "iTraversal"});
  const int kmax = quick ? 3 : 4;
  for (int k = 1; k <= kmax; ++k) {
    auto cell = [&](const std::string& algo) {
      return Measure(divorce, algo, k, budget);
    };
    tk.AddRow({std::to_string(k), cell("imb"), cell("inflation"),
               cell("btraversal"), cell("itraversal")});
  }
  tk.Print(std::cout);

  std::cout << "\n(delay = max gap between consecutive outputs; *: "
               "measured over a partial run ("
            << budget << "s / " << kMaxOutputs
            << " outputs); INF: no output inside the budget)\n";
  return 0;
}
