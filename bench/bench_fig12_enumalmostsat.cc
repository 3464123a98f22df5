// Figure 12: comparing the EnumAlmostSat implementations — the four
// refinement combinations L{1,2}.0 x R{1,2}.0 and the inflation-based
// variant — on random almost-satisfying graphs built from real solutions.
// Following the paper: collect the first MBPs of a dataset with
// iTraversal, add a random outside left vertex to each, and time every
// implementation on the resulting almost-satisfying graphs.
//
// Also prints the Section 6.2 appendix comparison: left-anchored vs
// right-anchored initial solutions.
#include <iostream>
#include <string>
#include <vector>

#include "baselines/inflation_enum.h"
#include "bench_common.h"
#include "core/enum_almost_sat.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timer.h"
// (Deadline comes from util/timer.h)

using namespace kbiplex;
using namespace kbiplex::bench;

namespace {

struct Workload {
  Biplex solution;
  VertexId v;  // left vertex to include
};

std::vector<Workload> BuildWorkloads(const BipartiteGraph& g, int k,
                                     size_t count, uint64_t seed) {
  EnumerateRequest req = MakeRequest("itraversal", k, count, 5);
  std::vector<Biplex> solutions;
  CallbackSink collect([&](const Biplex& b) {
    solutions.push_back(b);
    return true;
  });
  Enumerator(g).Run(req, &collect);
  Rng rng(seed);
  std::vector<Workload> out;
  for (const Biplex& b : solutions) {
    if (b.left.size() >= g.NumLeft()) continue;
    // Keep typical-size solutions: the handful of giant-R solutions near
    // H0 = (L0, R) make the unrefined L1.0/R1.0 variants astronomically
    // expensive (C(|R|, k) subsets) and would dominate the average.
    if (b.Size() > 300) continue;
    // Pick a random left vertex outside the solution.
    for (int attempt = 0; attempt < 64; ++attempt) {
      VertexId v = static_cast<VertexId>(rng.NextBelow(g.NumLeft()));
      if (!sorted::Contains(b.left, v)) {
        out.push_back({b, v});
        break;
      }
    }
  }
  return out;
}

double TimeVariant(const BipartiteGraph& g,
                   const std::vector<Workload>& work, int k, LRefinement l,
                   RRefinement r) {
  EnumAlmostSatOptions opts;
  opts.l_variant = l;
  opts.r_variant = r;
  Deadline deadline(8.0);  // hard cap per variant sweep
  opts.deadline = &deadline;
  WallTimer t;
  size_t done = 0;
  for (const Workload& w : work) {
    if (deadline.Expired()) break;
    EnumAlmostSat(g, w.solution, Side::kLeft, w.v, k, opts,
                  [](const Biplex&) { return true; });
    ++done;
  }
  if (done == 0) return t.ElapsedSeconds();
  return t.ElapsedSeconds() / static_cast<double>(done);
}

double TimeInflation(const BipartiteGraph& g,
                     const std::vector<Workload>& work, int k) {
  // The inflation implementation is orders of magnitude slower, so time a
  // bounded prefix of the workloads under a hard cap.
  Deadline deadline(8.0);
  WallTimer t;
  size_t done = 0;
  for (const Workload& w : work) {
    if (deadline.Expired() || done >= 25) break;
    // A single inflated k-plex enumeration on a large local graph can run
    // for hours; keep the inflation comparison to small local graphs.
    if (w.solution.Size() > 20) continue;
    EnumAlmostSatByInflation(g, w.solution, Side::kLeft, w.v, k,
                             [](const Biplex&) { return true; });
    ++done;
  }
  if (done == 0) return t.ElapsedSeconds();
  return t.ElapsedSeconds() / static_cast<double>(done);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const size_t workloads = quick ? 100 : 1000;
  const int kmax = quick ? 2 : 4;

  for (const char* name : {"Writer", "DBLP"}) {
    std::cout << "== Figure 12 (" << name
              << " stand-in): avg EnumAlmostSat time over " << workloads
              << " random almost-satisfying graphs ==\n";
    BipartiteGraph g = MakeDataset(FindDataset(name));
    TextTable t({"k", "L1.0+R1.0", "L1.0+R2.0", "L2.0+R1.0", "L2.0+R2.0",
                 "Inflation"});
    for (int k = 1; k <= kmax; ++k) {
      auto work = BuildWorkloads(g, k, workloads, 900 + k);
      if (work.empty()) {
        t.AddRow({std::to_string(k), "-", "-", "-", "-", "-"});
        continue;
      }
      auto timed = [&](LRefinement l, RRefinement rr) {
        return FormatSeconds(TimeVariant(g, work, k, l, rr));
      };
      const double inflation_avg = TimeInflation(g, work, k);
      t.AddRow({std::to_string(k), timed(LRefinement::kL10, RRefinement::kR10),
                timed(LRefinement::kL10, RRefinement::kR20),
                timed(LRefinement::kL20, RRefinement::kR10),
                timed(LRefinement::kL20, RRefinement::kR20),
                FormatSeconds(inflation_avg)});
    }
    t.Print(std::cout);
    std::cout << "\n";
  }

  std::cout << "== Section 6.2 appendix: left- vs right-anchored initial "
               "solution (first 1000 MBPs) ==\n";
  TextTable ts({"Dataset", "k", "left-anchored (L0,R)",
                "right-anchored (L,R0)"});
  for (const char* name : {"Writer", "DBLP"}) {
    BipartiteGraph g = MakeDataset(FindDataset(name));
    for (int k = 1; k <= 2; ++k) {
      EnumerateRequest left =
          MakeRequest("itraversal", k, 1000, RunBudgetSeconds(quick));
      EnumerateRequest right = left;
      right.backend_options["anchored_side"] = "right";
      const double lsec = RunCounting(g, left).seconds;
      const double rsec = RunCounting(g, right).seconds;
      ts.AddRow({name, std::to_string(k), FormatSeconds(lsec),
                 FormatSeconds(rsec)});
    }
  }
  ts.Print(std::cout);
  return 0;
}
