// Shared infrastructure of the figure/table reproduction harness: the
// offline stand-ins for the paper's Table 1 datasets and small helpers for
// budgeted runs.
//
// The KONECT datasets are not available offline, so each is replaced by a
// seeded synthetic graph with the same bipartite shape; the larger ones are
// scaled down (column "scale") to keep the whole suite laptop-fast. See
// DESIGN.md ("Substitutions") and EXPERIMENTS.md for the mapping.
#ifndef KBIPLEX_BENCH_BENCH_COMMON_H_
#define KBIPLEX_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/enumerator.h"
#include "graph/bipartite_graph.h"

namespace kbiplex {
namespace bench {

/// How a stand-in dataset is synthesized.
enum class DatasetKind {
  kErdosRenyi,      // dense small graphs (Divorce, Cfat)
  kPowerLaw,        // skewed sparse graphs (everything else)
};

/// One stand-in for a row of the paper's Table 1.
struct DatasetSpec {
  std::string name;      // the paper's dataset name
  std::string category;  // the paper's category column
  size_t num_left;
  size_t num_right;
  size_t num_edges;
  DatasetKind kind;
  double gamma_left = 3.0;   // user-side skew for kPowerLaw
  double gamma_right = 2.5;  // item-side skew for kPowerLaw
  uint64_t seed = 1;
  /// Denominator applied to the paper's original sizes (1 = full size).
  size_t scale = 1;
  /// The paper's original sizes, for the Table 1 printout.
  size_t paper_left = 0, paper_right = 0, paper_edges = 0;
};

/// The ten stand-ins mirroring Table 1 (Divorce .. Google).
std::vector<DatasetSpec> StandInDatasets();

/// Subset of StandInDatasets() used by the small-dataset experiments
/// (Figures 8 and 11): Divorce, Cfat, Crime, Opsahl.
std::vector<DatasetSpec> SmallDatasets();

/// Looks up a stand-in by paper name; aborts if unknown.
DatasetSpec FindDataset(const std::string& name);

/// Materializes the stand-in graph.
BipartiteGraph MakeDataset(const DatasetSpec& spec);

/// True if the benchmark should run in quick mode (default). Pass --full
/// on the command line for larger budgets.
bool QuickMode(int argc, char** argv);

/// Time budget per algorithm invocation in seconds.
double RunBudgetSeconds(bool quick);

/// Builds the request shape every figure harness uses: an algorithm name,
/// a uniform budget k, a result cap, and a wall-clock budget.
EnumerateRequest MakeRequest(const std::string& algorithm, int k,
                             uint64_t max_results, double budget_seconds);

/// Runs `request` on `g` through the facade, counting solutions without
/// materializing them. Aborts on rejected requests: a bench asking for an
/// impossible configuration is a bug in the bench.
EnumerateStats RunCounting(const BipartiteGraph& g,
                           const EnumerateRequest& request);

/// The paper's notion of a finished "first N MBPs" run: the enumeration
/// completed, or it stopped exactly because the result cap was reached.
bool FinishedFirstN(const EnumerateStats& stats, uint64_t max_results);

/// Formats a budgeted run the way the paper's tables mark outcomes:
/// "OUT" when inflation refused the memory blow-up, "INF" when the budget
/// expired before any output, the runtime otherwise ("*"-suffixed after
/// partial output).
std::string BudgetCell(const EnumerateStats& stats, uint64_t max_results);

}  // namespace bench
}  // namespace kbiplex

#endif  // KBIPLEX_BENCH_BENCH_COMMON_H_
