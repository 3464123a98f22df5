#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "graph/generators.h"
#include "util/random.h"
#include "util/table.h"

namespace kbiplex {
namespace bench {
namespace {

DatasetSpec Spec(const char* name, const char* category, size_t pl,
                 size_t pr, size_t pe, size_t scale, DatasetKind kind,
                 uint64_t seed) {
  DatasetSpec s;
  s.name = name;
  s.category = category;
  s.paper_left = pl;
  s.paper_right = pr;
  s.paper_edges = pe;
  s.scale = scale;
  s.num_left = pl / scale;
  s.num_right = pr / scale;
  s.num_edges = pe / scale;
  s.kind = kind;
  s.seed = seed;
  return s;
}

}  // namespace

std::vector<DatasetSpec> StandInDatasets() {
  // The four smallest datasets keep their original sizes; the rest are
  // scaled down so the full suite runs in seconds. Edge counts scale with
  // the vertex counts to preserve edge density |E|/(|L|+|R|).
  return {
      Spec("Divorce", "HumanSocial", 9, 50, 225, 1, DatasetKind::kErdosRenyi,
           11),
      Spec("Cfat", "Miscellaneous", 100, 100, 802, 1,
           DatasetKind::kErdosRenyi, 12),
      Spec("Crime", "Social", 551, 829, 1476, 1, DatasetKind::kPowerLaw, 13),
      Spec("Opsahl", "Authorship", 2865, 4558, 16910, 1,
           DatasetKind::kPowerLaw, 14),
      Spec("Marvel", "Collaboration", 19428, 6486, 96662, 4,
           DatasetKind::kPowerLaw, 15),
      Spec("Writer", "Affiliation", 89356, 46213, 144340, 8,
           DatasetKind::kPowerLaw, 16),
      Spec("Actors", "Affiliation", 392400, 127823, 1470404, 40,
           DatasetKind::kPowerLaw, 17),
      Spec("IMDB", "Communication", 428440, 896308, 3782463, 60,
           DatasetKind::kPowerLaw, 18),
      Spec("DBLP", "Authorship", 1425813, 4000150, 8649016, 200,
           DatasetKind::kPowerLaw, 19),
      Spec("Google", "Hyperlink", 17091929, 3108141, 14693125, 800,
           DatasetKind::kPowerLaw, 20),
  };
}

std::vector<DatasetSpec> SmallDatasets() {
  return {FindDataset("Divorce"), FindDataset("Cfat"), FindDataset("Crime"),
          FindDataset("Opsahl")};
}

DatasetSpec FindDataset(const std::string& name) {
  for (const DatasetSpec& s : StandInDatasets()) {
    if (s.name == name) return s;
  }
  std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
  std::abort();
}

BipartiteGraph MakeDataset(const DatasetSpec& spec) {
  Rng rng(spec.seed);
  switch (spec.kind) {
    case DatasetKind::kErdosRenyi:
      return ErdosRenyiBipartite(spec.num_left, spec.num_right,
                                 spec.num_edges, &rng);
    case DatasetKind::kPowerLaw:
      return PowerLawBipartiteAsym(spec.num_left, spec.num_right,
                                   spec.num_edges, spec.gamma_left,
                                   spec.gamma_right, &rng);
  }
  return {};
}

bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return false;
  }
  return true;
}

double RunBudgetSeconds(bool quick) { return quick ? 5.0 : 120.0; }

EnumerateRequest MakeRequest(const std::string& algorithm, int k,
                             uint64_t max_results, double budget_seconds) {
  EnumerateRequest request;
  request.algorithm = algorithm;
  request.k = KPair::Uniform(k);
  request.max_results = max_results;
  request.time_budget_seconds = budget_seconds;
  return request;
}

EnumerateStats RunCounting(const BipartiteGraph& g,
                           const EnumerateRequest& request) {
  CountingSink sink;
  EnumerateStats stats = Enumerator(g).Run(request, &sink);
  if (!stats.ok()) {
    std::fprintf(stderr, "bench request rejected (%s): %s\n",
                 request.algorithm.c_str(), stats.error.c_str());
    std::abort();
  }
  return stats;
}

bool FinishedFirstN(const EnumerateStats& stats, uint64_t max_results) {
  return stats.completed ||
         (max_results != 0 && stats.solutions >= max_results);
}

std::string BudgetCell(const EnumerateStats& stats, uint64_t max_results) {
  if (stats.out_of_memory) return "OUT";
  const bool finished = FinishedFirstN(stats, max_results);
  if (!finished && stats.solutions == 0) return "INF";
  std::string s = FormatSeconds(stats.seconds);
  if (!finished) s += "*";
  return s;
}

}  // namespace bench
}  // namespace kbiplex
