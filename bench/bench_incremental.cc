// Incremental update benchmark: the cost of publishing a new epoch via
// PreparedGraph::ApplyUpdates (CSR splice, then lazy artifacts built by
// Warmup) versus a full re-Prepare of the mutated edge list, at delta
// sizes of 0.1%, 1% and 10% of the edges. Both paths end fully warmed
// (every artifact built), so the speedup compares equal end states.
//
// Correctness gate first: on a small random graph, a chain of update
// batches applied through ApplyUpdates must enumerate the exact same sorted
// solution set as a fresh Prepare of the final edge list, for every
// backend in the registry, sequentially and with threads=4. Any
// divergence aborts the benchmark — a fast wrong answer is not a result.
//
// Results are recorded in BENCH_incremental.json. Flags: --smoke (tiny
// sizes for CI), --full (the committed configuration).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "bench_common.h"
#include "graph/generators.h"
#include "update/incremental.h"
#include "update/update_batch.h"
#include "util/random.h"
#include "util/timer.h"

namespace kbiplex {
namespace bench {
namespace {

using Edge = BipartiteGraph::Edge;

std::vector<Edge> AllEdges(const BipartiteGraph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.NumEdges());
  for (VertexId l = 0; l < g.NumLeft(); ++l) {
    for (VertexId r : g.LeftNeighbors(l)) edges.emplace_back(l, r);
  }
  return edges;
}

/// A random delta against `g`: `deletes` existing edges and `inserts`
/// absent ones, disjoint and deterministic in `rng`.
void RandomDelta(const BipartiteGraph& g, size_t inserts, size_t deletes,
                 Rng* rng, std::vector<Edge>* ins, std::vector<Edge>* del) {
  const std::vector<Edge> edges = AllEdges(g);
  for (uint64_t idx : rng->SampleDistinct(edges.size(),
                                          std::min(deletes, edges.size()))) {
    del->push_back(edges[idx]);
  }
  std::set<Edge> chosen(del->begin(), del->end());
  while (ins->size() < inserts) {
    const Edge e{static_cast<VertexId>(rng->NextBelow(g.NumLeft())),
                 static_cast<VertexId>(rng->NextBelow(g.NumRight()))};
    if (g.HasEdge(e.first, e.second) || !chosen.insert(e).second) continue;
    ins->push_back(e);
  }
}

/// Collects solutions as canonical "l,l|r,r" strings; sorting the vector
/// gives a set fingerprint independent of delivery order and threads.
class CollectSink final : public SolutionSink {
 public:
  bool Accept(const Biplex& solution) override {
    std::string key;
    for (VertexId v : solution.left) key += std::to_string(v) + ",";
    key += "|";
    for (VertexId v : solution.right) key += std::to_string(v) + ",";
    keys_.push_back(std::move(key));
    return true;
  }
  // Parallel drivers serialize Accept calls; no extra locking needed.
  bool ThreadCompatible() const override { return true; }

  std::vector<std::string> Sorted() && {
    std::sort(keys_.begin(), keys_.end());
    return std::move(keys_);
  }

 private:
  std::vector<std::string> keys_;
};

std::vector<std::string> SortedSolutions(
    const std::shared_ptr<const PreparedGraph>& prepared,
    const std::string& algorithm, int threads) {
  EnumerateRequest req = MakeRequest(algorithm, 1, 0, 0);
  req.theta_left = req.theta_right = 1;  // large-mbp requires thresholds
  req.threads = threads;
  QuerySession session(prepared);
  CollectSink sink;
  const EnumerateStats stats = session.Run(req, &sink);
  if (!stats.ok()) {
    std::fprintf(stderr, "FATAL: %s (threads=%d) rejected: %s\n",
                 algorithm.c_str(), threads, stats.error.c_str());
    std::abort();
  }
  return std::move(sink).Sorted();
}

/// The correctness gate: chains `rounds` random update batches through
/// ApplyUpdates, warming every epoch, and checks the
/// final epoch enumerates exactly like a fresh Prepare of the final edge
/// list — every registered backend, threads 1 and 4. Returns the number
/// of agreeing (backend, threads) cells.
size_t AgreementGate(bool smoke, BenchJsonWriter* json) {
  const size_t nl = smoke ? 8 : 14, nr = smoke ? 8 : 14;
  const size_t ne = smoke ? 24 : 60;
  Rng rng(2024);
  BipartiteGraph start = ErdosRenyiBipartite(nl, nr, ne, &rng);

  auto incremental = PreparedGraph::Prepare(BipartiteGraph(start));
  incremental->Warmup();
  const int rounds = smoke ? 2 : 4;
  for (int i = 0; i < rounds; ++i) {
    std::vector<Edge> ins, del;
    RandomDelta(incremental->graph(), 3, 3, &rng, &ins, &del);
    update::UpdateBatch batch;
    for (const Edge& e : ins) batch.Insert(e.first, e.second);
    for (const Edge& e : del) batch.Remove(e.first, e.second);
    update::UpdateResult result = incremental->ApplyUpdates(batch);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: incremental apply failed: %s\n",
                   result.error.c_str());
      std::abort();
    }
    incremental = result.prepared;
    incremental->Warmup();
  }

  auto rebuilt = PreparedGraph::Prepare(
      BipartiteGraph::FromEdges(nl, nr, AllEdges(incremental->graph())));
  rebuilt->Warmup();

  size_t cells = 0;
  for (const AlgorithmInfo& info : AlgorithmRegistry::Global().List()) {
    for (int threads : {1, 4}) {
      const std::vector<std::string> a =
          SortedSolutions(incremental, info.name, threads);
      const std::vector<std::string> b =
          SortedSolutions(rebuilt, info.name, threads);
      if (a != b) {
        std::fprintf(stderr,
                     "FATAL: %s threads=%d diverges: incremental %zu vs "
                     "rebuilt %zu solutions\n",
                     info.name.c_str(), threads, a.size(), b.size());
        std::abort();
      }
      ++cells;
    }
  }
  std::printf("agreement: %zu (backend, threads) cells identical after %d "
              "incremental batches (epoch %llu)\n",
              cells, rounds,
              static_cast<unsigned long long>(incremental->epoch()));

  BenchJsonWriter::Record r;
  r.name = "agreement";
  r.dataset = "er-small";
  r.algorithm = "all";
  r.completed = true;
  r.counters.emplace_back("cells", static_cast<double>(cells));
  r.counters.emplace_back("rounds", static_cast<double>(rounds));
  json->Add(std::move(r));
  return cells;
}

/// One timed cell: ApplyUpdates + Warmup vs full re-Prepare at delta
/// fraction `fraction`, both ending fully warmed. Best of `reps`.
void TimeFraction(const BipartiteGraph& base,
                  const std::shared_ptr<const PreparedGraph>& warmed,
                  double fraction, int reps, BenchJsonWriter* json) {
  const size_t delta_edges = std::max<size_t>(
      2, static_cast<size_t>(fraction * static_cast<double>(base.NumEdges())));
  Rng rng(7000 + static_cast<uint64_t>(fraction * 100000));
  std::vector<Edge> ins, del;
  RandomDelta(base, delta_edges / 2, delta_edges - delta_edges / 2, &rng,
              &ins, &del);
  update::UpdateBatch batch;
  for (const Edge& e : ins) batch.Insert(e.first, e.second);
  for (const Edge& e : del) batch.Remove(e.first, e.second);

  double inc_seconds = 1e100;
  std::shared_ptr<const PreparedGraph> epoch;
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    update::UpdateResult result = warmed->ApplyUpdates(batch);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: apply failed: %s\n",
                   result.error.c_str());
      std::abort();
    }
    result.prepared->Warmup();
    inc_seconds = std::min(inc_seconds, t.ElapsedSeconds());
    epoch = result.prepared;
  }

  // The full path replays what a from-scratch load would do: materialize
  // the mutated edge list, FromEdges, Prepare, warm every artifact.
  const std::set<Edge> deleted(del.begin(), del.end());
  double full_seconds = 1e100;
  std::shared_ptr<const PreparedGraph> rebuilt;
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    std::vector<Edge> edges;
    edges.reserve(base.NumEdges() + ins.size());
    for (const Edge& e : AllEdges(base)) {
      if (deleted.count(e) == 0) edges.push_back(e);
    }
    edges.insert(edges.end(), ins.begin(), ins.end());
    rebuilt = PreparedGraph::Prepare(
        BipartiteGraph::FromEdges(base.NumLeft(), base.NumRight(),
                                  std::move(edges)));
    rebuilt->Warmup();
    full_seconds = std::min(full_seconds, t.ElapsedSeconds());
  }

  if (epoch->graph().NumEdges() != rebuilt->graph().NumEdges()) {
    std::fprintf(stderr, "FATAL: edge count mismatch %zu vs %zu\n",
                 epoch->graph().NumEdges(), rebuilt->graph().NumEdges());
    std::abort();
  }

  const double speedup = inc_seconds > 0 ? full_seconds / inc_seconds : 0;
  std::printf("  %7.3f%%  %10zu  %12.6f  %12.6f  %8.2fx\n", fraction * 100,
              delta_edges, inc_seconds, full_seconds, speedup);

  BenchJsonWriter::Record r;
  char label[64];
  std::snprintf(label, sizeof(label), "delta=%g", fraction);
  r.name = std::string("incremental/") + label;
  r.dataset = "er-large";
  r.algorithm = "apply";
  r.wall_seconds = inc_seconds;
  r.completed = true;
  r.counters.emplace_back("delta_fraction", fraction);
  r.counters.emplace_back("delta_edges", static_cast<double>(delta_edges));
  r.counters.emplace_back("incremental_seconds", inc_seconds);
  r.counters.emplace_back("full_prepare_seconds", full_seconds);
  r.counters.emplace_back("speedup_vs_full", speedup);
  json->Add(std::move(r));
}

}  // namespace
}  // namespace bench
}  // namespace kbiplex

int main(int argc, char** argv) {
  using namespace kbiplex;
  using namespace kbiplex::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  BenchJsonWriter json("incremental");
  AgreementGate(smoke, &json);

  // Timing workload: a graph big enough that a full re-Prepare (edge sort,
  // component BFS, core peel) costs measurable milliseconds.
  const size_t nl = smoke ? 200 : 20000, nr = smoke ? 200 : 20000;
  const size_t ne = smoke ? 4000 : 1200000;
  Rng rng(99);
  const BipartiteGraph base = ErdosRenyiBipartite(nl, nr, ne, &rng);
  auto warmed = PreparedGraph::Prepare(BipartiteGraph(base));
  warmed->Warmup();

  std::printf("\nincremental apply vs full re-Prepare, %zux%zu, %zu edges\n",
              base.NumLeft(), base.NumRight(), base.NumEdges());
  std::printf("  %8s  %10s  %12s  %12s  %8s\n", "delta", "edges",
              "apply (s)", "full (s)", "speedup");
  const int reps = smoke ? 2 : 3;
  for (double fraction : {0.001, 0.01, 0.10}) {
    TimeFraction(base, warmed, fraction, reps, &json);
  }

  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}
