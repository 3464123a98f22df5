// The benchmark's workloads. Every workload runs the same three parts —
// set-up, library enumeration, serving — so every metric is defined on
// every workload; the specs size each part so that some layers dominate:
//
//   dense-enum    the engine (core): 18 small connected graphs at k=1, k=2;
//                 and the serving and update paths: eight small tenants
//                 under a fixed-rate mix of streamed queries, pings and
//                 updates
//   sparse-large  graph loading, Prepare/Warmup and the per-query core
//                 reduction on a ~1M-edge power-law graph, with light
//                 serving traffic
//
// All inputs derive from the seed; the harness writes the graphs as
// edge-list files and the measured process loads them like a user would.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/bipartite_graph.h"

namespace perfbench {

struct GraphSpec {
  enum class Kind { kErdosRenyi, kPowerLaw };
  Kind kind = Kind::kErdosRenyi;
  size_t side = 0;   // vertices per side (before planted blocks)
  size_t edges = 0;  // exact (Erdős–Rényi G(n, M)) or target (power law)
  double gamma = 0;  // power-law exponent
  // Planted blocks (power law only): each is K(b, b) minus two disjoint
  // perfect matchings, so every vertex misses exactly two of the other
  // side. Every seed plants the same block structure (ids shuffled), which
  // keeps the enumeration work of the large graph independent of the seed.
  size_t blocks = 0;
  size_t block_side = 0;
};

struct LibraryQuery {
  size_t graph = 0;  // index into the library graphs (or the tenants)
  std::string algorithm;
  int k = 1;
  size_t theta = 0;  // both sides; 0 = unconstrained
};

/// Solution count and order-independent digest of one library query on
/// the default seed, pinned so a changed answer fails the run.
struct Pinned {
  uint64_t count = 0;
  uint64_t digest = 0;
};

struct WorkloadSpec {
  std::string name;
  std::vector<GraphSpec> library_graphs;  // empty: the tenants serve as
                                          // the library graphs
  std::vector<LibraryQuery> queries;      // the enumerated query set
  size_t tenants = 0;                     // graphs loaded into the server
  GraphSpec tenant;
  int tenant_k = 1;
  // Serving traffic: exact operation counts, shuffled by the seed, sent at
  // a fixed open-loop rate.
  size_t serve_queries = 0;
  size_t serve_pings = 0;
  size_t serve_updates = 0;
  double ops_per_second = 0;
  size_t setup_reps = 0;  // set-up repetitions per run (median reported)
  // Groups the repetitions are split into, spread over the run (at most
  // one per serving slice plus one at the start). Only for set-ups of a
  // few milliseconds: a later repetition holds a second copy of the graphs.
  size_t setup_groups = 1;
  size_t ref_runs = 1;    // reference task runs before each library query
  std::vector<Pinned> pinned;  // per query, for kDefaultSeed
};

inline constexpr uint64_t kDefaultSeed = 1;

/// The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// All workload names, for usage messages.
std::vector<std::string> WorkloadNames();

/// The benchmark's own random stream (splitmix64). Inputs are generated
/// without the library's generators, so a change to the library never
/// changes what the benchmark feeds it.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }  // bound > 0
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

struct EdgeList {
  size_t left = 0;
  size_t right = 0;
  std::vector<kbiplex::BipartiteGraph::Edge> edges;  // distinct
};

/// Generates one graph of `spec`. Erdős–Rényi graphs are redrawn until
/// connected, so the threads=2 plan is the same on every seed.
EdgeList MakeGraph(const GraphSpec& spec, Rng* rng);

/// Input file names inside the input directory.
std::string LibraryFile(size_t i);
std::string TenantFile(size_t i);

/// Writes every input graph of (spec, seed) into `dir`. Returns the error,
/// empty on success.
std::string GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& dir);

/// One edge-update batch of the serving traffic.
struct UpdatePlan {
  size_t tenant = 0;
  std::vector<kbiplex::BipartiteGraph::Edge> insert;
  std::vector<kbiplex::BipartiteGraph::Edge> erase;
};

struct ServeOp {
  enum class Type { kQuery, kPing, kUpdate };
  Type type = Type::kQuery;
  size_t tenant = 0;
  size_t update = 0;  // index into ServePlan::updates (kUpdate only)
};

struct ServePlan {
  std::vector<ServeOp> ops;
  std::vector<UpdatePlan> updates;
};

/// The seeded operation mix over the initial tenant graphs. Every update
/// inserts absent and deletes present edges of its tenant's evolving edge
/// set, so each one is a real change.
ServePlan MakeServePlan(const WorkloadSpec& spec, uint64_t seed,
                        const std::vector<kbiplex::BipartiteGraph>& tenants);

/// The tenant graph after its first `epoch` updates of `plan`, built from
/// scratch (the reference the streamed results are checked against).
kbiplex::BipartiteGraph TenantAtEpoch(const kbiplex::BipartiteGraph& initial,
                                      const ServePlan& plan, size_t tenant,
                                      uint64_t epoch);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
