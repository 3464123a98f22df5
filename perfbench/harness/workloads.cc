#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <unordered_set>
#include <utility>

namespace perfbench {

using kbiplex::BipartiteGraph;
using kbiplex::VertexId;

namespace {

// G(n, M): `edges` distinct edges drawn uniformly.
EdgeList ErdosRenyi(size_t side, size_t edges, Rng* rng) {
  EdgeList g{side, side, {}};
  std::unordered_set<uint64_t> seen;
  while (g.edges.size() < edges) {
    const VertexId l = static_cast<VertexId>(rng->Below(side));
    const VertexId r = static_cast<VertexId>(rng->Below(side));
    if (seen.insert(uint64_t{l} << 32 | r).second) g.edges.emplace_back(l, r);
  }
  return g;
}

bool Connected(const EdgeList& g) {
  // Union-find over left ids [0, left) and right ids [left, left + right).
  std::vector<size_t> parent(g.left + g.right);
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  size_t components = parent.size();
  for (const auto& [l, r] : g.edges) {
    const size_t a = find(l), b = find(g.left + r);
    if (a != b) {
      parent[a] = b;
      --components;
    }
  }
  return components == 1;
}

// Chung–Lu graph with power-law expected degrees i^(-1/(gamma-1)) on both
// sides: about `edges` distinct edges (skewed draws that collide are
// retried a bounded number of times, then topped up uniformly).
EdgeList PowerLaw(size_t side, size_t edges, double gamma, Rng* rng) {
  std::vector<double> cdf(side);
  double total = 0;
  for (size_t i = 0; i < side; ++i) {
    total += std::pow(static_cast<double>(i + 1), -1.0 / (gamma - 1.0));
    cdf[i] = total;
  }
  for (double& x : cdf) x /= total;
  auto draw = [&] {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng->Unit());
    return static_cast<VertexId>(std::min<size_t>(it - cdf.begin(), side - 1));
  };
  EdgeList g{side, side, {}};
  std::unordered_set<uint64_t> seen;
  for (size_t attempts = 0; g.edges.size() < edges && attempts < 20 * edges; ++attempts) {
    const VertexId l = draw(), r = draw();
    if (seen.insert(uint64_t{l} << 32 | r).second) g.edges.emplace_back(l, r);
  }
  while (g.edges.size() < edges) {
    const VertexId l = static_cast<VertexId>(rng->Below(side));
    const VertexId r = static_cast<VertexId>(rng->Below(side));
    if (seen.insert(uint64_t{l} << 32 | r).second) g.edges.emplace_back(l, r);
  }
  return g;
}

std::string WriteEdgeList(const EdgeList& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "cannot write " + path;
  std::fprintf(f, "%zu %zu %zu\n", g.left, g.right, g.edges.size());
  for (const auto& [l, r] : g.edges) std::fprintf(f, "%u %u\n", l, r);
  return std::fclose(f) == 0 ? "" : "cannot write " + path;
}

GraphSpec ErGraph(size_t side, size_t edges) {
  GraphSpec g;
  g.side = side;
  g.edges = edges;
  return g;
}

// Sizes. Every timed quantity sums many independent random pieces, so the
// work of a run barely depends on the seed: the library sets are several
// small graphs rather than one, the large graph's planted blocks share one
// structure, and every serving part spreads its traffic over
// eight tenants. The serving rates keep the two workers about a third busy,
// so the median query never waits in the queue and the medians stay put.
// perfbench/README.md has the measurements behind these choices.
std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec dense;
  dense.name = "dense-enum";
  for (size_t i = 0; i < 10; ++i) {
    dense.library_graphs.push_back(ErGraph(22, 57));
    dense.queries.push_back({dense.library_graphs.size() - 1, "itraversal", 1, 0});
  }
  for (size_t i = 0; i < 8; ++i) {
    dense.library_graphs.push_back(ErGraph(10, 32));
    dense.queries.push_back({dense.library_graphs.size() - 1, "itraversal", 2, 0});
  }
  dense.tenants = 8;
  dense.tenant = ErGraph(9, 24);
  dense.serve_queries = 3000;
  dense.serve_pings = 1000;
  dense.serve_updates = 300;
  dense.ops_per_second = 350;
  dense.setup_reps = 70;
  dense.setup_groups = 7;
  dense.pinned = {{1706, 0x4bd68095ab4c59f1}, {1800, 0xf910cfe0fecc6280},
                  {1678, 0xad23b5cb3a65158a}, {1737, 0xfef37e2346905d1e},
                  {1843, 0x6c9551c5e65ed1d2}, {1561, 0x3565039b5a62504b},
                  {1712, 0x41b5a5b43aacbfd7}, {1817, 0x1b06520e708c58c5},
                  {1782, 0x53a178b4ce7c90fe}, {1730, 0x48171db18382832e},
                  {1809, 0x580dca9b21562b06}, {1895, 0x85a6f1b57cc4ac67},
                  {1968, 0xfad73aaa6daf1ca5}, {1728, 0x72e500e6b7414992},
                  {1801, 0x775a0c260d03534f}, {1755, 0xa8ebe062997444ef},
                  {1736, 0xa454eff672ae957e}, {2299, 0xa2e90ad5db9407ba}};
  specs.push_back(dense);

  WorkloadSpec sparse;
  sparse.name = "sparse-large";
  GraphSpec big;
  big.kind = GraphSpec::Kind::kPowerLaw;
  big.side = 300000;
  big.edges = 1000000;
  big.gamma = 3.0;
  big.blocks = 4;
  big.block_side = 16;
  sparse.library_graphs = {big};
  sparse.queries = {{0, "large-mbp", 1, 10}};
  sparse.tenants = 8;
  sparse.tenant = ErGraph(8, 20);
  sparse.serve_queries = 2000;
  sparse.serve_pings = 1000;
  sparse.serve_updates = 50;
  sparse.ops_per_second = 400;
  sparse.setup_reps = 5;
  sparse.ref_runs = 8;  // one query per pass: a longer look at the host
  sparse.pinned = {{4352, 0xbdd0a73b113289ec}};
  specs.push_back(sparse);

  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

EdgeList MakeGraph(const GraphSpec& spec, Rng* rng) {
  if (spec.kind == GraphSpec::Kind::kPowerLaw) {
    EdgeList g = PowerLaw(spec.side, spec.edges, spec.gamma, rng);
    const size_t n = spec.block_side;
    for (size_t b = 0; b < spec.blocks; ++b) {
      const VertexId offset = static_cast<VertexId>(spec.side + b * n);
      std::vector<VertexId> left(n), right(n);
      std::iota(left.begin(), left.end(), offset);
      std::iota(right.begin(), right.end(), offset);
      for (size_t i = n; i > 1; --i) std::swap(left[i - 1], left[rng->Below(i)]);
      for (size_t i = n; i > 1; --i) std::swap(right[i - 1], right[rng->Below(i)]);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          if (j != i && j != (i + 1) % n) g.edges.emplace_back(left[i], right[j]);
        }
      }
    }
    g.left = g.right = spec.side + spec.blocks * spec.block_side;
    return g;
  }
  EdgeList g;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    g = ErdosRenyi(spec.side, spec.edges, rng);
    if (Connected(g)) break;
  }
  return g;
}

std::string LibraryFile(size_t i) { return "library-" + std::to_string(i) + ".txt"; }
std::string TenantFile(size_t i) { return "tenant-" + std::to_string(i) + ".txt"; }

std::string GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& dir) {
  Rng rng(seed);
  for (size_t i = 0; i < spec.library_graphs.size(); ++i) {
    const std::string err =
        WriteEdgeList(MakeGraph(spec.library_graphs[i], &rng), dir + "/" + LibraryFile(i));
    if (!err.empty()) return err;
  }
  for (size_t i = 0; i < spec.tenants; ++i) {
    const std::string err =
        WriteEdgeList(MakeGraph(spec.tenant, &rng), dir + "/" + TenantFile(i));
    if (!err.empty()) return err;
  }
  return "";
}

ServePlan MakeServePlan(const WorkloadSpec& spec, uint64_t seed,
                        const std::vector<BipartiteGraph>& tenants) {
  // A stream independent of the graph generator's, so resizing a graph
  // does not reshuffle the traffic.
  Rng rng(seed ^ 0x5e12e5e12e5ULL);
  ServePlan plan;
  // Every operation type is spread evenly over the run (each position
  // takes the type furthest behind its even share), so queries arrive at a
  // steady pace; the seed picks each operation's tenant and each update's
  // edges. A shuffled order let bursts of queries queue behind each other,
  // and whether those bursts made up more or less than 1% of the queries
  // flipped query_p99_s between two modes from run to run.
  const ServeOp::Type types[] = {ServeOp::Type::kQuery, ServeOp::Type::kPing,
                                 ServeOp::Type::kUpdate};
  const size_t want[] = {spec.serve_queries, spec.serve_pings, spec.serve_updates};
  const size_t total = want[0] + want[1] + want[2];
  size_t have[] = {0, 0, 0};
  for (size_t i = 0; i < total; ++i) {
    size_t pick = 0;
    double best = -1e300;
    for (size_t t = 0; t < 3; ++t) {
      if (have[t] == want[t]) continue;
      const double behind = static_cast<double>((i + 1) * want[t]) / static_cast<double>(total) -
                            static_cast<double>(have[t]);
      if (behind > best) {
        best = behind;
        pick = t;
      }
    }
    ++have[pick];
    plan.ops.push_back({types[pick], 0, 0});
  }

  std::vector<std::set<BipartiteGraph::Edge>> edges;
  for (const BipartiteGraph& g : tenants) {
    const std::vector<BipartiteGraph::Edge> list = g.Edges();
    edges.emplace_back(list.begin(), list.end());
  }
  for (ServeOp& op : plan.ops) {
    op.tenant = static_cast<size_t>(rng.Below(tenants.size()));
    if (op.type != ServeOp::Type::kUpdate) continue;
    const BipartiteGraph& g = tenants[op.tenant];
    std::set<BipartiteGraph::Edge>& present = edges[op.tenant];
    UpdatePlan update;
    update.tenant = op.tenant;
    // One insert of an absent edge and one delete of a present one: the
    // edge count stays put, so the work per query does not drift over a
    // run, and the delta stays under the library's default staleness
    // threshold (10% of the edges), so updates take the incremental path.
    while (update.insert.size() < 1) {
      const BipartiteGraph::Edge e{
          static_cast<VertexId>(rng.Below(g.NumLeft())),
          static_cast<VertexId>(rng.Below(g.NumRight()))};
      if (present.count(e) == 0 &&
          std::find(update.insert.begin(), update.insert.end(), e) ==
              update.insert.end()) {
        update.insert.push_back(e);
      }
    }
    while (update.erase.size() < 1) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.Below(present.size())));
      if (std::find(update.erase.begin(), update.erase.end(), *it) ==
          update.erase.end()) {
        update.erase.push_back(*it);
      }
    }
    for (const auto& e : update.insert) present.insert(e);
    for (const auto& e : update.erase) present.erase(e);
    op.update = plan.updates.size();
    plan.updates.push_back(std::move(update));
  }
  return plan;
}

BipartiteGraph TenantAtEpoch(const BipartiteGraph& initial,
                             const ServePlan& plan, size_t tenant,
                             uint64_t epoch) {
  const std::vector<BipartiteGraph::Edge> list = initial.Edges();
  std::set<BipartiteGraph::Edge> present(list.begin(), list.end());
  uint64_t applied = 0;
  for (const UpdatePlan& u : plan.updates) {
    if (applied == epoch) break;
    if (u.tenant != tenant) continue;
    for (const auto& e : u.insert) present.insert(e);
    for (const auto& e : u.erase) present.erase(e);
    ++applied;
  }
  return BipartiteGraph::FromEdges(
      initial.NumLeft(), initial.NumRight(),
      std::vector<BipartiteGraph::Edge>(present.begin(), present.end()));
}

}  // namespace perfbench
