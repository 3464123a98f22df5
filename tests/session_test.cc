// Tests of the prepare/execute session API: PreparedGraph artifact caching
// (built at most once under concurrent sessions), session agreement with
// the seed path for all eight algorithms, scratch reuse
// across interleaved queries, the sink threading contract, the core-bound
// short-circuit, and JSON stats schema stability of the Enumerate shim.
#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/enumerator.h"
#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "core/brute_force.h"
#include "core/btraversal.h"
#include "test_support.h"

namespace kbiplex {
namespace {

using testing_support::DisjointUnion;
using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

std::vector<std::string> AllAlgorithms() {
  return AlgorithmRegistry::Global().Names();
}

/// A request every backend accepts (large-mbp needs thetas; brute force
/// needs small sides — the test graphs stay below its cap).
EnumerateRequest UniversalRequest(const std::string& algorithm) {
  EnumerateRequest req;
  req.algorithm = algorithm;
  req.k = KPair::Uniform(1);
  req.theta_left = 2;
  req.theta_right = 2;
  return req;
}

// ------------------------------------------------------ artifact caching --

TEST(PreparedGraphTest, ArtifactsBuildLazilyAndOnce) {
  BipartiteGraph g = MakeRandomGraph({8, 8, 0.5, 7});
  auto prepared = PreparedGraph::Prepare(std::move(g));
  PrepareArtifactStats before = prepared->artifact_stats();
  EXPECT_EQ(before.component_builds, 0);
  EXPECT_EQ(before.core_bound_builds, 0);

  prepared->Components();
  prepared->ComponentSubgraphs();
  prepared->ComponentSubgraphs();
  prepared->MaxUniformCore();
  prepared->MaxUniformCore();

  PrepareArtifactStats after = prepared->artifact_stats();
  EXPECT_EQ(after.component_builds, 1);
  EXPECT_EQ(after.component_subgraph_builds, 1);
  EXPECT_EQ(after.core_bound_builds, 1);
}

TEST(PreparedGraphTest, ComponentSubgraphsAlignWithTheLabeling) {
  // Two disjoint bicliques plus an isolated vertex on each side: four
  // components in total.
  BipartiteGraph g = MakeGraph(5, 5,
                               {{0, 0}, {0, 1}, {1, 0}, {1, 1},  // block A
                                {2, 2}, {2, 3}, {3, 2}, {3, 3}});  // block B
  auto prepared = PreparedGraph::Prepare(std::move(g));
  const ComponentLabeling& labels = prepared->Components();
  const std::vector<InducedSubgraph>& comps = prepared->ComponentSubgraphs();
  ASSERT_EQ(static_cast<int>(comps.size()), labels.num_components);
  ASSERT_EQ(labels.num_components, 4);
  // Index alignment: every vertex of component c's subgraph maps back to a
  // parent vertex labeled c, and every parent vertex appears exactly once.
  size_t total_left = 0;
  size_t total_right = 0;
  for (size_t c = 0; c < comps.size(); ++c) {
    for (VertexId v : comps[c].left_map) {
      EXPECT_EQ(labels.left[v], static_cast<int>(c));
    }
    for (VertexId u : comps[c].right_map) {
      EXPECT_EQ(labels.right[u], static_cast<int>(c));
    }
    total_left += comps[c].left_map.size();
    total_right += comps[c].right_map.size();
  }
  EXPECT_EQ(total_left, prepared->graph().NumLeft());
  EXPECT_EQ(total_right, prepared->graph().NumRight());
}

TEST(PreparedGraphTest, ComponentShardedQueriesReuseTheSubgraphCache) {
  // Two components big enough to shard; thresholds satisfy the sharding
  // safety condition (theta > 2k), so parallel runs take the component
  // plan and hit the cache.
  BipartiteGraph g = MakeGraph(
      6, 6, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2},
             {2, 0}, {2, 1}, {2, 2},  // component A: 3x3 biclique
             {3, 3}, {3, 4}, {3, 5}, {4, 3}, {4, 4}, {4, 5},
             {5, 3}, {5, 4}, {5, 5}});  // component B: 3x3 biclique
  auto prepared = PreparedGraph::Prepare(std::move(g));
  QuerySession session(prepared);

  EnumerateRequest seq = UniversalRequest("itraversal");
  seq.theta_left = 3;
  seq.theta_right = 3;
  CollectingSink sequential;
  EnumerateStats seq_stats = session.Run(seq, &sequential);
  ASSERT_TRUE(seq_stats.ok()) << seq_stats.error;
  const std::vector<Biplex> expected = sequential.Take();

  EnumerateRequest par = seq;
  par.threads = 2;
  for (int round = 0; round < 3; ++round) {
    CollectingSink parallel;
    EnumerateStats par_stats = session.Run(par, &parallel);
    ASSERT_TRUE(par_stats.ok()) << par_stats.error;
    EXPECT_EQ(parallel.Take(), expected);
  }
  // All three parallel rounds shared one materialization.
  EXPECT_EQ(prepared->artifact_stats().component_subgraph_builds, 1);
}

TEST(PreparedGraphTest, ArtifactsBuildOnceUnderConcurrentSessions) {
  BipartiteGraph g = MakeRandomGraph({10, 10, 0.4, 11});
  auto prepared = PreparedGraph::Prepare(std::move(g));

  // Many sessions over one prepared graph, all racing to build every
  // artifact and to answer the same query; the builds must collapse to one
  // per artifact and every session must see the same solution count.
  constexpr int kSessions = 8;
  std::vector<uint64_t> counts(kSessions, 0);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int t = 0; t < kSessions; ++t) {
      threads.emplace_back([&, t] {
        QuerySession session(prepared);
        prepared->Components();
        prepared->MaxUniformCore();
        EnumerateRequest req = UniversalRequest("itraversal");
        req.theta_left = req.theta_right = 1;
        EnumerateStats stats;
        counts[t] = session.Count(req, &stats);
        if (!stats.ok() || !stats.completed) failures.fetch_add(1);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kSessions; ++t) EXPECT_EQ(counts[t], counts[0]);

  PrepareArtifactStats stats = prepared->artifact_stats();
  EXPECT_EQ(stats.component_builds, 1);
  EXPECT_EQ(stats.core_bound_builds, 1);
}

TEST(PreparedGraphTest, QueriesExecuteOnTheInputGraph) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 3});
  auto borrowed = PreparedGraph::Borrow(g);
  EXPECT_EQ(&borrowed->graph(), &g);
  EXPECT_EQ(&borrowed->ExecutionGraph(), &g);

  auto prepared = PreparedGraph::Prepare(BipartiteGraph(g));
  EXPECT_EQ(&prepared->ExecutionGraph(), &prepared->graph());
  prepared->Warmup();
  EXPECT_EQ(prepared->artifact_stats().adjacency_memory_bytes, 0u);
}

// ---------------------------------------------------------- seed parity --

TEST(QuerySessionTest, PreparedSessionMatchesSeedForAllAlgorithms) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BipartiteGraph g = MakeRandomGraph({7, 6, 0.5, seed});
    Enumerator seed_path(g);
    auto prepared = PreparedGraph::Prepare(BipartiteGraph(g));
    QuerySession session(prepared);
    for (const std::string& name : AllAlgorithms()) {
      EnumerateRequest req = UniversalRequest(name);
      EnumerateStats seed_stats, session_stats;
      std::vector<Biplex> expect = seed_path.Collect(req, &seed_stats);
      std::vector<Biplex> got = session.Collect(req, &session_stats);
      ASSERT_TRUE(seed_stats.ok()) << name << ": " << seed_stats.error;
      ASSERT_TRUE(session_stats.ok()) << name << ": " << session_stats.error;
      ASSERT_EQ(got, expect)
          << name << " seed=" << seed << "\ngot:\n"
          << ToString(got) << "want:\n"
          << ToString(expect);

      // The same prepared graph must serve parallel requests.
      EnumerateRequest par = req;
      par.threads = 4;
      std::vector<Biplex> got_par = session.Collect(par, &session_stats);
      ASSERT_TRUE(session_stats.ok()) << name << ": " << session_stats.error;
      ASSERT_EQ(got_par, expect) << name << " (threads=4) seed=" << seed;
    }
  }
}

// ------------------------------------------------------- unsplit requests --

/// The solutions of one backend run on `g` that meet the request's size
/// thresholds (the delivery guard's filter), in emission order.
std::vector<Biplex> DirectBackendRun(const BipartiteGraph& g,
                                     const EnumerateRequest& req) {
  auto borrowed = PreparedGraph::Borrow(g);
  ConfiguredBackend configured =
      AlgorithmRegistry::Global().Create(req.algorithm, req.backend_options);
  std::vector<Biplex> out;
  if (configured.backend == nullptr) {
    ADD_FAILURE() << req.algorithm << ": " << configured.error;
    return out;
  }
  CallbackSink sink([&](const Biplex& b) {
    if (b.left.size() >= req.theta_left && b.right.size() >= req.theta_right) {
      out.push_back(b);
    }
    return true;
  });
  configured.backend->Run(QueryContext{.prepared = borrowed.get()}, req,
                          &sink);
  return out;
}

// A request the plan does not split runs the backend once, exactly as a
// direct run: same solutions in the same emission order, at threads=1.
TEST(QuerySessionTest, UnsplitRequestsEmitInDirectRunOrder) {
  const BipartiteGraph two_blocks =
      DisjointUnion(MakeRandomGraph({6, 6, 0.6, 51}),
                    MakeRandomGraph({6, 5, 0.6, 52}));
  // One block big enough for thetas (3, 3) and one that is not.
  const BipartiteGraph one_eligible = DisjointUnion(
      MakeRandomGraph({6, 6, 0.6, 51}), MakeGraph(2, 2, {{0, 0}, {1, 1}}));
  auto make = [](const char* algorithm, size_t theta, uint64_t max_links) {
    EnumerateRequest req;
    req.algorithm = algorithm;
    req.theta_left = req.theta_right = theta;
    req.max_links = max_links;
    return req;
  };
  struct Case {
    const char* what;
    const BipartiteGraph* g;
    EnumerateRequest req;
  };
  const std::vector<Case> cases = {
      {"theta 0 (unsafe)", &two_blocks, make("itraversal", 0, 0)},
      {"one eligible component", &one_eligible, make("itraversal", 3, 0)},
      {"max_links", &two_blocks, make("itraversal", 3, 1u << 30)},
      {"brute-force", &two_blocks, make("brute-force", 3, 0)},
      {"imb", &two_blocks, make("imb", 3, 0)},
  };
  for (const Case& c : cases) {
    auto prepared = PreparedGraph::Prepare(BipartiteGraph(*c.g));
    QuerySession session(prepared);
    EnumerateRequest req = c.req;
    req.threads = 1;
    CollectingSink sink(/*sorted=*/false);
    EnumerateStats stats = session.Run(req, &sink);
    ASSERT_TRUE(stats.ok()) << c.what << ": " << stats.error;
    const std::vector<Biplex> got = sink.Take();
    ASSERT_FALSE(got.empty()) << c.what;
    EXPECT_EQ(got, DirectBackendRun(*c.g, req)) << c.what;
    EXPECT_EQ(prepared->artifact_stats().component_subgraph_builds, 0)
        << c.what;
  }

  // The theta-0 traversal equals a direct engine run, counters included.
  std::vector<Biplex> engine_order;
  const TraversalStats engine =
      TraversalEngine(two_blocks, MakeITraversalOptions(1))
          .Run([&](const Biplex& b) {
            engine_order.push_back(b);
            return true;
          });
  QuerySession session(PreparedGraph::Prepare(BipartiteGraph(two_blocks)));
  CollectingSink sink(/*sorted=*/false);
  EnumerateStats stats = session.Run(cases[0].req, &sink);
  ASSERT_TRUE(stats.traversal.has_value());
  EXPECT_EQ(sink.Take(), engine_order);
  EXPECT_EQ(stats.traversal->links, engine.links);
  EXPECT_EQ(stats.traversal->almost_sat_graphs, engine.almost_sat_graphs);
}

// --------------------------------------------------------- scratch reuse --

TEST(QuerySessionTest, InterleavedQueriesReuseScratchCorrectly) {
  BipartiteGraph g = MakeRandomGraph({8, 7, 0.45, 9});
  auto prepared = PreparedGraph::Prepare(BipartiteGraph(g));
  QuerySession session(prepared);
  Enumerator fresh(g);

  // Interleave algorithms and shapes so the pooled frames and workspace
  // are handed between engines with different graph-facing state; every
  // run must match a fresh enumerator bit for bit.
  const std::vector<std::string> sequence = {
      "itraversal", "btraversal",  "large-mbp", "itraversal",
      "imb",        "brute-force", "large-mbp", "itraversal-es"};
  for (size_t round = 0; round < 2; ++round) {
    for (const std::string& name : sequence) {
      EnumerateRequest req = UniversalRequest(name);
      EnumerateStats stats;
      std::vector<Biplex> got = session.Collect(req, &stats);
      ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
      EXPECT_EQ(got, fresh.Collect(req)) << name << " round " << round;
    }
  }
  EXPECT_EQ(session.queries_run(), 2 * sequence.size());
}

// ------------------------------------------------- sink thread contract --

class BareCustomSink : public SolutionSink {
 public:
  bool Accept(const Biplex&) override { return true; }
};

TEST(SinkContract, ParallelRunRejectsNonThreadCompatibleSink) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 13});
  BareCustomSink bare;
  EnumerateRequest req;
  req.algorithm = "brute-force";
  req.threads = 2;
  EnumerateStats stats = Enumerate(g, req, &bare);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("SynchronizedSink"), std::string::npos)
      << stats.error;
  EXPECT_FALSE(stats.completed);

  // The standard remedy: wrap it.
  SynchronizedSink wrapped(&bare);
  EXPECT_TRUE(Enumerate(g, req, &wrapped).ok());

  // Sequential runs never involve worker threads; no declaration needed.
  req.threads = 1;
  EXPECT_TRUE(Enumerate(g, req, &bare).ok());

  // A callback declared thread-affine gets the same rejection as a bare
  // custom sink; the default CallbackSink stays parallel-friendly.
  req.threads = 2;
  CallbackSink affine([](const Biplex&) { return true; },
                      /*thread_compatible=*/false);
  EXPECT_FALSE(Enumerate(g, req, &affine).ok());
  CallbackSink friendly([](const Biplex&) { return true; });
  EXPECT_TRUE(Enumerate(g, req, &friendly).ok());
}

// -------------------------------------------------- core-bound shortcut --

TEST(QuerySessionTest, CoreBoundAnswersImpossibleThresholdsInstantly) {
  // A sparse path-like graph has a tiny core; thresholds far above it are
  // provably unsatisfiable.
  BipartiteGraph g = MakeGraph(6, 6, {{0, 0}, {1, 0}, {1, 1}, {2, 1},
                                      {2, 2}, {3, 2}, {3, 3}, {4, 3},
                                      {4, 4}, {5, 4}, {5, 5}});
  std::vector<Biplex> expect =
      FilterBySize(BruteForceMaximalBiplexes(g, KPair::Uniform(1)), 5, 5);
  ASSERT_TRUE(expect.empty());

  auto prepared = PreparedGraph::Prepare(BipartiteGraph(g));
  QuerySession session(prepared);
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.theta_left = 5;
  req.theta_right = 5;
  EnumerateStats stats;
  EXPECT_EQ(session.Count(req, &stats), 0u);
  EXPECT_TRUE(stats.ok());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(session.short_circuits(), 1u);

  // An option typo is rejected before the shortcut.
  req.backend_options["no_such_option"] = "1";
  stats = session.Run(req, [](const Biplex&) { return true; });
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("no_such_option"), std::string::npos)
      << stats.error;
  EXPECT_EQ(session.short_circuits(), 1u);
  req.backend_options.clear();

  // A borrowed graph (the one-shot CLI path) runs the backend: same empty
  // answer, but with the backend's counter block.
  QuerySession compat(PreparedGraph::Borrow(g));
  req.algorithm = "large-mbp";
  EXPECT_EQ(compat.Count(req, &stats), 0u);
  EXPECT_TRUE(stats.ok());
  EXPECT_TRUE(stats.large_mbp.has_value());
  EXPECT_EQ(compat.short_circuits(), 0u);
}

TEST(QuerySessionTest, CoreBoundShortCircuitAgreesWithFullRuns) {
  // Sweep thresholds across the satisfiable/unsatisfiable boundary: the
  // shortcut must never fire on a query with a non-empty answer.
  for (uint64_t seed : {21u, 22u}) {
    BipartiteGraph g = MakeRandomGraph({7, 7, 0.4, seed});
    auto prepared = PreparedGraph::Prepare(BipartiteGraph(g));
    QuerySession session(prepared);
    for (size_t theta = 1; theta <= 6; ++theta) {
      std::vector<Biplex> expect = FilterBySize(
          BruteForceMaximalBiplexes(g, KPair::Uniform(1)), theta, theta);
      EnumerateRequest req;
      req.algorithm = "itraversal";
      req.theta_left = theta;
      req.theta_right = theta;
      EnumerateStats stats;
      std::vector<Biplex> got = session.Collect(req, &stats);
      ASSERT_TRUE(stats.ok()) << stats.error;
      ASSERT_EQ(got, expect) << "seed=" << seed << " theta=" << theta;
    }
  }
}

// ------------------------------------------------- shim schema stability --

/// Extracts the top-level keys of a flat-ish one-line JSON object (the
/// ToJson output): every quoted string followed by ':' at nesting depth 1.
std::set<std::string> TopLevelJsonKeys(const std::string& json) {
  std::set<std::string> keys;
  int depth = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == '"' && depth == 1) {
      const size_t end = json.find('"', i + 1);
      if (end == std::string::npos) break;
      if (end + 1 < json.size() && json[end + 1] == ':') {
        keys.insert(json.substr(i + 1, end - i - 1));
      }
      i = end;
    }
  }
  return keys;
}

TEST(EnumerateShim, JsonStatsSchemaUnchanged) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 17});
  EnumerateRequest req;
  req.algorithm = "itraversal";
  CountingSink sink;
  EnumerateStats shim = Enumerate(g, req, &sink);
  ASSERT_TRUE(shim.ok());

  // The shim's top-level JSON keys are exactly the pre-session schema.
  const std::set<std::string> expect = {
      "algorithm", "solutions",     "work_units", "completed",
      "cancelled", "out_of_memory", "seconds",    "traversal"};
  EXPECT_EQ(TopLevelJsonKeys(shim.ToJson()), expect);

  // And a session run over the same request emits the same schema.
  auto prepared = PreparedGraph::Prepare(BipartiteGraph(g));
  QuerySession session(prepared);
  CountingSink sink2;
  EnumerateStats through_session = session.Run(req, &sink2);
  ASSERT_TRUE(through_session.ok());
  EXPECT_EQ(TopLevelJsonKeys(through_session.ToJson()),
            TopLevelJsonKeys(shim.ToJson()));
}

}  // namespace
}  // namespace kbiplex
