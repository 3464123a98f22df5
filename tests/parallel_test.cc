// Tests of the parallel enumeration subsystem: the thread pool, the
// component decomposition, the thread-safe and sorting sink wrappers,
// cancellation chaining, and — the load-bearing property — that the
// multi-threaded driver delivers exactly the 1-thread solution set for
// every registered algorithm.
#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/enumerator.h"
#include "api/parallel_driver.h"
#include "api/query_session.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/inflation.h"
#include "test_support.h"
#include "util/json_value.h"
#include "util/thread_pool.h"

namespace kbiplex {
namespace {

using testing_support::DisjointUnion;
using testing_support::MakeGraph;
using testing_support::MakeRandomGraph;
using testing_support::ToString;

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 10);
}

// ------------------------------------------------------------ components --

TEST(Components, SplitsAndMapsBack) {
  // Two components: {l0, l1 | r0} and {l2 | r1, r2}; l3 and r3 isolated.
  BipartiteGraph g =
      MakeGraph(4, 4, {{0, 0}, {1, 0}, {2, 1}, {2, 2}});
  std::vector<InducedSubgraph> comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 4u);
  EXPECT_EQ(comps[0].left_map, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(comps[0].right_map, (std::vector<VertexId>{0}));
  EXPECT_EQ(comps[0].graph.NumEdges(), 2u);
  EXPECT_EQ(comps[1].left_map, (std::vector<VertexId>{2}));
  EXPECT_EQ(comps[1].right_map, (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(comps[2].left_map, (std::vector<VertexId>{3}));
  EXPECT_TRUE(comps[2].right_map.empty());
  EXPECT_TRUE(comps[3].left_map.empty());
  EXPECT_EQ(comps[3].right_map, (std::vector<VertexId>{3}));
}

TEST(Components, EveryVertexAppearsExactlyOnce) {
  BipartiteGraph g = MakeRandomGraph({12, 10, 0.08, 7});
  std::vector<InducedSubgraph> comps = ConnectedComponents(g);
  std::set<VertexId> left, right;
  size_t edges = 0;
  for (const InducedSubgraph& c : comps) {
    for (VertexId v : c.left_map) EXPECT_TRUE(left.insert(v).second);
    for (VertexId u : c.right_map) EXPECT_TRUE(right.insert(u).second);
    edges += c.graph.NumEdges();
  }
  EXPECT_EQ(left.size(), g.NumLeft());
  EXPECT_EQ(right.size(), g.NumRight());
  EXPECT_EQ(edges, g.NumEdges());
}

TEST(Components, MatchesInduceOfEachLabeledComponent) {
  // Mostly isolated vertices on both sides (tens of thousands of
  // single-vertex components would expose a per-component pass over a
  // side), plus a few small components with edges.
  std::vector<BipartiteGraph::Edge> edges = {
      {0, 5}, {0, 6}, {7, 5}, {300, 900}, {301, 900}, {301, 901}, {999, 0}};
  const BipartiteGraph g = MakeGraph(1000, 1200, std::move(edges));
  const ComponentLabeling labels = LabelConnectedComponents(g);
  const std::vector<InducedSubgraph> comps = ConnectedComponents(g);
  ASSERT_EQ(static_cast<int>(comps.size()), labels.num_components);
  ASSERT_EQ(labels.left_size.size(), comps.size());
  ASSERT_EQ(labels.right_size.size(), comps.size());
  for (int c = 0; c < labels.num_components; ++c) {
    std::vector<VertexId> left, right;
    for (VertexId l = 0; l < g.NumLeft(); ++l) {
      if (labels.left[l] == c) left.push_back(l);
    }
    for (VertexId r = 0; r < g.NumRight(); ++r) {
      if (labels.right[r] == c) right.push_back(r);
    }
    EXPECT_EQ(labels.left_size[c], left.size()) << "component " << c;
    EXPECT_EQ(labels.right_size[c], right.size()) << "component " << c;
    const InducedSubgraph want = Induce(g, left, right);
    EXPECT_EQ(comps[c].left_map, want.left_map) << "component " << c;
    EXPECT_EQ(comps[c].right_map, want.right_map) << "component " << c;
    EXPECT_EQ(comps[c].graph.Edges(), want.graph.Edges()) << "component " << c;
    EXPECT_EQ(comps[c].graph.NumLeft(), want.graph.NumLeft());
    EXPECT_EQ(comps[c].graph.NumRight(), want.graph.NumRight());
  }
}

// ------------------------------------------------- synchronized sink ------

TEST(Sinks, SynchronizedSinkStopIsSticky) {
  int accepted = 0;
  CallbackSink inner([&](const Biplex&) { return ++accepted < 2; });
  SynchronizedSink sink(&inner);
  Biplex b{{0}, {0}};
  EXPECT_TRUE(sink.Accept(b));
  EXPECT_FALSE(sink.Accept(b));  // inner refuses
  EXPECT_FALSE(sink.Accept(b));  // sticky: inner not called again
  EXPECT_EQ(accepted, 2);
}

TEST(Sinks, SynchronizedSinkSerializesConcurrentWriters) {
  CountingSink counter;
  SynchronizedSink sink(&counter);
  ThreadPool pool(4);
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&sink] { sink.Accept(Biplex{{0}, {0}}); });
  }
  pool.Wait();
  EXPECT_EQ(counter.count(), 200u);
}

// ---------------------------------------------------- token chaining ------

TEST(Cancellation, ChildTokenSeesParentCancel) {
  CancellationToken parent;
  CancellationToken child(&parent);
  EXPECT_FALSE(child.IsCancelled());
  parent.Cancel();
  EXPECT_TRUE(child.IsCancelled());
}

TEST(Cancellation, ChildCancelDoesNotReachParent) {
  CancellationToken parent;
  CancellationToken child(&parent);
  child.Cancel();
  EXPECT_TRUE(child.IsCancelled());
  EXPECT_FALSE(parent.IsCancelled());
}

// -------------------------------------------------- sharding safety -------

TEST(ParallelDriver, ComponentShardingSafetyCondition) {
  // Two disjoint edges form one maximal 1-biplex spanning both
  // components, so thresholds at or below the budgets are never safe.
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 0, 0));
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 1, 1));
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 2, 2));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 2, 3));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair::Uniform(1), 3, 3));
  EXPECT_FALSE(internal::ComponentShardingIsSafe(KPair::Uniform(2), 3, 3));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair::Uniform(2), 3, 5));
  EXPECT_TRUE(internal::ComponentShardingIsSafe(KPair{1, 2}, 3, 3));
}

// ------------------------------------------- parallel == sequential -------

/// A dense graph that is one connected component: component sharding
/// cannot split it, so the traversal family runs the sequential engine.
BipartiteGraph DenseComponent() { return MakeRandomGraph({7, 7, 0.7, 91}); }

struct ParallelCase {
  KPair k;
  size_t theta_left;
  size_t theta_right;
};

TEST(ParallelAgreement, EveryAlgorithmMatchesSequentialSet) {
  // Multi-component graphs exercise the component plan where it is safe
  // and the sequential fallback where it is not; the connected graphs
  // exercise the mask/root-range plans and the fallback. Every graph runs
  // at 2, 4 and 8 threads, so that the plan at each count is pinned to the
  // sequential set.
  const std::vector<BipartiteGraph> inputs = {
      DisjointUnion(MakeRandomGraph({4, 4, 0.6, 11}),
                    MakeRandomGraph({4, 4, 0.7, 12})),
      DisjointUnion(DisjointUnion(MakeRandomGraph({3, 3, 0.8, 13}),
                                  MakeRandomGraph({4, 3, 0.5, 14})),
                    MakeRandomGraph({3, 4, 0.6, 15})),
      MakeRandomGraph({6, 6, 0.5, 16}),
      DenseComponent(),
  };

  const std::vector<ParallelCase> cases = {
      {KPair::Uniform(1), 0, 0},  // unsafe for components: fallback path
      {KPair::Uniform(1), 1, 1},  // unsafe for components: fallback path
      {KPair::Uniform(1), 3, 3},  // safe: component plan engages
      {KPair::Uniform(2), 0, 0},
      {KPair::Uniform(2), 3, 5},  // safe for k = 2
      {KPair{1, 2}, 3, 3},        // asymmetric, traversal family only
  };
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (size_t gi = 0; gi < inputs.size(); ++gi) {
    Enumerator enumerator(inputs[gi]);
    for (const ParallelCase& c : cases) {
      for (const std::string& name : registry.Names()) {
        AlgorithmInfo info = *registry.Find(name);
        if (!info.supports_asymmetric_k && !c.k.IsUniform()) continue;
        if (info.requires_theta && (c.theta_left < 1 || c.theta_right < 1)) {
          continue;
        }
        EnumerateRequest req;
        req.algorithm = name;
        req.k = c.k;
        req.theta_left = c.theta_left;
        req.theta_right = c.theta_right;

        EnumerateStats seq_stats;
        req.threads = 1;
        std::vector<Biplex> expect = enumerator.Collect(req, &seq_stats);
        ASSERT_TRUE(seq_stats.ok()) << name << ": " << seq_stats.error;

        // max_inflated_edges=0 is no guard, so it leaves inflation free to
        // split by component, and the set must not change. A guard the
        // whole graph passes keeps the run in one piece: per-component
        // shards would each pass a guard meant for the whole inflation.
        const size_t whole_inflation = InflatedEdgeCount(inputs[gi]);
        const BackendOptions guarded = {
            {"max_inflated_edges", std::to_string(whole_inflation)}};
        std::vector<BackendOptions> variants = {{}};
        if (name == "inflation") {
          variants.push_back({{"max_inflated_edges", "0"}});
          variants.push_back(guarded);
        }
        for (const BackendOptions& options : variants) {
          req.backend_options = options;
          for (int threads : {2, 4, 8}) {
            EnumerateStats par_stats;
            req.threads = threads;
            std::vector<Biplex> got = enumerator.Collect(req, &par_stats);
            ASSERT_TRUE(par_stats.ok()) << name << ": " << par_stats.error;
            EXPECT_EQ(par_stats.solutions, seq_stats.solutions) << name;
            EXPECT_TRUE(par_stats.completed) << name;
            if (options == guarded) {
              ASSERT_TRUE(par_stats.inflation.has_value());
              EXPECT_EQ(par_stats.inflation->inflated_edges, whole_inflation)
                  << "guarded inflation split, threads=" << threads
                  << " graph=" << gi;
            }
            ASSERT_EQ(got, expect)
                << name << " options=" << options.size()
                << " threads=" << threads << " graph=" << gi << " k=("
                << c.k.left << "," << c.k.right << ") theta=(" << c.theta_left
                << "," << c.theta_right << ")\ngot:\n"
                << ToString(got) << "want:\n"
                << ToString(expect);
          }
        }
      }
    }
  }
}

// One component gives the component plan nothing to split, so a
// traversal-family request runs the sequential engine, exclusion strategy
// included: its exact work counters equal the 1-thread run's. (A split
// inside the component would have to drop exclusion and form more links.)
TEST(ParallelAgreement, SingleComponentKeepsSequentialCounters) {
  const BipartiteGraph g = DenseComponent();
  ASSERT_EQ(ConnectedComponents(g).size(), 1u);
  Enumerator enumerator(g);
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.threads = 1;
  EnumerateStats seq;
  enumerator.Collect(req, &seq);
  ASSERT_TRUE(seq.ok()) << seq.error;
  req.threads = 4;
  EnumerateStats par;
  enumerator.Collect(req, &par);
  ASSERT_TRUE(par.ok()) << par.error;
  ASSERT_TRUE(seq.traversal.has_value());
  ASSERT_TRUE(par.traversal.has_value());
  EXPECT_EQ(par.solutions, seq.solutions);
  EXPECT_EQ(par.traversal->links, seq.traversal->links);
  EXPECT_EQ(par.traversal->almost_sat_graphs, seq.traversal->almost_sat_graphs);
  EXPECT_EQ(par.traversal->solutions_found, seq.traversal->solutions_found);
}

TEST(ParallelAgreement, AutoThreadCountMatchesToo) {
  BipartiteGraph g = DisjointUnion(MakeRandomGraph({4, 4, 0.6, 21}),
                                   MakeRandomGraph({4, 4, 0.6, 22}));
  Enumerator enumerator(g);
  EnumerateRequest req;
  req.algorithm = "brute-force";
  req.threads = 1;
  std::vector<Biplex> expect = enumerator.Collect(req);
  req.threads = 0;  // one worker per hardware thread
  EXPECT_EQ(enumerator.Collect(req), expect);
}

// ------------------------------------------------ budgets, cancellation ---

/// Complete bipartite K(nl, nr): its unique maximal k-biplex is the whole
/// vertex set, which makes solution counts exact in the budget tests.
BipartiteGraph CompleteBipartite(size_t nl, size_t nr) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < nl; ++l) {
    for (VertexId r = 0; r < nr; ++r) edges.emplace_back(l, r);
  }
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

TEST(ParallelBudgets, MaxResultsIsGlobalAcrossWorkers) {
  // Two complete 5x5 components: with theta = (3, 3) each holds exactly
  // one maximal 1-biplex (its full vertex set), so a global cap of 2 is
  // reached exactly and stops every worker.
  BipartiteGraph g =
      DisjointUnion(CompleteBipartite(5, 5), CompleteBipartite(5, 5));
  Enumerator enumerator(g);
  for (const char* name : {"brute-force", "imb", "itraversal"}) {
    EnumerateRequest req;
    req.algorithm = name;
    req.threads = 4;
    req.theta_left = name == std::string_view("itraversal") ? 3 : 0;
    req.theta_right = req.theta_left;
    req.max_results = 2;
    EnumerateStats stats;
    uint64_t n = enumerator.Count(req, &stats);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
    EXPECT_EQ(n, 2u) << name;
    EXPECT_EQ(stats.solutions, 2u) << name;
    EXPECT_FALSE(stats.completed) << name;
  }
}

TEST(ParallelBudgets, PreCancelledTokenStopsParallelRuns) {
  BipartiteGraph g = DisjointUnion(MakeRandomGraph({5, 5, 0.6, 33}),
                                   MakeRandomGraph({5, 5, 0.6, 34}));
  Enumerator enumerator(g);
  CancellationToken token;
  token.Cancel();
  EnumerateRequest req;
  req.algorithm = "brute-force";
  req.threads = 4;
  req.cancellation = &token;
  EnumerateStats stats;
  EXPECT_EQ(enumerator.Count(req, &stats), 0u);
  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.cancelled);
}

TEST(ParallelBudgets, SinkStopCountsOnlyAcceptedSolutions) {
  BipartiteGraph g = DisjointUnion(MakeRandomGraph({5, 5, 0.6, 35}),
                                   MakeRandomGraph({5, 5, 0.6, 36}));
  Enumerator enumerator(g);
  EnumerateRequest req;
  req.algorithm = "imb";
  req.threads = 4;
  std::atomic<int> calls{0};
  EnumerateStats stats = enumerator.Run(
      req, [&](const Biplex&) { return calls.fetch_add(1) + 1 < 3; });
  ASSERT_TRUE(stats.ok()) << stats.error;
  // The sink accepted exactly two solutions before refusing the third.
  EXPECT_EQ(stats.solutions, 2u);
  EXPECT_FALSE(stats.completed);
}

TEST(ParallelBudgets, NegativeThreadsRejected) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}});
  EnumerateRequest req;
  req.threads = -2;
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("threads"), std::string::npos);
}

// --------------------------------------------------------- SortingSink ---

TEST(SortingSink, FlushForwardsInCanonicalOrder) {
  CollectingSink inner(/*sorted=*/false);
  SortingSink sorter(&inner);
  EXPECT_TRUE(sorter.ThreadCompatible());
  EXPECT_TRUE(sorter.Accept(Biplex{{2}, {0}}));
  EXPECT_TRUE(sorter.Accept(Biplex{{0, 1}, {1}}));
  EXPECT_TRUE(sorter.Accept(Biplex{{0}, {2}}));
  EXPECT_EQ(sorter.buffered(), 3u);
  EXPECT_EQ(inner.size(), 0u);  // nothing forwarded before Flush
  EXPECT_TRUE(sorter.Flush());
  EXPECT_EQ(sorter.buffered(), 0u);
  const std::vector<Biplex> got = inner.Take();
  const std::vector<Biplex> want = {
      Biplex{{0}, {2}}, Biplex{{0, 1}, {1}}, Biplex{{2}, {0}}};
  EXPECT_EQ(got, want);
}

TEST(SortingSink, InnerRefusalStopsFlushEarly) {
  int accepted = 0;
  CallbackSink inner([&](const Biplex&) { return ++accepted < 2; });
  SortingSink sorter(&inner);
  sorter.Accept(Biplex{{1}, {1}});
  sorter.Accept(Biplex{{0}, {0}});
  sorter.Accept(Biplex{{2}, {2}});
  EXPECT_FALSE(sorter.Flush());
  EXPECT_EQ(accepted, 2);  // the refusal consumed the second solution
  EXPECT_EQ(sorter.buffered(), 0u);  // buffer cleared either way
}

TEST(SortingSink, MakesParallelStreamOrderDeterministic) {
  // Two components under safe thresholds, so threads=4 runs the component
  // plan and delivers in a scheduling-dependent order.
  const BipartiteGraph g =
      DisjointUnion(DenseComponent(), MakeRandomGraph({6, 6, 0.7, 92}));
  Enumerator enumerator(g);
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.theta_left = 3;
  req.theta_right = 3;
  req.threads = 1;
  CollectingSink seq_inner(/*sorted=*/false);
  SortingSink seq_sorter(&seq_inner);
  ASSERT_TRUE(enumerator.Run(req, &seq_sorter).ok());
  seq_sorter.Flush();
  const std::vector<Biplex> expect = seq_inner.Take();
  ASSERT_FALSE(expect.empty());

  req.threads = 4;
  CollectingSink par_inner(/*sorted=*/false);
  SortingSink par_sorter(&par_inner);
  ASSERT_TRUE(enumerator.Run(req, &par_sorter).ok());
  par_sorter.Flush();
  // Identical *sequence*, not just set: this is the property the CLI
  // --sort flag and the wire "sort" key build their byte-stability on.
  EXPECT_EQ(par_inner.Take(), expect);
}

// ----------------------------------------------- parallel imb bugfixes --

// Regression: the facade used to exclude the vertex-free graph from the
// parallel imb plan, and an embedder calling RunParallelImb directly got
// a SplitRange(0, n) shard whose handling was unpinned. The parallel run
// must reproduce the sequential result exactly: the empty biplex is the
// one maximal solution of the empty graph, and the stats carry the same
// imb detail block.
TEST(ParallelImb, EmptyGraphIsATrivialNoOp) {
  BipartiteGraph g = MakeGraph(0, 0, {});
  Enumerator enumerator(g);
  EnumerateRequest req;
  req.algorithm = "imb";
  req.threads = 1;
  EnumerateStats seq;
  const std::vector<Biplex> expect = enumerator.Collect(req, &seq);
  ASSERT_TRUE(seq.ok()) << seq.error;
  ASSERT_EQ(expect, std::vector<Biplex>{Biplex{}});  // the empty biplex

  req.threads = 4;
  EnumerateStats par;
  const std::vector<Biplex> got = enumerator.Collect(req, &par);
  ASSERT_TRUE(par.ok()) << par.error;
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(par.completed);
  EXPECT_TRUE(par.imb.has_value());
  EXPECT_EQ(par.solutions, 1u);
}

/// Top-level key set of a one-line JSON object, enough to compare the
/// stats schema of two runs without comparing values.
std::set<std::string> JsonKeys(const std::string& text) {
  json::ParseResult parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error << "\nin: " << text;
  std::set<std::string> keys;
  if (parsed.ok() && parsed.value.is_object()) {
    for (const auto& [key, value] : parsed.value.AsObject()) {
      keys.insert(key);
    }
  }
  return keys;
}

// Regression: shards skipped because the time budget expired before they
// started never engaged `stats.imb`, so a budget-expired parallel run's
// JSON dropped the "imb" detail block that every other imb run carries —
// a schema divergence that breaks key-based consumers.
TEST(ParallelImb, BudgetExpiredRunKeepsStatsSchema) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 77});
  Enumerator enumerator(g);
  EnumerateRequest req;
  req.algorithm = "imb";
  req.time_budget_seconds = 1e-12;  // expired before any shard starts

  req.threads = 1;
  EnumerateStats seq;
  enumerator.Collect(req, &seq);
  ASSERT_TRUE(seq.ok()) << seq.error;
  // (The sequential run may still complete — a graph this small can
  // finish before the first deadline poll; the schema is what matters.)

  req.threads = 4;
  EnumerateStats par;
  enumerator.Collect(req, &par);
  ASSERT_TRUE(par.ok()) << par.error;
  EXPECT_FALSE(par.completed);
  ASSERT_TRUE(par.imb.has_value());
  EXPECT_FALSE(par.imb->completed);

  // Golden property: identical JSON schema regardless of thread count.
  EXPECT_EQ(JsonKeys(par.ToJson()), JsonKeys(seq.ToJson()))
      << "seq: " << seq.ToJson() << "\npar: " << par.ToJson();
}

// Regression: the component plan dropped the backend's detail block the
// same way when the budget expired before any shard started, so the JSON
// of large-mbp, the traversal family and inflation lost their
// "large_mbp"/"traversal"/"inflation" key. Every backend, whatever shard
// kind it runs, must keep the schema of its 1-thread run.
TEST(ParallelBudgets, BudgetExpiredRunKeepsStatsSchemaForEveryBackend) {
  // Two disjoint blocks with thresholds that make component shards safe.
  const BipartiteGraph g =
      DisjointUnion(CompleteBipartite(5, 5), CompleteBipartite(5, 5));
  Enumerator enumerator(g);
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    EnumerateRequest req;
    req.algorithm = name;
    req.theta_left = 3;
    req.theta_right = 3;
    req.time_budget_seconds = 1e-12;  // expired before any shard starts

    req.threads = 1;
    EnumerateStats seq;
    enumerator.Collect(req, &seq);
    ASSERT_TRUE(seq.ok()) << name << ": " << seq.error;

    req.threads = 4;
    EnumerateStats par;
    enumerator.Collect(req, &par);
    ASSERT_TRUE(par.ok()) << name << ": " << par.error;
    EXPECT_FALSE(par.completed) << name;
    EXPECT_EQ(JsonKeys(par.ToJson()), JsonKeys(seq.ToJson()))
        << name << "\nseq: " << seq.ToJson() << "\npar: " << par.ToJson();
  }
}

// ------------------------------------------ component plan at threads=1 --

/// A sink that keeps the default ThreadCompatible() == false and records
/// the thread of every Accept call.
class ThreadRecordingSink final : public SolutionSink {
 public:
  bool Accept(const Biplex& b) override {
    threads.insert(std::this_thread::get_id());
    solutions.push_back(b);
    return true;
  }

  std::set<std::thread::id> threads;
  std::vector<Biplex> solutions;
};

/// Two components that each hold solutions at thetas (3, 3), small enough
/// for brute force.
BipartiteGraph TwoSmallBlocks() {
  return DisjointUnion(MakeRandomGraph({5, 4, 0.75, 41}),
                       MakeRandomGraph({4, 5, 0.75, 42}));
}

// At threads=1 a safe, multi-component request splits into component
// shards that run inline: a sink that is not thread-compatible is
// accepted, and the calling thread delivers every solution.
TEST(ComponentPlan, OneThreadSplitRunsInlineOnTheCallingThread) {
  auto prepared = PreparedGraph::Prepare(TwoSmallBlocks());
  QuerySession session(prepared);
  EnumerateRequest brute;
  brute.algorithm = "brute-force";
  brute.theta_left = 3;
  brute.theta_right = 3;
  const std::vector<Biplex> expect = session.Collect(brute);
  ASSERT_FALSE(expect.empty());

  for (const char* name : {"itraversal", "btraversal", "large-mbp"}) {
    EnumerateRequest req = brute;
    req.algorithm = name;
    req.threads = 1;
    ThreadRecordingSink sink;
    const EnumerateStats seq = session.Run(req, &sink);
    ASSERT_TRUE(seq.ok()) << name << ": " << seq.error;
    EXPECT_TRUE(seq.completed) << name;
    const std::set<std::thread::id> caller = {std::this_thread::get_id()};
    EXPECT_EQ(sink.threads, caller) << name;
    std::vector<Biplex> got = sink.solutions;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << name << "\ngot:\n"
                           << ToString(got) << "want:\n" << ToString(expect);
    EXPECT_EQ(seq.solutions, expect.size()) << name;

    req.threads = 4;
    EnumerateStats par;
    session.Collect(req, &par);
    ASSERT_TRUE(par.ok()) << name << ": " << par.error;
    EXPECT_EQ(JsonKeys(seq.ToJson()), JsonKeys(par.ToJson()))
        << name << "\nthreads=1: " << seq.ToJson()
        << "\nthreads=4: " << par.ToJson();
  }
  // The threads=1 runs took the component plan: they built the subgraphs.
  EXPECT_EQ(prepared->artifact_stats().component_subgraph_builds, 1);
}

// A threads=1 split run whose budget expired before any shard started
// still carries the backend's detail block.
TEST(ComponentPlan, OneThreadBudgetExpiredSplitKeepsDetailBlock) {
  const BipartiteGraph g =
      DisjointUnion(CompleteBipartite(5, 5), CompleteBipartite(5, 5));
  Enumerator enumerator(g);
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    if (name == "brute-force" || name == "imb") continue;  // range domains
    EnumerateRequest req;
    req.algorithm = name;
    req.theta_left = 3;
    req.theta_right = 3;
    req.time_budget_seconds = 1e-12;  // expired before any shard starts
    req.threads = 1;
    EnumerateStats stats;
    EXPECT_TRUE(enumerator.Collect(req, &stats).empty()) << name;
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
    EXPECT_FALSE(stats.completed) << name;
    EXPECT_TRUE(stats.traversal.has_value() || stats.large_mbp.has_value() ||
                stats.inflation.has_value())
        << name << ": " << stats.ToJson();
  }
}

}  // namespace
}  // namespace kbiplex
