// Tests of the unified enumeration API: registry contents, cross-backend
// agreement against brute force, uniform budget/cancellation semantics,
// sinks, and request validation.
#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/enumerator.h"
#include "core/brute_force.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::MakeRandomGraph;
using testing_support::ToString;

// ------------------------------------------------------------- registry ---

TEST(Registry, ListsAllEightBuiltins) {
  const std::vector<std::string> expect = {
      "btraversal", "brute-force", "imb",        "inflation",
      "itraversal", "itraversal-es", "itraversal-es-rs", "large-mbp"};
  std::vector<std::string> names = AlgorithmRegistry::Global().Names();
  for (const std::string& name : expect) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing builtin: " << name;
  }
  EXPECT_EQ(names.size(), expect.size());
}

TEST(Registry, LookupIsCaseInsensitive) {
  const AlgorithmRegistry& r = AlgorithmRegistry::Global();
  EXPECT_TRUE(r.Contains("iTraversal"));
  EXPECT_TRUE(r.Contains("ITRAVERSAL-ES"));
  ASSERT_TRUE(r.Find("Brute-Force").has_value());
  EXPECT_EQ(r.Find("Brute-Force")->max_side, 20u);
}

TEST(Registry, CapabilitiesOfBuiltins) {
  const AlgorithmRegistry& r = AlgorithmRegistry::Global();
  EXPECT_FALSE(r.Find("imb")->supports_asymmetric_k);
  EXPECT_FALSE(r.Find("inflation")->supports_asymmetric_k);
  EXPECT_TRUE(r.Find("itraversal")->supports_asymmetric_k);
  EXPECT_TRUE(r.Find("large-mbp")->requires_theta);
  EXPECT_FALSE(r.Find("btraversal")->requires_theta);
}

TEST(Registry, NewBackendRegistersInOneLine) {
  AlgorithmRegistry registry;  // private registry; Global() stays clean
  class NullBackend : public AlgorithmBackend {
    EnumerateStats Run(const QueryContext&, const EnumerateRequest&,
                       SolutionSink*) const override {
      return {};
    }
  };
  EXPECT_TRUE(registry.Register(
      {.name = "null", .summary = "no-op"}, [](const BackendOptions&) {
        return ConfiguredBackend{std::make_unique<NullBackend>(), ""};
      }));
  EXPECT_TRUE(registry.Contains("null"));
  // Duplicate names are refused.
  EXPECT_FALSE(registry.Register({.name = "NULL", .summary = ""}, nullptr));
}

// ------------------------------------------- cross-backend agreement -----

struct AgreementCase {
  KPair k;
  size_t theta_left;
  size_t theta_right;
};

TEST(Agreement, EveryBackendMatchesBruteForce) {
  const std::vector<AgreementCase> cases = {
      {KPair::Uniform(1), 0, 0}, {KPair::Uniform(1), 2, 2},
      {KPair::Uniform(2), 0, 0}, {KPair::Uniform(2), 1, 2},
      {KPair{1, 2}, 0, 0},       {KPair{2, 1}, 1, 1},
  };
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (double p : {0.3, 0.5, 0.7}) {
      BipartiteGraph g = MakeRandomGraph({6, 5, p, seed});
      Enumerator enumerator(g);
      for (const AgreementCase& c : cases) {
        std::vector<Biplex> expect = FilterBySize(
            BruteForceMaximalBiplexes(g, c.k), c.theta_left, c.theta_right);
        for (const std::string& name : registry.Names()) {
          AlgorithmInfo info = *registry.Find(name);
          EnumerateRequest req;
          req.algorithm = name;
          req.k = c.k;
          req.theta_left = c.theta_left;
          req.theta_right = c.theta_right;
          EnumerateStats stats;
          std::vector<Biplex> got = enumerator.Collect(req, &stats);
          const bool unsupported =
              (!info.supports_asymmetric_k && !c.k.IsUniform()) ||
              (info.requires_theta &&
               (c.theta_left < 1 || c.theta_right < 1));
          if (unsupported) {
            EXPECT_FALSE(stats.ok()) << name;
            EXPECT_FALSE(stats.completed) << name;
            EXPECT_TRUE(got.empty()) << name;
            continue;
          }
          ASSERT_TRUE(stats.ok()) << name << ": " << stats.error;
          EXPECT_TRUE(stats.completed) << name;
          EXPECT_EQ(stats.solutions, expect.size()) << name;
          ASSERT_EQ(got, expect)
              << name << " k=(" << c.k.left << "," << c.k.right
              << ") theta=(" << c.theta_left << "," << c.theta_right
              << ") p=" << p << " seed=" << seed << "\ngot:\n"
              << ToString(got) << "want:\n"
              << ToString(expect);
        }
      }
    }
  }
}

// ---------------------------------------------- budgets and cancellation --

std::vector<EnumerateRequest> AllBackendRequests() {
  std::vector<EnumerateRequest> reqs;
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    EnumerateRequest req;
    req.algorithm = name;
    req.k = KPair::Uniform(1);
    // large-mbp requires thresholds; harmless for the rest and keeps the
    // delivered solutions identical in spirit across backends.
    req.theta_left = 1;
    req.theta_right = 1;
    reqs.push_back(req);
  }
  return reqs;
}

TEST(Budgets, MaxResultsStopsEveryBackend) {
  Rng rng(91);
  BipartiteGraph g = ErdosRenyiBipartite(10, 10, 40, &rng);
  Enumerator enumerator(g);
  for (EnumerateRequest req : AllBackendRequests()) {
    req.max_results = 1;
    EnumerateStats stats;
    uint64_t n = enumerator.Count(req, &stats);
    ASSERT_TRUE(stats.ok()) << req.algorithm << ": " << stats.error;
    EXPECT_EQ(n, 1u) << req.algorithm;
    EXPECT_EQ(stats.solutions, 1u) << req.algorithm;
    EXPECT_FALSE(stats.completed) << req.algorithm;
  }
}

TEST(Budgets, SinkStopStopsEveryBackend) {
  Rng rng(92);
  BipartiteGraph g = ErdosRenyiBipartite(10, 10, 40, &rng);
  Enumerator enumerator(g);
  for (const EnumerateRequest& req : AllBackendRequests()) {
    size_t n = 0;
    EnumerateStats stats = enumerator.Run(req, [&](const Biplex&) {
      return ++n < 2;  // stop after the second solution
    });
    ASSERT_TRUE(stats.ok()) << req.algorithm << ": " << stats.error;
    EXPECT_EQ(n, 2u) << req.algorithm;
    EXPECT_FALSE(stats.completed) << req.algorithm;
    // The second solution was refused by the sink, so it does not count
    // as delivered: stats.solutions is the number of accepted solutions.
    EXPECT_EQ(stats.solutions, 1u) << req.algorithm;
  }
}

TEST(Cancellation, PreCancelledTokenStopsEveryBackendImmediately) {
  Rng rng(93);
  BipartiteGraph g = ErdosRenyiBipartite(10, 10, 40, &rng);
  Enumerator enumerator(g);
  CancellationToken token;
  token.Cancel();
  for (EnumerateRequest req : AllBackendRequests()) {
    req.cancellation = &token;
    EnumerateStats stats;
    uint64_t n = enumerator.Count(req, &stats);
    EXPECT_EQ(n, 0u) << req.algorithm;
    EXPECT_FALSE(stats.completed) << req.algorithm;
    EXPECT_TRUE(stats.cancelled) << req.algorithm;
  }
}

TEST(Cancellation, MidRunCancelStopsEveryBackend) {
  // Large enough that every backend passes its cancellation poll site
  // (the engines poll every 16..1024 work units) long before finishing.
  Rng rng(94);
  BipartiteGraph g = ErdosRenyiBipartite(14, 14, 80, &rng);
  Enumerator enumerator(g);
  for (EnumerateRequest req : AllBackendRequests()) {
    CancellationToken token;
    req.cancellation = &token;
    EnumerateStats stats = enumerator.Run(req, [&](const Biplex&) {
      token.Cancel();
      return true;  // the stop must come from the token, not the sink
    });
    ASSERT_TRUE(stats.ok()) << req.algorithm << ": " << stats.error;
    EXPECT_FALSE(stats.completed) << req.algorithm;
    EXPECT_TRUE(stats.cancelled) << req.algorithm;
  }
}

TEST(Budgets, TimeBudgetStopsEveryBackend) {
  // The budget is already expired when the run starts, so the first poll
  // or the first delivery attempt stops the backend.
  Rng rng(95);
  BipartiteGraph g = ErdosRenyiBipartite(12, 12, 60, &rng);
  Enumerator enumerator(g);
  for (EnumerateRequest req : AllBackendRequests()) {
    req.time_budget_seconds = 1e-9;
    EnumerateStats stats;
    enumerator.Count(req, &stats);
    ASSERT_TRUE(stats.ok()) << req.algorithm << ": " << stats.error;
    EXPECT_FALSE(stats.completed) << req.algorithm;
  }
}

// ----------------------------------------------------------- validation ---

TEST(Validation, UnknownAlgorithm) {
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}});
  CountingSink sink;
  EnumerateRequest req;
  req.algorithm = "quantum-annealer";
  EnumerateStats stats = Enumerate(g, req, &sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_FALSE(stats.completed);
  EXPECT_NE(stats.error.find("unknown algorithm"), std::string::npos);
  EXPECT_NE(stats.error.find("itraversal"), std::string::npos);
}

TEST(Validation, BadBudgetsRejected) {
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}});
  EnumerateRequest req;
  req.k = KPair{0, 1};
  CountingSink sink;
  EXPECT_FALSE(Enumerate(g, req, &sink).ok());
}

TEST(Validation, BruteForceRejectsLargeGraphs) {
  Rng rng(7);
  BipartiteGraph g = ErdosRenyiBipartite(30, 10, 50, &rng);
  EnumerateRequest req;
  req.algorithm = "brute-force";
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("at most 20"), std::string::npos);
}

TEST(Validation, UnknownBackendOptionRejected) {
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}});
  EnumerateRequest req;
  req.backend_options["warp_speed"] = "9";
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("warp_speed"), std::string::npos);

  // Removed keys: the adjacency-index and candidate-generator switches,
  // the EnumAlmostSat variant and output-order switches of the traversal
  // family, and large-mbp's core-reduction switch. Every backend that used
  // to take them now rejects them as unknown.
  for (const char* algorithm : {"itraversal", "btraversal", "large-mbp"}) {
    for (const auto& [key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"adjacency_index", "auto"},
             {"accel_budget", "0"},
             {"candidate_gen", "auto"},
             {"local_impl", "inflation"},
             {"local_l", "l10"},
             {"local_r", "r10"},
             {"polynomial_delay_output", "false"},
             {"core_reduction", "false"}}) {
      EnumerateRequest removed;
      removed.algorithm = algorithm;
      removed.theta_left = removed.theta_right = 1;
      removed.backend_options[key] = value;
      EnumerateStats s = Enumerate(g, removed, &sink);
      EXPECT_FALSE(s.ok()) << algorithm << " " << key;
      EXPECT_NE(s.error.find("unknown backend option '" + key + "'"),
                std::string::npos)
          << algorithm << ": " << s.error;
    }
  }
}

TEST(Validation, BadBackendOptionValueRejected) {
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}});
  EnumerateRequest req;
  req.backend_options["anchored_side"] = "up";
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  EXPECT_FALSE(stats.ok());
  EXPECT_NE(stats.error.find("anchored_side"), std::string::npos);

  // Size options parse strictly: no sign, no whitespace, no trailing
  // garbage (a wrapped "-1" would silently disable the inflation guard).
  for (const char* value : {"-1", "10xyz", " 5", "+3"}) {
    EnumerateRequest bad;
    bad.algorithm = "inflation";
    bad.backend_options["max_inflated_edges"] = value;
    EnumerateStats s = Enumerate(g, bad, &sink);
    EXPECT_FALSE(s.ok()) << "'" << value << "'";
    EXPECT_NE(s.error.find("max_inflated_edges"), std::string::npos)
        << "'" << value << "': " << s.error;
  }
}

// ------------------------------------------------------ backend options ---

TEST(BackendOptions, VariantsEnumerateTheSameSet) {
  BipartiteGraph g = MakeRandomGraph({6, 6, 0.5, 17});
  Enumerator enumerator(g);
  EnumerateRequest base;
  base.algorithm = "itraversal";
  std::vector<Biplex> expect = enumerator.Collect(base);
  EXPECT_EQ(expect, BruteForceMaximalBiplexes(g, 1));
  EnumerateRequest req = base;
  req.backend_options["anchored_side"] = "right";
  EnumerateStats stats;
  std::vector<Biplex> got = enumerator.Collect(req, &stats);
  ASSERT_TRUE(stats.ok()) << stats.error;
  ASSERT_EQ(got, expect);
}

// ---------------------------------------------------------------- sinks ---

TEST(Sinks, CollectingSinkSortsOnTake) {
  CollectingSink sink;
  sink.Accept(Biplex{{2}, {1}});
  sink.Accept(Biplex{{1}, {2}});
  std::vector<Biplex> got = sink.Take();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].left, (std::vector<VertexId>{1}));
}

TEST(Sinks, StreamWriterSinkFormats) {
  std::ostringstream text;
  StreamWriterSink ts(&text);
  ts.Accept(Biplex{{0, 2}, {1}});
  EXPECT_EQ(text.str(), "0 2 | 1\n");
  EXPECT_EQ(ts.written(), 1u);

  std::ostringstream json;
  StreamWriterSink js(&json, StreamWriterSink::Format::kJsonLines);
  js.Accept(Biplex{{0, 2}, {1}});
  EXPECT_EQ(json.str(), "{\"left\":[0,2],\"right\":[1]}\n");
}

TEST(Sinks, CountingSinkCounts) {
  BipartiteGraph g = MakeRandomGraph({5, 5, 0.5, 3});
  EnumerateRequest req;
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(sink.count(), stats.solutions);
  EXPECT_EQ(sink.count(), BruteForceMaximalBiplexes(g, 1).size());
}

// ----------------------------------------------------------------- stats --

TEST(Stats, JsonRendering) {
  BipartiteGraph g = MakeRandomGraph({5, 5, 0.5, 4});
  EnumerateRequest req;
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"algorithm\":\"itraversal\""), std::string::npos);
  EXPECT_NE(json.find("\"completed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"traversal\":{"), std::string::npos);
  EXPECT_EQ(json.find("\"error\""), std::string::npos);
  // The work counters ride along in the traversal detail block.
  EXPECT_NE(json.find("\"candidates_generated\":"), std::string::npos);
  EXPECT_NE(json.find("\"candidates_pruned\":"), std::string::npos);
  EXPECT_NE(json.find("\"adjacency_tests\":"), std::string::npos);
}

TEST(Stats, JsonStaysValidForNonFiniteSeconds) {
  // Time-budget edge cases can leave a non-finite seconds value; default
  // ostream formatting would print bare "inf"/"nan", which is not JSON.
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    EnumerateStats stats;
    stats.algorithm = "itraversal";
    stats.seconds = bad;
    std::string json = stats.ToJson();
    EXPECT_NE(json.find("\"seconds\":null"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  }
  EnumerateStats stats;
  stats.seconds = 0.25;
  EXPECT_NE(stats.ToJson().find("\"seconds\":0.25"), std::string::npos);
}

TEST(Stats, BackendDetailPreserved) {
  Rng rng(21);
  BipartiteGraph g = ErdosRenyiBipartite(8, 8, 25, &rng);
  Enumerator enumerator(g);

  EnumerateRequest req;
  req.algorithm = "imb";
  EnumerateStats stats;
  enumerator.Count(req, &stats);
  ASSERT_TRUE(stats.imb.has_value());
  EXPECT_FALSE(stats.traversal.has_value());
  EXPECT_EQ(stats.work_units, stats.imb->nodes);

  req.algorithm = "large-mbp";
  req.theta_left = 2;
  req.theta_right = 2;
  enumerator.Count(req, &stats);
  ASSERT_TRUE(stats.large_mbp.has_value());
  EXPECT_LE(stats.large_mbp->core_left, g.NumLeft());
}

TEST(Stats, InflationOutOfMemoryIsReported) {
  Rng rng(22);
  BipartiteGraph g = ErdosRenyiBipartite(40, 40, 300, &rng);
  EnumerateRequest req;
  req.algorithm = "inflation";
  req.backend_options["max_inflated_edges"] = "10";
  CountingSink sink;
  EnumerateStats stats = Enumerate(g, req, &sink);
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_TRUE(stats.out_of_memory);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.solutions, 0u);
}

}  // namespace
}  // namespace kbiplex
