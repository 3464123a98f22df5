// In-process integration tests of the serving daemon: a real Server on an
// ephemeral loopback port, exercised through real sockets by LineClient —
// the same path kbiplexd and kbiplex-client take, minus the processes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_session.h"
#include "api/request_parse.h"
#include "graph/graph_io.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json_value.h"

namespace kbiplex {
namespace serve {
namespace {

constexpr const char* kToyGraphPath = KBIPLEX_SOURCE_DIR "/ci/toy_graph.txt";
constexpr const char* kBatchQueriesPath =
    KBIPLEX_SOURCE_DIR "/ci/batch_queries.txt";

/// One parsed response line.
struct Response {
  json::JsonValue value;
  std::string type;
};

Response ParseResponse(const std::string& line) {
  json::ParseResult parsed = json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << parsed.error << " in: " << line;
  Response r;
  r.value = std::move(parsed.value);
  const json::JsonValue* type = r.value.Find("type");
  if (type != nullptr && type->is_string()) r.type = type->AsString();
  return r;
}

/// Sends one command and reads responses through the terminal one.
std::vector<Response> RoundTrip(LineClient* client, const std::string& line) {
  EXPECT_TRUE(client->SendLine(line));
  std::vector<Response> responses;
  std::string reply;
  while (client->ReadLine(&reply)) {
    responses.push_back(ParseResponse(reply));
    if (responses.back().type != "solution") break;
  }
  EXPECT_FALSE(responses.empty()) << "no terminal response for: " << line;
  return responses;
}

Biplex SolutionOf(const Response& r) {
  Biplex b;
  for (const char* side : {"left", "right"}) {
    const json::JsonValue* arr = r.value.Find(side);
    EXPECT_NE(arr, nullptr);
    EXPECT_TRUE(arr->is_array());
    for (const json::JsonValue& v : arr->AsArray())
      (side[0] == 'l' ? b.left : b.right)
          .push_back(static_cast<VertexId>(v.AsNumber()));
  }
  return b;
}

double NumberField(const json::JsonValue& obj, const std::string& key) {
  const json::JsonValue* v = obj.Find(key);
  EXPECT_NE(v, nullptr) << "missing " << key;
  if (v == nullptr || !v->is_number()) return -1;
  return v->AsNumber();
}

std::vector<std::string> LoadBatchQueryLines() {
  std::ifstream in(kBatchQueriesPath);
  EXPECT_TRUE(in.good()) << kBatchQueriesPath;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

/// A pseudo-random half-dense 24x24 graph: enumerating its maximal
/// 2-biplexes is combinatorially hopeless (a 0.3s budget finds thousands
/// and is nowhere near done), so a query over it reliably runs until its
/// budget, deadline, or cancellation stops it. A complete bipartite graph
/// would NOT work here — its biplex structure is trivial.
BipartiteGraph DenseGraph() {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < 24; ++l)
    for (VertexId r = 0; r < 24; ++r)
      if ((l * 31 + r * 17 + l * r) % 97 < 55) edges.push_back({l, r});
  return BipartiteGraph::FromEdges(24, 24, std::move(edges));
}

std::string SlowQueryLine(const std::string& id, double budget_seconds) {
  return "{\"op\":\"query\",\"id\":\"" + id +
         "\",\"graph\":\"dense\",\"emit\":\"count\",\"request\":"
         "{\"algo\":\"itraversal\",\"k\":2,\"budget_s\":" +
         std::to_string(budget_seconds) + "}}";
}

TEST(ServeTest, ConcurrentClientsAgreeWithDirectSessionsAndStatsAddUp) {
  ServerOptions options;
  options.workers = 4;
  Server server(options);
  ASSERT_EQ(server.registry().LoadFile("toy", kToyGraphPath), "");
  ASSERT_EQ(server.Start(), "");

  // The reference answers: the same requests through a direct
  // QuerySession over the same file.
  const std::vector<std::string> query_lines = LoadBatchQueryLines();
  ASSERT_FALSE(query_lines.empty());
  LoadResult loaded = LoadEdgeList(kToyGraphPath);
  ASSERT_TRUE(loaded.ok());
  auto prepared = PreparedGraph::Prepare(std::move(*loaded.graph));
  QuerySession reference(prepared);
  std::vector<std::vector<Biplex>> expected_solutions;
  std::vector<EnumerateStats> expected_stats;
  for (const std::string& line : query_lines) {
    EnumerateRequest request;
    ASSERT_EQ(ParseRequestLine(line, &request), "") << line;
    EnumerateStats stats;
    expected_solutions.push_back(reference.Collect(request, &stats));
    expected_stats.push_back(stats);
  }

  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> wire_solutions_sum{0};
  std::atomic<uint64_t> wire_requests{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).empty()) {
        ++failures;
        return;
      }
      for (size_t q = 0; q < query_lines.size(); ++q) {
        EnumerateRequest request;
        ParseRequestLine(query_lines[q], &request);
        const std::string id =
            std::to_string(c) + "-" + std::to_string(q);
        const std::string line = "{\"op\":\"query\",\"id\":\"" + id +
                                 "\",\"graph\":\"toy\",\"request\":" +
                                 RequestToWireJson(request) + "}";
        const std::vector<Response> responses = RoundTrip(&client, line);
        if (responses.empty() || responses.back().type != "done") {
          ++failures;
          continue;
        }
        std::vector<Biplex> got;
        for (size_t i = 0; i + 1 < responses.size(); ++i)
          got.push_back(SolutionOf(responses[i]));
        std::sort(got.begin(), got.end());
        std::vector<Biplex> want = expected_solutions[q];
        std::sort(want.begin(), want.end());
        if (got != want) ++failures;
        const json::JsonValue* stats = responses.back().value.Find("stats");
        if (stats == nullptr ||
            NumberField(*stats, "solutions") !=
                static_cast<double>(expected_stats[q].solutions)) {
          ++failures;
        }
        wire_solutions_sum += expected_stats[q].solutions;
        ++wire_requests;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wire_requests.load(), kClients * query_lines.size());

  // The aggregated stats must equal the per-request sums.
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  const std::vector<Response> stat = RoundTrip(&client, "{\"op\":\"stats\"}");
  ASSERT_EQ(stat.size(), 1u);
  ASSERT_EQ(stat[0].type, "stats");
  const json::JsonValue* requests = stat[0].value.Find("requests");
  ASSERT_NE(requests, nullptr);
  const json::JsonValue* total = requests->Find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(NumberField(*total, "requests"),
            static_cast<double>(wire_requests.load()));
  EXPECT_EQ(NumberField(*total, "solutions"),
            static_cast<double>(wire_solutions_sum.load()));
  EXPECT_EQ(NumberField(*total, "errors"), 0);

  server.RequestDrain();
  server.Wait();
}

TEST(ServeTest, DeadlineExpiredInQueueIsRejectedWith504) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.registry().Add("dense", DenseGraph());
  ASSERT_EQ(server.Start(), "");

  LineClient blocker;
  ASSERT_EQ(blocker.Connect("127.0.0.1", server.port()), "");
  ASSERT_TRUE(blocker.SendLine(SlowQueryLine("slow", 0.4)));
  // Wait until the slow query occupies the one worker.
  while (server.admission_counters().admitted < 1 ||
         server.admission_counters().depth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // This query waits in the queue far past its 1ms deadline.
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  const std::vector<Response> responses = RoundTrip(
      &client,
      "{\"op\":\"query\",\"id\":9,\"graph\":\"dense\",\"deadline_ms\":1,"
      "\"request\":{\"algo\":\"itraversal\",\"k\":1}}");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].type, "error");
  EXPECT_EQ(NumberField(responses[0].value, "code"), 504);

  std::string line;
  EXPECT_TRUE(blocker.ReadLine(&line));  // the slow query's done line
  server.RequestDrain();
  server.Wait();
}

TEST(ServeTest, DeadlineMidRunCancelsTheEnumeration) {
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  server.registry().Add("dense", DenseGraph());
  ASSERT_EQ(server.Start(), "");

  // No budget: only the 50ms deadline (via the reaper's cancellation)
  // can stop this enumeration.
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  const std::vector<Response> responses = RoundTrip(
      &client,
      "{\"op\":\"query\",\"id\":1,\"graph\":\"dense\",\"deadline_ms\":50,"
      "\"emit\":\"count\","
      "\"request\":{\"algo\":\"itraversal\",\"k\":2}}");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].type, "error");
  EXPECT_EQ(NumberField(responses[0].value, "code"), 504);
  const json::JsonValue* stats = responses[0].value.Find("stats");
  ASSERT_NE(stats, nullptr) << "504 after work should attach stats";
  const json::JsonValue* completed = stats->Find("completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_FALSE(completed->AsBool());

  server.RequestDrain();
  server.Wait();
}

// A deadline above the documented maximum is a 400, not a clock overflow:
// 1e13 ms in nanoseconds overflows steady_clock's signed count, which
// would put the deadline in the past, and 1e300 does not fit the uint64_t
// field at all. The maximum itself runs.
TEST(ServeTest, DeadlineAboveTheMaximumIsRejectedWith400) {
  ServerOptions options;
  Server server(options);
  LoadResult loaded = LoadEdgeList(kToyGraphPath);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  server.registry().Add("toy", std::move(*loaded.graph));
  ASSERT_EQ(server.Start(), "");

  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  auto query = [&](const std::string& deadline_ms) {
    return RoundTrip(&client,
                     "{\"op\":\"query\",\"id\":1,\"graph\":\"toy\","
                     "\"deadline_ms\":" + deadline_ms +
                         ",\"emit\":\"count\",\"request\":"
                         "{\"algo\":\"itraversal\",\"k\":1}}");
  };
  for (const char* too_long : {"10000000000000", "1e300", "4294967297"}) {
    const std::vector<Response> r = query(too_long);
    ASSERT_EQ(r.size(), 1u) << too_long;
    EXPECT_EQ(r[0].type, "error") << too_long;
    EXPECT_EQ(NumberField(r[0].value, "code"), 400) << too_long;
  }
  const std::vector<Response> r = query(std::to_string(kMaxDeadlineMs));
  EXPECT_EQ(r.back().type, "done");

  server.RequestDrain();
  server.Wait();
}

TEST(ServeTest, OverloadedQueueRejectsWith429) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Server server(options);
  server.registry().Add("dense", DenseGraph());
  ASSERT_EQ(server.Start(), "");

  LineClient blocker;
  ASSERT_EQ(blocker.Connect("127.0.0.1", server.port()), "");
  ASSERT_TRUE(blocker.SendLine(SlowQueryLine("slow", 0.5)));
  while (server.admission_counters().admitted < 1 ||
         server.admission_counters().depth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Fills the queue behind the active query...
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  ASSERT_TRUE(client.SendLine(SlowQueryLine("queued", 0.05)));
  while (server.admission_counters().admitted < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // ...so the third query is rejected immediately.
  ASSERT_TRUE(client.SendLine(SlowQueryLine("rejected", 0.05)));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const Response rejected = ParseResponse(line);
  EXPECT_EQ(rejected.type, "error");
  EXPECT_EQ(NumberField(rejected.value, "code"), 429);
  const json::JsonValue* id = rejected.value.Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->AsString(), "rejected");
  EXPECT_GE(server.admission_counters().rejected_overload, 1u);

  // The queued query still runs to its terminal response.
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(ParseResponse(line).type, "done");
  server.RequestDrain();
  server.Wait();
}

TEST(ServeTest, GracefulDrainFinishesInFlightAndRejectsNew) {
  ServerOptions options;
  options.workers = 2;
  Server server(options);
  server.registry().Add("dense", DenseGraph());
  ASSERT_EQ(server.Start(), "");

  LineClient running;
  ASSERT_EQ(running.Connect("127.0.0.1", server.port()), "");
  // Connected before the drain: drain stops accepting new connections,
  // but established ones keep their protocol until the drain completes.
  LineClient late;
  ASSERT_EQ(late.Connect("127.0.0.1", server.port()), "");
  ASSERT_TRUE(running.SendLine(SlowQueryLine("inflight", 0.3)));
  while (server.admission_counters().admitted < 1 ||
         server.admission_counters().depth > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  // New queries are turned away with 503...
  const std::vector<Response> rejected =
      RoundTrip(&late, SlowQueryLine("late", 0.05));
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].type, "error");
  EXPECT_EQ(NumberField(rejected[0].value, "code"), 503);

  // ...while the in-flight query still delivers its terminal line.
  std::string line;
  ASSERT_TRUE(running.ReadLine(&line));
  EXPECT_EQ(ParseResponse(line).type, "done");

  server.Wait();
  // After the drain, the connection is gone.
  EXPECT_FALSE(running.ReadLine(&line));
}

TEST(ServeTest, WireLoadEvictAndErrorsRoundTrip) {
  ServerOptions options;
  Server server(options);
  ASSERT_EQ(server.Start(), "");

  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");

  // Unknown graph -> 404.
  std::vector<Response> r = RoundTrip(
      &client,
      "{\"op\":\"query\",\"id\":1,\"graph\":\"nope\",\"request\":{\"k\":1}}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 404);

  // Unknown keys are rejected, not ignored.
  r = RoundTrip(&client, "{\"op\":\"ping\",\"id\":2,\"bogus\":true}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 400);
  r = RoundTrip(&client,
                "{\"op\":\"query\",\"id\":3,\"graph\":\"g\","
                "\"request\":{\"k\":1,\"bogus\":2}}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 400);

  // load -> list -> query -> evict -> 404.
  r = RoundTrip(&client, std::string("{\"op\":\"load\",\"id\":4,\"name\":"
                                     "\"toy\",\"path\":\"") +
                             kToyGraphPath + "\"}");
  ASSERT_EQ(r[0].type, "loaded");
  r = RoundTrip(&client, "{\"op\":\"list\",\"id\":5}");
  ASSERT_EQ(r[0].type, "graphs");
  ASSERT_EQ(r[0].value.Find("graphs")->AsArray().size(), 1u);
  r = RoundTrip(&client,
                "{\"op\":\"query\",\"id\":6,\"graph\":\"toy\",\"emit\":"
                "\"count\",\"request\":{\"algo\":\"itraversal\",\"k\":1}}");
  ASSERT_EQ(r.back().type, "done");
  r = RoundTrip(&client, "{\"op\":\"evict\",\"id\":7,\"name\":\"toy\"}");
  ASSERT_EQ(r[0].type, "evicted");
  r = RoundTrip(&client,
                "{\"op\":\"query\",\"id\":8,\"graph\":\"toy\",\"request\":"
                "{\"k\":1}}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 404);

  server.RequestDrain();
  server.Wait();
}

/// Keys of a parsed JSON object, for additive-schema golden checks.
std::set<std::string> KeysOf(const json::JsonValue& obj) {
  EXPECT_TRUE(obj.is_object());
  std::set<std::string> keys;
  for (const auto& member : obj.AsObject()) keys.insert(member.first);
  return keys;
}

TEST(ServeTest, LoadTakesNoOptions) {
  ServerOptions options;
  Server server(options);
  ASSERT_EQ(server.Start(), "");
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  const std::string load_prefix =
      std::string("{\"op\":\"load\",\"id\":1,\"name\":\"toy\",\"path\":\"") +
      kToyGraphPath + "\"";

  // The removed index and renumbering switches are unknown load options.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"renumber", "true"}, {"accel", "true"}, {"accel_budget", "1"}}) {
    std::vector<Response> r = RoundTrip(
        &client,
        load_prefix + ",\"options\":{\"" + key + "\":" + value + "}}");
    ASSERT_EQ(r[0].type, "error") << key;
    EXPECT_EQ(NumberField(r[0].value, "code"), 400) << key;
    const json::JsonValue* message = r[0].value.Find("message");
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(message->AsString(), "unknown load option '" + key + "'");
  }
  std::vector<Response> r =
      RoundTrip(&client, "{\"op\":\"list\",\"id\":2}");
  ASSERT_EQ(r[0].type, "graphs");
  EXPECT_TRUE(r[0].value.Find("graphs")->AsArray().empty());

  // A plain load works, and the artifact block carries no index
  // representation keys.
  r = RoundTrip(&client, load_prefix + "}");
  ASSERT_EQ(r[0].type, "loaded");
  r = RoundTrip(&client, "{\"op\":\"stats\",\"id\":3}");
  ASSERT_EQ(r[0].type, "stats");
  const json::JsonValue& toy = r[0].value.Find("graphs")->AsArray()[0];
  const json::JsonValue* artifacts = toy.Find("artifacts");
  ASSERT_NE(artifacts, nullptr);
  EXPECT_EQ(KeysOf(*artifacts),
            (std::set<std::string>{"component_builds",
                                   "component_subgraph_builds",
                                   "core_bound_builds", "build_seconds",
                                   "adjacency_memory_bytes"}));
  EXPECT_EQ(NumberField(*artifacts, "adjacency_memory_bytes"), 0);

  server.RequestDrain();
  server.Wait();
}

TEST(ServeTest, UpdateOpRoundTripsAndStatsSchemaIsAdditive) {
  ServerOptions options;
  Server server(options);
  ASSERT_EQ(server.Start(), "");
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");

  // Update against an unknown graph -> 404 before anything else runs.
  std::vector<Response> r = RoundTrip(
      &client,
      "{\"op\":\"update\",\"id\":1,\"name\":\"toy\",\"insert\":[[0,3]]}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 404);

  r = RoundTrip(&client, std::string("{\"op\":\"load\",\"id\":2,\"name\":"
                                     "\"toy\",\"path\":\"") +
                             kToyGraphPath + "\"}");
  ASSERT_EQ(r[0].type, "loaded");

  // Grammar errors are 400s: malformed edge arrays, unknown options.
  r = RoundTrip(&client,
                "{\"op\":\"update\",\"id\":3,\"name\":\"toy\","
                "\"insert\":[[0]]}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 400);
  r = RoundTrip(&client,
                "{\"op\":\"update\",\"id\":4,\"name\":\"toy\","
                "\"insert\":[[0,3]],\"options\":{\"bogus\":1}}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 400);
  // Out-of-range endpoints are a batch-validation 400, not a crash.
  r = RoundTrip(&client,
                "{\"op\":\"update\",\"id\":5,\"name\":\"toy\","
                "\"insert\":[[9999,0]]}");
  EXPECT_EQ(r[0].type, "error");
  EXPECT_EQ(NumberField(r[0].value, "code"), 400);

  // A real update: one insert, one delete, one noop insert.
  r = RoundTrip(&client,
                "{\"op\":\"update\",\"id\":6,\"name\":\"toy\","
                "\"insert\":[[0,3],[0,0]],\"delete\":[[0,1]]}");
  ASSERT_EQ(r[0].type, "updated");
  EXPECT_EQ(KeysOf(r[0].value),
            (std::set<std::string>{"type", "id", "graph", "generation",
                                   "epoch", "inserted", "deleted",
                                   "noop_inserts", "noop_deletes", "rebuilt",
                                   "seconds"}));
  EXPECT_EQ(NumberField(r[0].value, "epoch"), 1);
  EXPECT_EQ(NumberField(r[0].value, "inserted"), 1);
  EXPECT_EQ(NumberField(r[0].value, "deleted"), 1);
  EXPECT_EQ(NumberField(r[0].value, "noop_inserts"), 1);
  EXPECT_FALSE(r[0].value.Find("rebuilt")->AsBool());

  // Queries after the update run against the new epoch and agree with a
  // direct session over the same mutated graph.
  r = RoundTrip(&client,
                "{\"op\":\"query\",\"id\":7,\"graph\":\"toy\",\"emit\":"
                "\"count\",\"request\":{\"algo\":\"itraversal\",\"k\":1}}");
  ASSERT_EQ(r.back().type, "done");
  const json::JsonValue* done_stats = r.back().value.Find("stats");
  ASSERT_NE(done_stats, nullptr);
  const double served_count = NumberField(*done_stats, "solutions");
  LoadResult loaded = LoadEdgeList(kToyGraphPath);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < static_cast<VertexId>(loaded.graph->NumLeft());
       ++l)
    for (VertexId v : loaded.graph->LeftNeighbors(l))
      if (!(l == 0 && v == 1)) edges.push_back({l, v});
  edges.push_back({0, 3});
  BipartiteGraph mutated = BipartiteGraph::FromEdges(
      loaded.graph->NumLeft(), loaded.graph->NumRight(), std::move(edges));
  QuerySession direct(PreparedGraph::Prepare(std::move(mutated)));
  EnumerateRequest request;
  request.algorithm = "itraversal";
  EXPECT_EQ(served_count, static_cast<double>(direct.Count(request)));

  // Per-graph stats schema is additive: the epoch/update keys ride along
  // with the pre-update ones, and the lineage block is complete.
  r = RoundTrip(&client, "{\"op\":\"stats\",\"id\":8}");
  ASSERT_EQ(r[0].type, "stats");
  const json::JsonValue* graphs = r[0].value.Find("graphs");
  ASSERT_NE(graphs, nullptr);
  ASSERT_EQ(graphs->AsArray().size(), 1u);
  const json::JsonValue& toy = graphs->AsArray()[0];
  EXPECT_EQ(KeysOf(toy),
            (std::set<std::string>{"name", "generation", "epoch",
                                   "pending_retired_epochs", "updates",
                                   "artifacts"}));
  EXPECT_EQ(NumberField(toy, "epoch"), 1);
  const json::JsonValue* updates = toy.Find("updates");
  ASSERT_NE(updates, nullptr);
  EXPECT_EQ(KeysOf(*updates),
            (std::set<std::string>{"epoch", "updates_applied",
                                   "edges_inserted", "edges_deleted",
                                   "full_rebuilds", "artifacts_incremental",
                                   "artifacts_rebuilt", "apply_seconds"}));
  EXPECT_EQ(NumberField(*updates, "updates_applied"), 1);
  EXPECT_EQ(NumberField(*updates, "full_rebuilds"), 0);
  EXPECT_EQ(NumberField(*updates, "artifacts_incremental"), 0);
  EXPECT_EQ(NumberField(*updates, "artifacts_rebuilt"), 0);

  server.RequestDrain();
  server.Wait();
}

TEST(ServeTest, UpdateTakesNoOptions) {
  ServerOptions options;
  Server server(options);
  ASSERT_EQ(server.registry().LoadFile("toy", kToyGraphPath), "");
  ASSERT_EQ(server.Start(), "");
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  const std::string update_prefix =
      "{\"op\":\"update\",\"id\":1,\"name\":\"toy\",\"insert\":[[0,3]]";

  // The removed staleness-threshold knobs are unknown update options: the
  // update answers 400 and applies nothing.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"max_delta_fraction", "1.0"}, {"force_rebuild", "true"}}) {
    std::vector<Response> r = RoundTrip(
        &client,
        update_prefix + ",\"options\":{\"" + key + "\":" + value + "}}");
    ASSERT_EQ(r[0].type, "error") << key;
    EXPECT_EQ(NumberField(r[0].value, "code"), 400) << key;
    const json::JsonValue* message = r[0].value.Find("message");
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(message->AsString(), "unknown update option '" + key + "'");
    EXPECT_EQ(server.registry().Get("toy")->prepared->epoch(), 0u) << key;
  }

  server.RequestDrain();
  server.Wait();
}

TEST(ServeTest, DrainOpDrainsTheServer) {
  ServerOptions options;
  Server server(options);
  ASSERT_EQ(server.Start(), "");
  LineClient client;
  ASSERT_EQ(client.Connect("127.0.0.1", server.port()), "");
  const std::vector<Response> r =
      RoundTrip(&client, "{\"op\":\"drain\",\"id\":1}");
  ASSERT_EQ(r[0].type, "draining");
  server.Wait();
  EXPECT_TRUE(server.draining());
}

}  // namespace
}  // namespace serve
}  // namespace kbiplex
