// Serving-daemon throughput/latency benchmark: an in-process Server on a
// loopback socket, driven by concurrent LineClients — the full kbiplexd
// path (wire parse, admission queue, worker pool, per-worker sessions,
// NDJSON responses) minus process startup.
//
// Each request is a budget-bounded count query over a dense prepared
// graph, so per-request enumeration cost is constant by construction and
// the measured deltas are serving overhead and worker-pool scaling. For
// each worker-pool size (1, 4, 8) the harness runs `clients` connections
// sending requests back-to-back and reports requests/sec plus client-side
// p50/p99 latency into BENCH_serving.json.
//
// Flags: --smoke (fewer requests, for CI), --full (more requests).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/bipartite_graph.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/timer.h"

namespace kbiplex {
namespace bench {
namespace {

/// Pseudo-random half-dense bipartite graph (the serve_test workload
/// shape, scaled up): hard enough that every query runs to its budget.
BipartiteGraph DenseGraph(VertexId n) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId l = 0; l < n; ++l)
    for (VertexId r = 0; r < n; ++r)
      if ((l * 31 + r * 17 + l * r) % 97 < 55) edges.push_back({l, r});
  return BipartiteGraph::FromEdges(static_cast<size_t>(n),
                                   static_cast<size_t>(n), std::move(edges));
}

struct RunResult {
  uint64_t requests = 0;
  uint64_t failures = 0;
  double wall_seconds = 0;
  double p50_s = 0;
  double p99_s = 0;
  double requests_per_sec = 0;
};

double Quantile(std::vector<double>* sorted_latencies, double q) {
  if (sorted_latencies->empty()) return 0;
  const size_t rank = std::min(
      sorted_latencies->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_latencies->size())));
  return (*sorted_latencies)[rank];
}

RunResult RunOnce(size_t workers, size_t clients, uint64_t requests_per_client,
                  double query_budget_seconds) {
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = 4 * clients;  // the load is closed-loop; never 429
  serve::Server server(options);
  server.registry().Add("dense", DenseGraph(48));
  std::string err = server.Start();
  if (!err.empty()) {
    std::fprintf(stderr, "bench_serving: %s\n", err.c_str());
    std::abort();
  }

  const std::string query =
      "{\"op\":\"query\",\"id\":1,\"graph\":\"dense\",\"emit\":\"count\","
      "\"request\":{\"algo\":\"itraversal\",\"k\":2,\"budget_s\":" +
      std::to_string(query_budget_seconds) + "}}";

  std::vector<std::vector<double>> latencies(clients);
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  WallTimer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::LineClient client;
      if (!client.Connect("127.0.0.1", server.port()).empty()) {
        failures += requests_per_client;
        return;
      }
      latencies[c].reserve(requests_per_client);
      std::string reply;
      for (uint64_t r = 0; r < requests_per_client; ++r) {
        const auto start = std::chrono::steady_clock::now();
        if (!client.SendLine(query) || !client.ReadLine(&reply) ||
            reply.find("\"type\":\"done\"") == std::string::npos) {
          ++failures;
          continue;
        }
        latencies[c].push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  RunResult result;
  result.wall_seconds = wall.ElapsedSeconds();
  result.failures = failures.load();
  std::vector<double> all;
  for (const std::vector<double>& per_client : latencies)
    all.insert(all.end(), per_client.begin(), per_client.end());
  std::sort(all.begin(), all.end());
  result.requests = all.size();
  result.p50_s = Quantile(&all, 0.50);
  result.p99_s = Quantile(&all, 0.99);
  result.requests_per_sec =
      result.wall_seconds > 0
          ? static_cast<double>(result.requests) / result.wall_seconds
          : 0;

  server.RequestDrain();
  server.Wait();
  return result;
}

}  // namespace
}  // namespace bench
}  // namespace kbiplex

int main(int argc, char** argv) {
  using namespace kbiplex::bench;
  bool smoke = false;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--full") == 0) full = true;
  }
  const uint64_t requests_per_client = smoke ? 10 : (full ? 400 : 100);
  const double query_budget_seconds = smoke ? 0.002 : 0.005;

  BenchJsonWriter json("serving");
  std::printf("%-10s %8s %10s %10s %10s %9s\n", "workers", "clients", "req/s",
              "p50_ms", "p99_ms", "failures");
  for (const size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
    const size_t clients = 2 * workers;  // keep every worker saturated
    const RunResult r =
        RunOnce(workers, clients, requests_per_client, query_budget_seconds);
    std::printf("%-10zu %8zu %10.1f %10.3f %10.3f %9llu\n", workers, clients,
                r.requests_per_sec, r.p50_s * 1e3, r.p99_s * 1e3,
                static_cast<unsigned long long>(r.failures));
    if (r.failures > 0) {
      std::fprintf(stderr, "bench_serving: %llu failed requests\n",
                   static_cast<unsigned long long>(r.failures));
      return 1;
    }
    BenchJsonWriter::Record record;
    record.name = "serving/workers" + std::to_string(workers);
    record.dataset = "dense48";
    record.algorithm = "itraversal";
    record.k_left = 2;
    record.k_right = 2;
    record.threads = static_cast<int>(workers);
    record.wall_seconds = r.wall_seconds;
    record.solutions = 0;
    record.work_units = r.requests;
    record.completed = true;
    record.counters = {
        {"clients", static_cast<double>(clients)},
        {"requests", static_cast<double>(r.requests)},
        {"requests_per_sec", r.requests_per_sec},
        {"p50_s", r.p50_s},
        {"p99_s", r.p99_s},
        {"query_budget_s", query_budget_seconds},
    };
    json.Add(std::move(record));
  }
  if (!json.Write()) return 1;
  std::printf("wrote %s\n", json.path().c_str());
  return 0;
}
