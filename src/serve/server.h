// kbiplexd's serving core: a TCP loop on loopback speaking the NDJSON
// wire protocol (serve/wire.h, docs/wire_protocol.md) over long-lived
// connections, executing queries on a worker pool where each worker owns
// one QuerySession per (graph, generation) — the prepare/execute split
// amortized across every request the daemon ever serves.
//
// Threading model:
//   - an acceptor thread accepts connections until drain;
//   - one thread per connection parses lines; control ops (load, evict,
//     list, stats, ping, drain) execute inline, queries go through the
//     bounded admission queue (full -> 429, draining -> 503);
//   - `workers` threads pop queries and run them, streaming solution
//     lines as the engine emits them and finishing each request with one
//     terminal done/error line;
//   - a deadline reaper cancels the token of any request whose
//     deadline_ms elapses, and the remaining deadline also tightens the
//     request's time budget at dequeue (admission latency counts);
//   - drain (signal or wire op) stops accepting, rejects new queries,
//     lets in-flight and queued work finish within the grace period,
//     then cancels the drain token every request token chains to.
//
// The server binds loopback only: the daemon is a local sidecar, not an
// internet-facing service; anything wider belongs behind a real proxy.
#ifndef KBIPLEX_SERVE_SERVER_H_
#define KBIPLEX_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/stats_aggregator.h"
#include "serve/admission.h"
#include "serve/graph_registry.h"
#include "serve/wire.h"
#include "util/cancellation.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace kbiplex {
namespace serve {

struct ServerOptions {
  uint16_t port = 0;  // 0 = pick an ephemeral port (read back via port())
  size_t workers = 4;
  size_t queue_capacity = 64;  // bounded admission queue (429 beyond)
  double drain_grace_seconds = 5.0;
};

class Server {
 public:
  /// One accepted client socket; public so the streaming sink in
  /// server.cc can hold one. Opaque outside the implementation.
  struct Connection;

  explicit Server(ServerOptions options);
  ~Server();  // drains and joins if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the serving threads. Returns the error
  /// message, empty on success.
  std::string Start();

  /// The bound port (useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// The graph registry, e.g. for preloading before Start().
  GraphRegistry& registry() { return registry_; }

  /// Cross-request stats, aggregated per graph and algorithm.
  const StatsAggregator& stats() const { return aggregator_; }

  AdmissionQueue::Counters admission_counters() const;

  /// Begins a graceful drain (idempotent, non-blocking): stop accepting,
  /// reject new queries with 503, let admitted work finish within the
  /// grace period, then cancel what remains.
  void RequestDrain() KBIPLEX_EXCLUDES(state_mu_);

  /// Blocks until a requested drain completes and every thread joined.
  void Wait() KBIPLEX_EXCLUDES(state_mu_, conn_mu_);

  bool draining() const { return draining_.load(); }

 private:
  class DeadlineReaper;

  void AcceptLoop() KBIPLEX_EXCLUDES(conn_mu_);
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void DrainLoop() KBIPLEX_EXCLUDES(state_mu_, conn_mu_);
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line);
  void HandleQuery(const std::shared_ptr<Connection>& conn, WireCommand cmd);
  void ExecuteQuery(WorkerContext& ctx,
                    const std::shared_ptr<Connection>& conn,
                    const WireCommand& cmd, const RegisteredGraph& entry,
                    std::chrono::steady_clock::time_point deadline,
                    bool has_deadline);
  std::string ServerStatsBody() const;
  void WakeAcceptor();

  // Set at construction, immutable afterwards (prepare options, queue
  // capacity); the queue object itself is internally synchronized.
  ServerOptions options_;  // NOLINT(kbiplex-guarded-by): const after ctor
  GraphRegistry registry_;       // NOLINT(kbiplex-guarded-by): internal lock
  StatsAggregator aggregator_;   // NOLINT(kbiplex-guarded-by): internal lock
  const std::unique_ptr<AdmissionQueue> queue_;
  // Created in Start() before any request can reference it, destroyed in
  // Wait() after every worker joined.
  std::unique_ptr<DeadlineReaper> reaper_;  // NOLINT(kbiplex-guarded-by): lifecycle
  WallTimer uptime_;  // NOLINT(kbiplex-guarded-by): immutable start time

  // Socket state: written by Start() before the serving threads exist;
  // listen_fd_ is then owned by the acceptor thread, wake_pipe_ write
  // ends are safe to use concurrently (pipe writes are atomic).
  int listen_fd_ = -1;        // NOLINT(kbiplex-guarded-by): lifecycle
  int wake_pipe_[2] = {-1, -1};  // NOLINT(kbiplex-guarded-by): lifecycle
  uint16_t port_ = 0;         // NOLINT(kbiplex-guarded-by): set in Start()
  bool started_ = false;      // NOLINT(kbiplex-guarded-by): ctor-thread only

  CancellationToken drain_token_;  // NOLINT(kbiplex-guarded-by): atomic flag
  std::atomic<bool> draining_{false};
  std::atomic<size_t> active_jobs_{0};
  std::atomic<uint64_t> completed_jobs_{0};
  std::atomic<size_t> open_connections_{0};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  Mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> connections_
      KBIPLEX_GUARDED_BY(conn_mu_);
  std::vector<std::thread> conn_threads_ KBIPLEX_GUARDED_BY(conn_mu_);

  // Lock-ordering rule: conn_mu_ and state_mu_ are leaf locks — no code
  // path holds both at once (docs/concurrency.md).
  Mutex state_mu_;
  CondVar state_cv_;
  std::thread drain_thread_ KBIPLEX_GUARDED_BY(state_mu_);
  bool drained_ KBIPLEX_GUARDED_BY(state_mu_) = false;
  bool joined_ KBIPLEX_GUARDED_BY(state_mu_) = false;
};

}  // namespace serve
}  // namespace kbiplex

#endif  // KBIPLEX_SERVE_SERVER_H_
