// Serving part: an in-process serve::Server with two workers, driven over
// one loopback connection by a single-threaded open-loop generator that
// writes each operation at its due time and reads every response line in
// between — so the workers, the server's connection thread and the
// generator stay at four threads. Each streamed query result is checked
// against a from-scratch library enumeration of an epoch its tenant could
// have held while the query was in flight.
#include <arpa/inet.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/query_session.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/json_value.h"

namespace perfbench {
namespace {

// What came back for one operation.
struct Outcome {
  std::string type;  // terminal line type: done, error, pong, updated
  int code = 0;      // error code of an error line
  double first = -1;  // first solution line (queries)
  double done = -1;   // terminal line
  SetChecksum sum;    // streamed solutions
  uint64_t solutions = 0;  // done.stats.solutions
  bool completed = false;  // done.stats.completed
  double server_seconds = 0;  // done.stats.seconds / updated.seconds
  bool rebuilt = false;       // updated.rebuilt
};

// One loopback connection driven by a single thread: writes are blocking,
// reads wait in ppoll() with a timeout so the thread can also send on
// schedule.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return std::strerror(errno);
    const int on = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      return std::strerror(errno);
    }
    return "";
  }

  bool Send(const std::string& framed) {
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Waits up to `timeout_s` for data, then hands every complete line
  // received to `on_line`. False once the peer is gone or on an error.
  template <typename OnLine>
  bool Poll(double timeout_s, const OnLine& on_line) {
    pollfd pfd{fd_, POLLIN, 0};
    const timespec ts{static_cast<time_t>(timeout_s),
                      static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9)};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0) return errno == EINTR;
    if (rc == 0) return true;
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) return errno == EINTR || errno == EAGAIN;
    if (n == 0) return false;
    // Acknowledge at once. The server writes each line with Nagle's
    // algorithm on, so a delayed ACK would hold its next line until the
    // generator's next send carried one, and every latency would round up
    // to the send interval.
    const int on = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &on, sizeof(on));
    buffer_.append(chunk, static_cast<size_t>(n));
    size_t begin = 0;
    for (size_t nl; (nl = buffer_.find('\n', begin)) != std::string::npos; begin = nl + 1) {
      on_line(std::string_view(buffer_).substr(begin, nl - begin));
    }
    buffer_.erase(0, begin);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Parses the integers of the JSON array that follows `key` in `line`.
bool ParseIds(std::string_view line, std::string_view key,
              std::vector<uint32_t>* out) {
  out->clear();
  size_t pos = line.find(key);
  if (pos == std::string_view::npos) return false;
  pos += key.size();
  while (pos < line.size() && line[pos] != ']') {
    if (line[pos] >= '0' && line[pos] <= '9') {
      uint32_t v = 0;
      while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
        v = v * 10 + static_cast<uint32_t>(line[pos] - '0');
        ++pos;
      }
      out->push_back(v);
    } else {
      ++pos;
    }
  }
  return pos < line.size();
}

std::string OpLine(const WorkloadSpec& spec, const ServePlan& plan, size_t id) {
  const ServeOp& op = plan.ops[id];
  std::ostringstream os;
  os << "{\"op\":";
  switch (op.type) {
    case ServeOp::Type::kQuery:
      os << "\"query\",\"id\":" << id << ",\"graph\":\"t" << op.tenant
         << "\",\"request\":{\"algo\":\"itraversal\",\"k\":" << spec.tenant_k
         << "}}";
      break;
    case ServeOp::Type::kPing:
      os << "\"ping\",\"id\":" << id << '}';
      break;
    case ServeOp::Type::kUpdate: {
      const UpdatePlan& u = plan.updates[op.update];
      os << "\"update\",\"id\":" << id << ",\"name\":\"t" << op.tenant
         << "\",\"insert\":[";
      for (size_t i = 0; i < u.insert.size(); ++i) {
        os << (i ? "," : "") << '[' << u.insert[i].first << ','
           << u.insert[i].second << ']';
      }
      os << "],\"delete\":[";
      for (size_t i = 0; i < u.erase.size(); ++i) {
        os << (i ? "," : "") << '[' << u.erase[i].first << ','
           << u.erase[i].second << ']';
      }
      os << "]}";
      break;
    }
  }
  os << '\n';
  return os.str();
}

double NumberAt(const kbiplex::json::JsonValue& obj, const char* key) {
  const kbiplex::json::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : 0;
}

// Applies one response line to `outcomes`; returns true iff it was
// terminal for its operation.
bool HandleLine(std::string_view line, double now, std::vector<Outcome>* outcomes,
                std::vector<uint32_t>* left, std::vector<uint32_t>* right) {
  // Every line starts {"id":N,"type":"...".
  constexpr std::string_view kIdKey = "{\"id\":";
  if (line.substr(0, kIdKey.size()) != kIdKey) return false;
  const size_t id = std::strtoull(line.data() + kIdKey.size(), nullptr, 10);
  if (id >= outcomes->size()) return false;
  Outcome& out = (*outcomes)[id];
  if (line.find("\"type\":\"solution\"") != std::string_view::npos) {
    if (out.first < 0) out.first = now;
    ParseIds(line, "\"left\":[", left);
    ParseIds(line, "\"right\":[", right);
    out.sum.Add(*left, *right);
    return false;
  }
  out.done = now;
  const kbiplex::json::ParseResult parsed = kbiplex::json::Parse(std::string(line));
  if (!parsed.ok()) {
    out.type = "unparsable";
    return true;
  }
  const kbiplex::json::JsonValue& v = parsed.value;
  const kbiplex::json::JsonValue* type = v.Find("type");
  out.type = type != nullptr && type->is_string() ? type->AsString() : "";
  if (out.type == "done") {
    const kbiplex::json::JsonValue* stats = v.Find("stats");
    if (stats != nullptr) {
      out.solutions = static_cast<uint64_t>(NumberAt(*stats, "solutions"));
      out.server_seconds = NumberAt(*stats, "seconds");
      const kbiplex::json::JsonValue* c = stats->Find("completed");
      out.completed = c != nullptr && c->is_bool() && c->AsBool();
    }
  } else if (out.type == "error") {
    out.code = static_cast<int>(NumberAt(v, "code"));
  } else if (out.type == "updated") {
    out.server_seconds = NumberAt(v, "seconds");
    const kbiplex::json::JsonValue* r = v.Find("rebuilt");
    out.rebuilt = r != nullptr && r->is_bool() && r->AsBool();
  }
  return true;
}

// Library results of each tenant epoch, computed on first use from a
// graph rebuilt from scratch (not through the update path under test).
class Oracle {
 public:
  Oracle(const RunContext& ctx, const ServePlan& plan) : ctx_(ctx), plan_(plan) {}

  const SetChecksum& At(size_t tenant, uint64_t epoch) {
    auto key = std::make_pair(tenant, epoch);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    auto prepared = kbiplex::PreparedGraph::Prepare(
        TenantAtEpoch(ctx_.tenants[tenant], plan_, tenant, epoch));
    kbiplex::QuerySession session(prepared);
    kbiplex::EnumerateRequest req;
    req.k = kbiplex::KPair::Uniform(ctx_.spec->tenant_k);
    SetChecksum sum;
    session.Run(req, [&](const kbiplex::Biplex& b) {
      sum.Add(b.left, b.right);
      return true;
    });
    return cache_.emplace(key, sum).first->second;
  }

 private:
  const RunContext& ctx_;
  const ServePlan& plan_;
  std::map<std::pair<size_t, uint64_t>, SetChecksum> cache_;
};

}  // namespace

struct ServePart::State {
  State(RunContext* ctx, ServePlan p)
      : plan(std::move(p)),
        n(plan.ops.size()),
        server(Options()),
        lines(n),
        outcomes(n),
        sent(n, -1),
        schedule(n) {
    for (size_t i = 0; i < n; ++i) lines[i] = OpLine(*ctx->spec, plan, i);
  }

  static kbiplex::serve::ServerOptions Options() {
    kbiplex::serve::ServerOptions options;
    options.workers = 2;
    return options;
  }

  const ServePlan plan;
  const size_t n;
  kbiplex::serve::Server server;
  Connection conn;
  std::vector<std::string> lines;
  std::vector<Outcome> outcomes;
  std::vector<double> sent;
  std::vector<OpenLoopSchedule> schedule;  // the slice schedule of each op
  size_t queue_depth_max = 0;
  size_t pending_retired_max = 0;
  double cpu_s = 0;  // process CPU time spent in the slices
  std::vector<uint32_t> left, right;  // parse buffers
};

ServePart::ServePart(RunContext* ctx)
    : ctx_(ctx),
      s_(std::make_unique<State>(ctx, MakeServePlan(*ctx->spec, ctx->seed, ctx->tenants))) {}

ServePart::~ServePart() = default;

size_t ServePart::ops() const { return s_->n; }

bool ServePart::Start() {
  const WorkloadSpec& spec = *ctx_->spec;
  std::string err = s_->server.Start();
  {
    kbiplex::serve::LineClient loader;
    if (err.empty()) err = loader.Connect("127.0.0.1", s_->server.port());
    for (size_t t = 0; err.empty() && t < spec.tenants; ++t) {
      std::ostringstream line;
      line << "{\"op\":\"load\",\"name\":\"t" << t << "\",\"path\":";
      kbiplex::json::AppendEscaped(line, ctx_->input_dir + "/" + TenantFile(t));
      line << '}';
      std::string reply;
      if (!loader.SendLine(line.str()) || !loader.ReadLine(&reply) ||
          reply.find("\"type\":\"loaded\"") == std::string::npos) {
        err = "wire load failed: " + reply;
      }
    }
  }
  if (err.empty()) err = s_->conn.Connect(s_->server.port());
  if (!err.empty()) ctx_->report->Incorrect("serve start: " + err);
  return err.empty();
}

void ServePart::RunOps(size_t begin, size_t end) {
  State& st = *s_;
  const WorkloadSpec& spec = *ctx_->spec;
  // One generator thread sends each operation at its due time and reads
  // replies while it waits, so the generator, the server's connection
  // thread and its two workers stay within the machine's four cores.
  const double cpu0 = CpuSeconds();
  const OpenLoopSchedule schedule{Now() + 0.005, 1.0 / spec.ops_per_second, begin};
  size_t next = begin, terminal = 0;
  double last_progress = Now();
  auto on_line = [&](std::string_view line) {
    if (HandleLine(line, Now(), &st.outcomes, &st.left, &st.right)) ++terminal;
    last_progress = Now();
  };
  while (terminal < end - begin) {
    const double now = Now();
    if (next < end && now >= schedule.Due(next)) {
      st.schedule[next] = schedule;
      st.sent[next] = now;
      if (!st.conn.Send(st.lines[next])) break;
      if (next % 16 == 0) {
        st.queue_depth_max =
            std::max(st.queue_depth_max, st.server.admission_counters().depth);
        for (size_t t = 0; t < spec.tenants; ++t) {
          st.pending_retired_max = std::max(
              st.pending_retired_max,
              st.server.registry().PendingRetiredEpochs("t" + std::to_string(t)));
        }
      }
      ++next;
      continue;
    }
    // A server that stops answering ends the slice instead of hanging it.
    if (next == end && now - last_progress > 30) break;
    const double wait = next < end ? schedule.Due(next) - now : 0.1;
    if (!st.conn.Poll(wait, on_line)) break;
  }
  st.cpu_s += CpuSeconds() - cpu0;
}

void ServePart::Finish() {
  Report& report = *ctx_->report;
  Trace& trace = *ctx_->trace;
  const WorkloadSpec& spec = *ctx_->spec;
  State& st = *s_;
  const ServePlan& plan = st.plan;
  const size_t n = st.n;
  const std::vector<Outcome>& outcomes = st.outcomes;
  const std::vector<double>& sent = st.sent;
  kbiplex::serve::Server& server = st.server;
  const kbiplex::serve::AdmissionQueue::Counters admission = server.admission_counters();
  uint64_t artifacts_incremental = 0, artifacts_rebuilt = 0;
  for (size_t t = 0; t < spec.tenants; ++t) {
    if (auto entry = server.registry().Get("t" + std::to_string(t))) {
      artifacts_incremental += entry->prepared->lineage().artifacts_incremental;
      artifacts_rebuilt += entry->prepared->lineage().artifacts_rebuilt;
    }
  }
  server.RequestDrain();
  server.Wait();

  // Each tenant's successful updates in application order (one
  // connection: the server applies them in the order they were sent).
  std::vector<std::vector<UpdateWindow>> windows(spec.tenants);
  for (size_t i = 0; i < n; ++i) {
    if (plan.ops[i].type == ServeOp::Type::kUpdate && outcomes[i].type == "updated") {
      windows[plan.ops[i].tenant].push_back({sent[i], outcomes[i].done});
    }
  }

  Oracle oracle(*ctx_, plan);
  std::vector<double> query_latency, ttfs, overhead, ping_latency, update_latency,
      apply_s, lateness;
  uint64_t solution_lines = 0, rebuilt = 0;
  double busy_s = 0;  // summed slice time, first due to last reply
  for (size_t i = 0; i < n; ++i) {
    const Outcome& out = outcomes[i];
    const ServeOp& op = plan.ops[i];
    const OpenLoopSchedule& schedule = st.schedule[i];
    if (sent[i] < 0) {
      report.Op(false, "op " + std::to_string(i) + " was never sent");
      continue;
    }
    lateness.push_back(schedule.Lateness(i, sent[i]));
    if (i + 1 == n || st.schedule[i + 1].first != schedule.first) {
      busy_s += out.done - schedule.start;
    }
    const double latency = schedule.Latency(i, out.done);
    switch (op.type) {
      case ServeOp::Type::kQuery: {
        bool ok = out.type == "done" && out.completed && out.sum.count == out.solutions;
        if (ok) {
          const EpochRange range = AdmissibleEpochs(windows[op.tenant], sent[i], out.done);
          ok = MatchesAdmissibleEpoch(out.sum, range, [&](uint64_t e) {
            return oracle.At(op.tenant, e);
          });
        }
        report.Op(ok, "query " + std::to_string(i) + ": " + out.type + " " +
                          std::to_string(out.code));
        if (!ok) break;
        query_latency.push_back(latency);
        overhead.push_back(latency - out.server_seconds);
        if (out.first >= 0) ttfs.push_back(out.first - schedule.Due(i));
        solution_lines += out.sum.count;
        if (trace.enabled()) {
          const int64_t root = trace.Add({"serve.query", schedule.Due(i), out.done, -1, i, 1});
          trace.Add({"serve.engine", out.done - out.server_seconds, out.done, root, i, 1});
        }
        break;
      }
      case ServeOp::Type::kPing:
        report.Op(out.type == "pong", "ping " + std::to_string(i) + ": " + out.type);
        if (out.type == "pong") ping_latency.push_back(latency);
        break;
      case ServeOp::Type::kUpdate:
        report.Op(out.type == "updated", "update " + std::to_string(i) + ": " + out.type);
        if (out.type != "updated") break;
        update_latency.push_back(latency);
        apply_s.push_back(out.server_seconds);
        rebuilt += out.rebuilt ? 1 : 0;
        if (trace.enabled()) {
          const int64_t root = trace.Add({"serve.update", schedule.Due(i), out.done, -1, i, 1});
          trace.Add({"update.apply", out.done - out.server_seconds, out.done, root, i, 1});
        }
        break;
    }
  }

  std::sort(query_latency.begin(), query_latency.end());
  std::sort(ping_latency.begin(), ping_latency.end());
  std::sort(lateness.begin(), lateness.end());
  const std::optional<double> query_p99 = TailPercentile(query_latency, 0.99);
  const std::optional<double> ping_p99 = TailPercentile(ping_latency, 0.99);
  const std::optional<double> lag_p99 = TailPercentile(lateness, 0.99);
  if (!query_p99 || !ping_p99 || !lag_p99) {
    report.Incorrect("too few serving samples for a p99");
    return;
  }
  // CPU time per streamed query: the server's workers, connection thread
  // and the generator (which parses every solution line) together. Unlike
  // the latencies it does not grow when the host is slow to wake threads.
  report.Value("serve_cpu_ms", "ms", 1e3 * st.cpu_s / static_cast<double>(spec.serve_queries),
               query_latency.size());
  report.Timing("query_p50_s", query_latency);
  report.Value("query_p99_s", "s", *query_p99, query_latency.size());
  report.Timing("ttfs_s", ttfs);
  report.Timing("update_p50_s", update_latency);

  report.Timing("serve.ping_p50_s", ping_latency);
  report.Value("serve.ping_p99_s", "s", *ping_p99, ping_latency.size());
  report.Timing("serve.overhead_p50_s", overhead);
  report.Value("serve.lines_per_s", "1/s", static_cast<double>(solution_lines) / busy_s);
  report.Value("serve.admitted", "count", static_cast<double>(admission.admitted));
  report.Value("serve.rejected_overload", "count",
               static_cast<double>(admission.rejected_overload));
  report.Value("serve.queue_depth_max", "count", static_cast<double>(st.queue_depth_max));
  report.Value("serve.gen_lag_p99_s", "s", *lag_p99, lateness.size());
  report.Timing("update.apply_p50_s", apply_s);
  report.Value("update.rebuilt_share", "share",
               static_cast<double>(rebuilt) /
                   static_cast<double>(std::max<size_t>(1, apply_s.size())));
  report.Value("update.artifacts_incremental", "count",
               static_cast<double>(artifacts_incremental));
  report.Value("update.artifacts_rebuilt", "count", static_cast<double>(artifacts_rebuilt));
  report.Value("update.pending_retired_epochs_max", "count",
               static_cast<double>(st.pending_retired_max));
}

}  // namespace perfbench
