// Set-up part: edge-list file -> ready, the way a user gets there. One
// repetition loads, prepares and warms every library graph and starts a
// server that loads every tenant over the wire; setup_s is the median
// repetition. A workload can split the repetitions into groups spread over
// the run (WorkloadSpec::setup_groups): dense-enum's 2 ms repetitions, all
// at the start, caught the host in one state, and their median ranged from
// 1.9 to 4.8 ms across runs.
#include <sys/stat.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"

namespace perfbench {
namespace {

using kbiplex::PreparedGraph;

double FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

}  // namespace

std::vector<std::string> LibraryPaths(const RunContext& ctx) {
  std::vector<std::string> paths;
  const WorkloadSpec& spec = *ctx.spec;
  if (spec.library_graphs.empty()) {
    for (size_t i = 0; i < spec.tenants; ++i) {
      paths.push_back(ctx.input_dir + "/" + TenantFile(i));
    }
  } else {
    for (size_t i = 0; i < spec.library_graphs.size(); ++i) {
      paths.push_back(ctx.input_dir + "/" + LibraryFile(i));
    }
  }
  return paths;
}

struct SetupPart::State {
  std::vector<double> setup_s, load_s, prepare_s, warmup_s, start_s, wire_load_s;
};

SetupPart::SetupPart(RunContext* ctx) : ctx_(ctx), s_(std::make_unique<State>()) {}
SetupPart::~SetupPart() = default;

bool SetupPart::RunReps(size_t reps) {
  RunContext* ctx = ctx_;
  Report& report = *ctx->report;
  Trace& trace = *ctx->trace;
  const WorkloadSpec& spec = *ctx->spec;
  const std::vector<std::string> paths = LibraryPaths(*ctx);
  for (size_t i = 0; i < reps; ++i) {
    const uint64_t rep = s_->setup_s.size();
    ctx->library.clear();
    const double t0 = Now();
    const int64_t root = trace.Add({"setup", t0, t0, -1, rep, 1});
    double load = 0, prepare = 0, warmup = 0;
    bool ok = true;
    for (const std::string& path : paths) {
      const double a = Now();
      kbiplex::LoadResult loaded = kbiplex::LoadEdgeList(path);
      const double b = Now();
      if (!loaded.ok()) {
        report.Op(false, "load " + path + ": " + loaded.error);
        ok = false;
        break;
      }
      auto prepared = PreparedGraph::Prepare(std::move(*loaded.graph));
      const double c = Now();
      prepared->Warmup();
      const double d = Now();
      trace.Add({"graph.load", a, b, root, rep, 1});
      trace.Add({"api.prepare", b, c, root, rep, 1});
      trace.Add({"api.warmup", c, d, root, rep, 1});
      load += b - a;
      prepare += c - b;
      warmup += d - c;
      ctx->library.push_back(std::move(prepared));
    }

    const double s0 = Now();
    kbiplex::serve::ServerOptions options;
    options.workers = 2;
    kbiplex::serve::Server server(options);
    const std::string start_err = server.Start();
    const double s1 = Now();
    trace.Add({"serve.start", s0, s1, root, rep, 1});
    kbiplex::serve::LineClient client;
    if (!start_err.empty() ||
        !client.Connect("127.0.0.1", server.port()).empty()) {
      report.Op(false, "server start: " + start_err);
      ok = false;
    }
    for (size_t t = 0; ok && t < spec.tenants; ++t) {
      std::ostringstream line;
      line << "{\"op\":\"load\",\"id\":" << t << ",\"name\":\"t" << t
           << "\",\"path\":";
      kbiplex::json::AppendEscaped(line, ctx->input_dir + "/" + TenantFile(t));
      line << '}';
      std::string reply;
      if (!client.SendLine(line.str()) || !client.ReadLine(&reply) ||
          reply.find("\"type\":\"loaded\"") == std::string::npos) {
        report.Op(false, "wire load: " + reply);
        ok = false;
      }
    }
    const double t1 = Now();
    trace.Add({"serve.load", s1, t1, root, rep, 1});
    trace.End(root, t1);
    client.Close();
    server.RequestDrain();
    server.Wait();

    report.Op(ok, "setup");
    if (!ok) return false;
    s_->setup_s.push_back(t1 - t0);
    s_->load_s.push_back(load);
    s_->prepare_s.push_back(prepare);
    s_->warmup_s.push_back(warmup);
    s_->start_s.push_back(s1 - s0);
    s_->wire_load_s.push_back(t1 - s1);
  }

  if (ctx->tenants.empty()) {
    for (size_t t = 0; t < spec.tenants; ++t) {
      kbiplex::LoadResult loaded =
          kbiplex::LoadEdgeList(ctx->input_dir + "/" + TenantFile(t));
      if (!loaded.ok()) {
        report.Incorrect("tenant reload: " + loaded.error);
        return false;
      }
      ctx->tenants.push_back(std::move(*loaded.graph));
    }
  }
  return true;
}

void SetupPart::Finish() {
  Report& report = *ctx_->report;
  report.Timing("setup_s", s_->setup_s);
  if (!ctx_->trace->enabled()) return;
  double bytes = 0;
  for (const std::string& p : LibraryPaths(*ctx_)) bytes += FileBytes(p);
  report.Timing("graph.load_s", s_->load_s);
  report.Value("graph.load_mb_per_s", "MB/s", bytes / 1e6 / Summarize(s_->load_s).median,
               s_->load_s.size());
  report.Timing("api.prepare_s", s_->prepare_s);
  report.Timing("api.warmup_s", s_->warmup_s);
  report.Timing("serve.start_s", s_->start_s);
  report.Timing("serve.load_s", s_->wire_load_s);
}

}  // namespace perfbench
