// The benchmark harness. Two subcommands:
//
//   perfbench_harness generate --workload W --seed N --dir DIR
//       writes the workload's input graphs as edge-list files;
//   perfbench_harness measure --workload W --seed N --seconds T
//                             --trace 0|1 --dir DIR [--trace-out FILE]
//       runs set-up, library and serving parts for about T seconds and
//       prints one line per metric (median with quartiles and sample
//       count), then one JSON line with every metric.
//
// Generation runs in its own process so its memory never shows in the
// measured process's peak_rss_mb. perfbench/run.py drives both.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "graph/core_decomposition.h"
#include "graph/graph_io.h"
#include "harness.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr size_t kServeSlices = 6;

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 20;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

int Usage() {
  std::string names;
  for (const std::string& n : WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "usage: perfbench_harness generate|measure --workload W --seed N "
               "--dir DIR [--seconds T] [--trace 0|1] [--trace-out FILE]\n"
               "workloads:%s\n",
               names.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return (argc % 2 == 0) && !args->dir.empty() && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0;
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Direct calls into single layers, timed on a fresh prepared copy of each
// library graph (traced run only): the lazily built artifacts one by one,
// and the (θ−k)-core reduction a thresholded query performs.
void RunLayerProbes(RunContext* ctx) {
  Report& report = *ctx->report;
  Trace& trace = *ctx->trace;
  double exec_s = 0, components_s = 0, core_bound_s = 0, subgraphs_s = 0;
  double index_bytes = 0;
  const std::vector<std::string> paths = LibraryPaths(*ctx);
  for (size_t i = 0; i < paths.size(); ++i) {
    kbiplex::LoadResult loaded = kbiplex::LoadEdgeList(paths[i]);
    if (!loaded.ok()) {
      report.Incorrect("load " + paths[i] + ": " + loaded.error);
      return;
    }
    auto prepared = kbiplex::PreparedGraph::Prepare(std::move(*loaded.graph));
    const double t0 = Now();
    prepared->ExecutionGraph();
    const double t1 = Now();
    prepared->Components();
    const double t2 = Now();
    prepared->MaxUniformCore();
    const double t3 = Now();
    prepared->ComponentSubgraphs();
    const double t4 = Now();
    const int64_t root = trace.Add({"probe.artifacts", t0, t4, -1, i, 1});
    trace.Add({"api.exec_graph", t0, t1, root, i, 1});
    trace.Add({"api.components", t1, t2, root, i, 1});
    trace.Add({"api.core_bound", t2, t3, root, i, 1});
    trace.Add({"api.component_subgraphs", t3, t4, root, i, 1});
    exec_s += t1 - t0;
    components_s += t2 - t1;
    core_bound_s += t3 - t2;
    subgraphs_s += t4 - t3;
    index_bytes += static_cast<double>(prepared->artifact_stats().adjacency_memory_bytes);
  }
  report.Value("api.exec_graph_s", "s", exec_s, 1);
  report.Value("api.components_s", "s", components_s, 1);
  report.Value("api.core_bound_s", "s", core_bound_s, 1);
  report.Value("api.component_subgraphs_s", "s", subgraphs_s, 1);
  report.Value("api.index_bytes", "bytes", index_bytes);

  // Queries without a threshold reduce nothing; they are probed at the
  // (1,1)-core, the cheapest reduction that still peels the graph.
  std::vector<double> core_s;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = Now();
    for (const LibraryQuery& q : ctx->spec->queries) {
      const size_t a = q.theta > static_cast<size_t>(q.k) ? q.theta - static_cast<size_t>(q.k) : 1;
      kbiplex::AlphaBetaCore(ctx->library[q.graph]->graph(), a, a);
    }
    const double t1 = Now();
    trace.Add({"graph.core_reduce", t0, t1, -1, static_cast<uint64_t>(rep), 1});
    core_s.push_back(t1 - t0);
  }
  report.Timing("graph.core_reduce_s", core_s);
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

int Measure(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  Report report;
  Trace trace(args.trace);
  RunContext ctx;
  ctx.spec = &spec;
  ctx.seed = args.seed;
  ctx.input_dir = args.dir;
  ctx.trace = &trace;
  ctx.report = &report;

  const char* commit = std::getenv("PERFBENCH_COMMIT");
  char stamp[512];
  std::snprintf(stamp, sizeof(stamp),
                "{\"nproc\":%u,\"simd\":\"%s\",\"compiler\":\"%s\",\"build\":\"%s\","
                "\"commit\":\"%s\",\"workload\":\"%s\",\"seed\":%llu}",
                std::thread::hardware_concurrency(), kbiplex::simd::Active().name, Compiler(),
                PERFBENCH_BUILD_TYPE, commit != nullptr ? commit : "unknown", spec.name.c_str(),
                static_cast<unsigned long long>(args.seed));
  std::printf("# machine: %s\n", stamp);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  const double start = Now();
  SetupPart setup(&ctx);
  // Set-up repetitions done after group `group` of spec.setup_groups: the
  // first group runs before anything else (it leaves the graphs the
  // library part uses), the others after serving slices.
  auto setup_until = [&](size_t group) {
    const size_t groups = std::min(spec.setup_groups, kServeSlices + 1);
    return std::max<size_t>(1, spec.setup_reps * std::min(group + 1, groups) / groups);
  };
  if (setup.RunReps(setup_until(0))) {
    LibraryPart library(&ctx);
    ServePart serve(&ctx);
    if (serve.Start()) {
      library.WarmUp();
      // The serving traffic and the later set-up groups run in slices
      // between library pairs, so a stretch of machine noise shorter than
      // the run touches every part a little instead of one part entirely.
      const size_t n = serve.ops();
      const double library_budget = args.seconds - (Now() - start) - ServeSeconds(spec);
      double library_spent = 0;
      size_t setup_done = setup_until(0);
      for (size_t k = 0; k < kServeSlices; ++k) {
        const uint64_t min_pairs = (3 * (k + 1) + kServeSlices - 1) / kServeSlices;
        while (library.pairs() < min_pairs ||
               library_spent < library_budget * static_cast<double>(k + 1) / kServeSlices) {
          const double t0 = Now();
          library.RunPair();
          library_spent += Now() - t0;
        }
        serve.RunOps(n * k / kServeSlices, n * (k + 1) / kServeSlices);
        if (!setup.RunReps(setup_until(k + 1) - setup_done)) break;
        setup_done = setup_until(k + 1);
      }
      serve.Finish();
      library.Finish();
    }
  }
  setup.Finish();
  report.Value("peak_rss_mb", "MB", PeakRssMb());
  if (report.correct() && args.trace) RunLayerProbes(&ctx);
  const double success =
      report.attempted() == 0
          ? 0
          : static_cast<double>(report.attempted() - report.failed()) /
                static_cast<double>(report.attempted());
  report.Value("success_rate", "share", success, report.attempted());

  if (args.trace) {
    for (const auto& [name, secs] : trace.SelfSeconds()) {
      std::printf("# self time %-28s %.6f s\n", name.c_str(), secs);
    }
    if (!args.trace_out.empty()) {
      if (trace.Write(args.trace_out, stamp)) {
        std::printf("# trace: %zu spans written to %s\n", trace.size(), args.trace_out.c_str());
      } else {
        report.Incorrect("could not write " + args.trace_out);
      }
    }
  }
  for (const std::string& f : report.failures()) std::printf("# FAILED: %s\n", f.c_str());
  for (const MetricLine& m : report.lines()) {
    std::printf("%-32s %14.6g %-6s n=%-6zu median=%.6g q1=%.6g q3=%.6g\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.summary.n, m.summary.median, m.summary.q1,
                m.summary.q3);
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  bool first = true;
  for (const MetricLine& m : report.lines()) {
    std::printf("%s\"%s\":{\"value\":", first ? "" : ",", m.name.c_str());
    PrintJsonNumber(m.value);
    std::printf(",\"unit\":\"%s\",\"samples\":%zu}", m.unit.c_str(), m.summary.n);
    first = false;
  }
  std::printf("}}\n");
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "generate") {
    const std::string err =
        GenerateInputs(*FindWorkload(args.workload), args.seed, args.dir);
    if (!err.empty()) {
      std::fprintf(stderr, "generate: %s\n", err.c_str());
      return 1;
    }
    return 0;
  }
  if (args.command == "measure") return Measure(args);
  return Usage();
}
