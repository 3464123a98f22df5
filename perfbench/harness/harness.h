// Shared pieces of the harness parts: the clock, the run context and the
// metric report every part writes into.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "bench_util.h"
#include "graph/bipartite_graph.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Seconds on the harness's monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds (user + system) the process has used so far, all threads.
inline double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// One reported metric: a value with its unit, plus the samples' median
/// and quartiles when the value is a timing summarized over samples.
struct MetricLine {
  std::string name;
  std::string unit;
  double value = 0;
  Summary summary;  // n == 0 for single values (counts, ratios)
};

/// Accumulates metrics, operation outcomes and failure reasons.
class Report {
 public:
  void Timing(const std::string& name, const std::vector<double>& samples) {
    Median(name, "s", samples);
  }
  void Median(const std::string& name, const std::string& unit,
              const std::vector<double>& samples) {
    const Summary s = Summarize(samples);
    lines_.push_back({name, unit, s.median, s});
  }
  void Value(const std::string& name, const std::string& unit, double value,
             size_t samples = 0) {
    Summary s;
    s.n = samples;
    s.median = s.q1 = s.q3 = value;
    lines_.push_back({name, unit, value, s});
  }
  /// Counts one operation; a failed one records its reason.
  void Op(bool ok, const std::string& what = "") {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
    }
  }
  /// A correctness violation that is not one operation (e.g. counters
  /// that failed to repeat): fails the run.
  void Incorrect(const std::string& what) {
    correct_ = false;
    if (failures_.size() < 20) failures_.push_back(what);
  }

  const std::vector<MetricLine>& lines() const { return lines_; }
  const std::vector<std::string>& failures() const { return failures_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  std::vector<MetricLine> lines_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Everything the parts share within one run.
struct RunContext {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::string input_dir;
  Trace* trace = nullptr;
  Report* report = nullptr;
  // Library graphs as loaded and prepared by the last set-up repetition.
  std::vector<std::shared_ptr<const kbiplex::PreparedGraph>> library;
  std::vector<kbiplex::BipartiteGraph> tenants;  // initial tenant graphs
};

/// Edge-list files of the library graphs (the tenants' files when the
/// workload has no library graphs of its own). Defined in setup_part.cc.
std::vector<std::string> LibraryPaths(const RunContext& ctx);

/// Set-up: LoadEdgeList + Prepare + Warmup of the library graphs and Start
/// + wire `load` of the tenants, repeated; leaves the last repetition's
/// prepared graphs in ctx.library (setup_part.cc).
class SetupPart {
 public:
  explicit SetupPart(RunContext* ctx);
  ~SetupPart();
  SetupPart(const SetupPart&) = delete;
  SetupPart& operator=(const SetupPart&) = delete;

  bool RunReps(size_t reps);  // false after a failed repetition
  void Finish();              // metrics

 private:
  struct State;
  RunContext* ctx_;
  std::unique_ptr<State> s_;
};

/// The library query set at threads=1 and threads=2 (library_part.cc).
class LibraryPart {
 public:
  explicit LibraryPart(RunContext* ctx);
  ~LibraryPart();
  LibraryPart(const LibraryPart&) = delete;
  LibraryPart& operator=(const LibraryPart&) = delete;

  void WarmUp();   // the unmeasured first pair
  void RunPair();  // one measured threads=1 + threads=2 pair
  uint64_t pairs() const;
  void Finish();   // correctness checks and metrics

 private:
  struct State;
  RunContext* ctx_;
  std::unique_ptr<State> s_;
};

/// The fixed-rate serving traffic against an in-process server, with the
/// streamed results checked against from-scratch library results
/// (serve_part.cc). The traffic runs in slices between library pairs, so
/// both parts see the same stretch of machine time.
class ServePart {
 public:
  explicit ServePart(RunContext* ctx);
  ~ServePart();
  ServePart(const ServePart&) = delete;
  ServePart& operator=(const ServePart&) = delete;

  bool Start();  // server up, tenants loaded over the wire (not timed)
  size_t ops() const;
  void RunOps(size_t begin, size_t end);  // send ops [begin, end), await replies
  void Finish();  // stop the server, checks and metrics

 private:
  struct State;
  RunContext* ctx_;
  std::unique_ptr<State> s_;
};

/// Seconds the serving part's schedule lasts.
inline double ServeSeconds(const WorkloadSpec& spec) {
  return static_cast<double>(spec.serve_queries + spec.serve_pings +
                             spec.serve_updates) /
         spec.ops_per_second;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
