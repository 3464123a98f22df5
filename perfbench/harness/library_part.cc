// Library part: the workload's query set through QuerySession::Run, one
// pass at threads=1 and one at threads=2 per pair, with the order flipped
// every pair. The first pair is warm-up: it pays lazy artifact builds
// (reported as api.first_query_extra_s) and is left out of enum_s /
// enum_par_s. The reference task (reference.h) runs just before every
// query, outside the query's timing; enum_rel and delay_p99_rel are the
// threads=1 times over the reference time next to them.
#include <string>
#include <vector>

#include "api/query_session.h"
#include "harness.h"
#include "reference.h"

namespace perfbench {
namespace {

using kbiplex::Biplex;
using kbiplex::EnumerateRequest;
using kbiplex::EnumerateStats;
using kbiplex::QuerySession;
using kbiplex::TraversalStats;

// Engine work counters of one pass, summed over its queries. They must
// repeat exactly on every threads=1 pass.
struct Counters {
  uint64_t solutions = 0, links = 0, almost_sat_graphs = 0, local_solutions = 0,
           dedup_hits = 0, candidates_generated = 0, candidates_pruned = 0,
           b_subsets = 0, a_subsets = 0, adjacency_tests = 0, core_left = 0,
           core_right = 0;

  void Add(const EnumerateStats& st) {
    solutions += st.solutions;
    const TraversalStats* t = nullptr;
    if (st.traversal) t = &*st.traversal;
    if (st.large_mbp) {
      t = &st.large_mbp->traversal;
      core_left += st.large_mbp->core_left;
      core_right += st.large_mbp->core_right;
    }
    if (t == nullptr) return;
    links += t->links;
    almost_sat_graphs += t->almost_sat_graphs;
    local_solutions += t->local_solutions;
    dedup_hits += t->dedup_hits;
    candidates_generated += t->candidates_generated;
    candidates_pruned += t->candidates_pruned;
    b_subsets += t->local_stats.b_subsets;
    a_subsets += t->local_stats.a_subsets;
    adjacency_tests += t->local_stats.adjacency_tests;
  }

  std::vector<uint64_t> Values() const {
    return {solutions, links, almost_sat_graphs, local_solutions, dedup_hits,
            candidates_generated, candidates_pruned, b_subsets, a_subsets,
            adjacency_tests, core_left, core_right};
  }
};

struct Pass {
  double wall = 0;
  double cpu = 0;
  double sink = 0;  // seconds inside the sink (traced passes only)
  double ref = 0;   // seconds in the reference task (spec.ref_runs per query)
  uint64_t work_units = 0;
  std::vector<SetChecksum> sums;  // per query
  std::vector<double> gaps;       // between consecutive solutions
  std::vector<double> rel_gaps;   // each gap over its query's reference time
  Counters counters;
};

class LibraryRunner {
 public:
  explicit LibraryRunner(RunContext* ctx) : ctx_(*ctx), ref_count_(ref_.Run()) {
    for (const auto& prepared : ctx_.library) {
      sessions_.push_back(std::make_unique<QuerySession>(prepared));
    }
  }

  // One pass over the query set. `timed_sink` records the gap before each
  // solution (threads=1); `traced` also records spans and the sink's own
  // time.
  Pass Run(int threads, bool timed_sink, bool traced, uint64_t pass_id) {
    Trace& trace = *ctx_.trace;
    Pass pass;
    const double cpu0 = CpuSeconds();
    const double t0 = Now();
    const int64_t root =
        traced ? trace.Add({threads == 1 ? "library.pass_t1" : "library.pass_t2",
                            t0, t0, -1, pass_id, 1})
               : -1;
    for (const LibraryQuery& q : ctx_.spec->queries) {
      EnumerateRequest req;
      req.algorithm = q.algorithm;
      req.k = kbiplex::KPair::Uniform(q.k);
      req.theta_left = req.theta_right = q.theta;
      req.threads = threads;
      const double r0 = Now();
      for (size_t i = 0; i < ctx_.spec->ref_runs; ++i) {
        if (ref_.Run() != ref_count_) ctx_.report->Incorrect("reference task result changed");
      }
      const double q0 = Now();
      pass.ref += q0 - r0;
      if (traced) trace.Add({"harness.reference", r0, q0, root, pass_id, 1});
      const size_t first_gap = pass.gaps.size();
      SetChecksum sum;
      double sink = 0;
      double last = q0;
      EnumerateStats st = sessions_[q.graph]->Run(req, [&](const Biplex& b) {
        if (timed_sink) {
          const double now = Now();
          if (sum.count > 0) pass.gaps.push_back(now - last);
          last = now;
          sum.Add(b.left, b.right);
          if (traced) sink += Now() - now;
        } else {
          sum.Add(b.left, b.right);
        }
        return true;
      });
      const double q1 = Now();
      for (size_t g = first_gap; g < pass.gaps.size(); ++g) {
        pass.rel_gaps.push_back(pass.gaps[g] / (q0 - r0));
      }
      if (traced) {
        const int64_t span = trace.Add({"api.query", q0, q1, root, pass_id, 1});
        trace.Add({"api.sink", q0, q0 + sink, span, pass_id, sum.count});
      }
      pass.sink += sink;
      const bool ok = st.ok() && st.completed && st.solutions == sum.count;
      ctx_.report->Op(ok, "library query " + q.algorithm + " threads=" +
                              std::to_string(threads) + ": " + st.error);
      pass.work_units += st.work_units;
      pass.counters.Add(st);
      pass.sums.push_back(sum);
    }
    const double end = Now();
    pass.wall = end - t0 - pass.ref;
    pass.cpu = CpuSeconds() - cpu0 - pass.ref;  // the reference task is single-threaded
    trace.End(root, end);
    return pass;
  }

 private:
  RunContext& ctx_;
  std::vector<std::unique_ptr<QuerySession>> sessions_;
  ReferenceTask ref_;
  uint64_t ref_count_;
};

}  // namespace

struct LibraryPart::State {
  explicit State(RunContext* ctx) : runner(ctx) {}
  LibraryRunner runner;
  Pass first_t2, reference;
  std::vector<Pass> t1, t1_traced, t2;
  uint64_t pairs = 0;
};

LibraryPart::LibraryPart(RunContext* ctx) : ctx_(ctx), s_(std::make_unique<State>(ctx)) {}
LibraryPart::~LibraryPart() = default;

void LibraryPart::WarmUp() {
  // threads=2 first, so its lazy builds land on the pass that needs them.
  s_->first_t2 = s_->runner.Run(2, false, false, 0);
  s_->reference = s_->runner.Run(1, true, false, 0);
}

void LibraryPart::RunPair() {
  const uint64_t pair = ++s_->pairs;
  // In the traced run, odd pairs trace their threads=1 pass and even pairs
  // do not, so the tracing overhead is measured on equal terms.
  const bool trace_this = ctx_->trace->enabled() && pair % 2 == 1;
  auto run_t1 = [&] {
    (trace_this ? s_->t1_traced : s_->t1).push_back(s_->runner.Run(1, true, trace_this, pair));
  };
  if (pair % 2 == 0) {
    run_t1();
    s_->t2.push_back(s_->runner.Run(2, false, false, pair));
  } else {
    s_->t2.push_back(s_->runner.Run(2, false, false, pair));
    run_t1();
  }
}

uint64_t LibraryPart::pairs() const { return s_->pairs; }

void LibraryPart::Finish() {
  Report& report = *ctx_->report;
  const bool traced = ctx_->trace->enabled();
  const WorkloadSpec& spec = *ctx_->spec;
  const Pass& first_t2 = s_->first_t2;
  const Pass& reference = s_->reference;
  const std::vector<Pass>& t1 = s_->t1;
  const std::vector<Pass>& t1_traced = s_->t1_traced;
  const std::vector<Pass>& t2 = s_->t2;

  // Correctness: every pass's per-query checksums equal the reference
  // pass's, threads=2 included; threads=1 counters repeat exactly; the
  // default seed's answers are pinned.
  auto check = [&](const Pass& p, const char* what) {
    if (p.sums.size() != reference.sums.size()) return;
    for (size_t i = 0; i < p.sums.size(); ++i) {
      if (p.sums[i] != reference.sums[i]) {
        report.Incorrect(std::string(what) + " result differs on query " +
                         std::to_string(i));
      }
    }
  };
  check(first_t2, "threads=2");
  for (const Pass& p : t2) check(p, "threads=2");
  for (const std::vector<Pass>* group : {&t1, &t1_traced}) {
    for (const Pass& p : *group) {
      check(p, "threads=1");
      if (p.counters.Values() != reference.counters.Values()) {
        report.Incorrect("threads=1 work counters did not repeat");
      }
    }
  }
  if (ctx_->seed == kDefaultSeed) {
    if (spec.pinned.size() != reference.sums.size()) {
      report.Incorrect("the default seed's results are not pinned for every query");
    }
    for (size_t i = 0; i < spec.pinned.size() && i < reference.sums.size(); ++i) {
      if (reference.sums[i].count != spec.pinned[i].count ||
          reference.sums[i].digest != spec.pinned[i].digest) {
        report.Incorrect("query " + std::to_string(i) +
                         " differs from the pinned default-seed result");
      }
    }
  }
  for (size_t i = 0; i < reference.sums.size(); ++i) {
    std::printf("# query %zu: %llu solutions, digest %016llx\n", i,
                static_cast<unsigned long long>(reference.sums[i].count),
                static_cast<unsigned long long>(reference.sums[i].digest));
  }
  uint64_t counters_digest = 0;
  for (uint64_t v : reference.counters.Values()) counters_digest = Mix64(counters_digest ^ v);
  std::printf("# threads=1 work counters digest %016llx\n",
              static_cast<unsigned long long>(counters_digest));

  // The delay percentiles pool the gaps of every threads=1 pass, so a
  // query set with few solutions still has ten gaps beyond its p99.
  std::vector<double> enum_s, enum_rel, gaps, rel_gaps, ref_s, enum_par_s, par_cpu_s,
      links_ratio;
  const double queries = static_cast<double>(spec.queries.size());
  for (const Pass& p : t1) {
    enum_s.push_back(p.wall);
    enum_rel.push_back(p.wall / p.ref);
    gaps.insert(gaps.end(), p.gaps.begin(), p.gaps.end());
    rel_gaps.insert(rel_gaps.end(), p.rel_gaps.begin(), p.rel_gaps.end());
    ref_s.push_back(p.ref / queries / static_cast<double>(spec.ref_runs));
  }
  std::sort(gaps.begin(), gaps.end());
  std::sort(rel_gaps.begin(), rel_gaps.end());
  const std::optional<double> delay_p99 = TailPercentile(gaps, 0.99);
  const std::optional<double> delay_p99_rel = TailPercentile(rel_gaps, 0.99);
  if (!delay_p99 || !delay_p99_rel) {
    report.Incorrect("too few solution gaps for a p99");
    return;
  }
  for (const Pass& p : t2) {
    enum_par_s.push_back(p.wall);
    par_cpu_s.push_back(p.cpu);
    links_ratio.push_back(static_cast<double>(p.work_units) /
                          static_cast<double>(std::max<uint64_t>(1, reference.work_units)));
  }
  report.Timing("enum_s", enum_s);
  report.Median("enum_rel", "ratio", enum_rel);
  report.Timing("enum_par_s", enum_par_s);
  report.Value("delay_p99_s", "s", *delay_p99, gaps.size());
  report.Value("delay_p99_rel", "ratio", *delay_p99_rel, rel_gaps.size());
  report.Timing("host.ref_s", ref_s);
  report.Timing("api.par_cpu_s", par_cpu_s);
  if (!traced) return;

  std::vector<double> traced_wall, sink_s, engine_s;
  for (const Pass& p : t1_traced) {
    traced_wall.push_back(p.wall);
    sink_s.push_back(p.sink);
    engine_s.push_back(p.wall - p.sink);
  }
  const double t1_median = Summarize(enum_s).median;
  const double t2_median = Summarize(enum_par_s).median;
  report.Timing("api.sink_s", sink_s);
  report.Timing("core.engine_s", engine_s);
  report.Value("api.par_links_ratio", "ratio", Summarize(links_ratio).median,
               links_ratio.size());
  report.Value("api.par_speedup", "ratio", t1_median / t2_median, t2.size());
  report.Value("api.first_query_extra_s", "s", first_t2.wall - t2_median, 1);
  report.Value("trace.enum_overhead", "ratio",
               Summarize(traced_wall).median / t1_median - 1, traced_wall.size());
  const Counters& c = reference.counters;
  report.Value("core.links", "count", static_cast<double>(c.links));
  report.Value("core.almost_sat_graphs", "count", static_cast<double>(c.almost_sat_graphs));
  report.Value("core.local_solutions", "count", static_cast<double>(c.local_solutions));
  report.Value("core.dedup_hits", "count", static_cast<double>(c.dedup_hits));
  report.Value("core.candidates_generated", "count",
               static_cast<double>(c.candidates_generated));
  report.Value("core.candidates_pruned", "count", static_cast<double>(c.candidates_pruned));
  report.Value("core.b_subsets", "count", static_cast<double>(c.b_subsets));
  report.Value("core.a_subsets", "count", static_cast<double>(c.a_subsets));
  report.Value("core.adjacency_tests", "count", static_cast<double>(c.adjacency_tests));
  report.Value("core.core_left", "count", static_cast<double>(c.core_left));
  report.Value("core.core_right", "count", static_cast<double>(c.core_right));
  report.Value("core.yield", "ratio",
               static_cast<double>(c.solutions) /
                   static_cast<double>(std::max<uint64_t>(1, c.almost_sat_graphs)));
}

}  // namespace perfbench
