// The traversal family (iTraversal, its ablations, bTraversal) and Section 5
// large-MBP enumeration. Neither declares a range domain, so the plan
// splits them by connected component.
#include <algorithm>

#include "api/backends/backends.h"
#include "api/prepared_graph.h"
#include "core/btraversal.h"
#include "core/large_mbp.h"

namespace kbiplex {
namespace internal {
namespace {

/// Adds a shard's traversal counters into an accumulator. `completed`
/// holds iff every shard completed; `seconds` add up (aggregate worker
/// time, not wall clock); stack depths take the maximum.
void MergeInto(TraversalStats* into, const TraversalStats& s) {
  into->solutions_found += s.solutions_found;
  into->solutions_emitted += s.solutions_emitted;
  into->links += s.links;
  into->links_pruned_right_shrinking += s.links_pruned_right_shrinking;
  into->links_pruned_exclusion += s.links_pruned_exclusion;
  into->almost_sat_graphs += s.almost_sat_graphs;
  into->local_solutions += s.local_solutions;
  into->dedup_hits += s.dedup_hits;
  into->candidates_generated += s.candidates_generated;
  into->candidates_pruned += s.candidates_pruned;
  into->local_stats.b_subsets += s.local_stats.b_subsets;
  into->local_stats.a_subsets += s.local_stats.a_subsets;
  into->local_stats.local_solutions += s.local_stats.local_solutions;
  into->local_stats.adjacency_tests += s.local_stats.adjacency_tests;
  into->local_stats.step3_sweeps += s.local_stats.step3_sweeps;
  into->completed = into->completed && s.completed;
  into->seconds += s.seconds;
  into->max_stack_depth = std::max(into->max_stack_depth, s.max_stack_depth);
}

class TraversalBackend final : public AlgorithmBackend {
 public:
  explicit TraversalBackend(TraversalOptions base) : base_(base) {}

  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) const override {
    TraversalOptions opts = base_;
    opts.scratch = ctx.scratch;
    opts.k = req.k;
    opts.theta_left = req.theta_left;
    opts.theta_right = req.theta_right;
    opts.prune_small = opts.right_shrinking &&
                       (req.theta_left > 0 || req.theta_right > 0);
    opts.max_results = req.max_results;
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.max_links = req.max_links;
    opts.cancel = req.cancellation;
    TraversalStats ts = TraversalEngine(ctx.prepared->graph(), opts).Run(
        [sink](const Biplex& b) { return sink->Accept(b); });

    EnumerateStats out;
    out.work_units = ts.links;
    out.completed = ts.completed;
    out.seconds = ts.seconds;
    out.traversal = ts;
    return out;
  }

  void MergeDetail(const EnumerateStats& shard,
                   EnumerateStats* into) const override {
    FoldDetail(&EnumerateStats::traversal, shard, into, MergeInto);
  }

 private:
  TraversalOptions base_;
};

class LargeMbpBackend final : public AlgorithmBackend {
 public:
  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) const override {
    LargeMbpOptions opts;
    opts.scratch = ctx.scratch;
    opts.k = req.k;
    opts.theta_left = req.theta_left;
    opts.theta_right = req.theta_right;
    opts.max_results = req.max_results;
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.cancel = req.cancellation;
    LargeMbpStats ls = LargeMbpEngine(ctx.prepared->graph(), opts).Run(
        [sink](const Biplex& b) { return sink->Accept(b); });

    EnumerateStats out;
    out.work_units = ls.traversal.links;
    out.completed = ls.completed;
    out.seconds = ls.seconds;
    out.large_mbp = ls;
    return out;
  }

  void MergeDetail(const EnumerateStats& shard,
                   EnumerateStats* into) const override {
    FoldDetail(&EnumerateStats::large_mbp, shard, into,
               [](LargeMbpStats* l, const LargeMbpStats& s) {
                 MergeInto(&l->traversal, s.traversal);
                 l->core_left += s.core_left;
                 l->core_right += s.core_right;
                 l->completed = l->completed && s.completed;
                 l->seconds += s.seconds;
               });
  }
};

}  // namespace

void RegisterTraversalBackends(AlgorithmRegistry* registry) {
  auto traversal = [registry](const char* name, const char* summary,
                              TraversalOptions base) {
    registry->Register(
        AlgorithmInfo{.name = name, .summary = summary},
        [base](const BackendOptions& options) {
          TraversalOptions opts = base;
          OptionReader reader(options);
          if (auto side = reader.Take("anchored_side")) {
            if (*side == "left" || *side == "right") {
              opts.anchored_side = *side == "left" ? Side::kLeft : Side::kRight;
            } else {
              reader.Fail("anchored_side", *side, "left|right");
            }
          }
          return reader.Configure<TraversalBackend>(opts);
        });
  };
  traversal("itraversal",
            "reverse search with all three techniques (Algorithm 2)",
            MakeITraversalOptions(1));
  traversal("itraversal-es", "iTraversal without the exclusion strategy",
            MakeITraversalNoExclusionOptions(1));
  traversal("itraversal-es-rs", "left-anchored reverse search only",
            MakeITraversalLeftAnchoredOnlyOptions(1));
  traversal("btraversal",
            "conventional reverse-search framework (Algorithm 1)",
            MakeBTraversalOptions(1));
  registry->Register(
      AlgorithmInfo{.name = "large-mbp",
                    .summary = "Section 5 large-MBP enumeration with "
                               "(theta-k)-core pre-reduction",
                    .requires_theta = true},
      [](const BackendOptions& options) {
        return OptionReader(options).Configure<LargeMbpBackend>();
      });
}

}  // namespace internal
}  // namespace kbiplex
