// The iMB-style set-enumeration baseline: no backend options; its range
// domain is the set-enumeration tree's root branches.
#include <optional>

#include "api/backends/backends.h"
#include "api/prepared_graph.h"
#include "baselines/imb.h"

namespace kbiplex {
namespace internal {
namespace {

class ImbBackend final : public AlgorithmBackend {
 public:
  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) const override {
    ImbOptions opts;
    opts.k = req.k.left;  // uniformity validated by the facade
    opts.theta_left = req.theta_left;
    opts.theta_right = req.theta_right;
    opts.max_results = req.max_results;
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.cancel = req.cancellation;
    opts.root_begin = static_cast<size_t>(ctx.range_begin);
    opts.root_end = static_cast<size_t>(ctx.range_end);
    ImbStats is = ImbEngine(ctx.prepared->graph(), opts).Run(
        [sink](const Biplex& b) { return sink->Accept(b); });

    EnumerateStats out;
    out.work_units = is.nodes;
    out.completed = is.completed;
    out.seconds = is.seconds;
    out.imb = is;
    return out;
  }

  /// Root branches of the set-enumeration tree are independent. The empty
  /// graph keeps its single (0, 0) slice, which reports the empty biplex
  /// exactly like the sequential run.
  std::optional<RangeDomain> ParallelRange(
      const BipartiteGraph& g) const override {
    return RangeDomain{.size = g.NumLeft() + g.NumRight(),
                       .slices_per_thread = 4};
  }

  void MergeDetail(const EnumerateStats& shard,
                   EnumerateStats* into) const override {
    FoldDetail(&EnumerateStats::imb, shard, into,
               [](ImbStats* merged, const ImbStats& s) {
                 merged->nodes += s.nodes;
                 merged->solutions += s.solutions;
                 merged->completed = merged->completed && s.completed;
                 merged->seconds += s.seconds;
               });
  }
};

}  // namespace

void RegisterImbBackend(AlgorithmRegistry* registry) {
  registry->Register(
      AlgorithmInfo{.name = "imb",
                    .summary = "iMB-style set-enumeration baseline",
                    .supports_asymmetric_k = false},
      [](const BackendOptions& options) {
        return OptionReader(options).Configure<ImbBackend>();
      });
}

}  // namespace internal
}  // namespace kbiplex
