// The FaPlexen-style graph-inflation baseline. Its one option,
// max_inflated_edges, is the paper's OUT guard (0 = no guard).
#include "api/backends/backends.h"
#include "api/prepared_graph.h"
#include "api/request_parse.h"
#include "baselines/inflation_enum.h"

namespace kbiplex {
namespace internal {
namespace {

class InflationBackend final : public AlgorithmBackend {
 public:
  explicit InflationBackend(size_t max_inflated_edges)
      : max_inflated_edges_(max_inflated_edges) {}

  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) const override {
    // The baseline has no size thresholds, so it takes no result cap
    // either: the delivery guard applies both.
    InflationBaselineOptions opts;
    opts.k = req.k.left;  // uniformity validated by the facade
    opts.time_budget_seconds = req.time_budget_seconds;
    opts.cancel = req.cancellation;
    opts.max_inflated_edges = max_inflated_edges_;
    InflationBaselineStats is = InflationEngine(ctx.prepared->graph(), opts)
                                    .Run([sink](const Biplex& b) {
                                      return sink->Accept(b);
                                    });

    EnumerateStats out;
    out.work_units = is.inflated_edges;
    out.completed = is.completed;
    out.out_of_memory = is.out_of_budget;
    out.seconds = is.seconds;
    out.inflation = is;
    return out;
  }

  /// max_inflated_edges is a per-enumeration memory guard: copying it
  /// into every component shard would multiply the allowed blow-up and
  /// flip OUT runs to "completed".
  bool ComponentShardsAllowed() const override {
    return max_inflated_edges_ == 0;
  }

  void MergeDetail(const EnumerateStats& shard,
                   EnumerateStats* into) const override {
    FoldDetail(&EnumerateStats::inflation, shard, into,
               [](InflationBaselineStats* merged,
                  const InflationBaselineStats& s) {
                 merged->solutions += s.solutions;
                 merged->completed = merged->completed && s.completed;
                 merged->out_of_budget =
                     merged->out_of_budget || s.out_of_budget;
                 merged->inflated_edges += s.inflated_edges;
                 merged->seconds += s.seconds;
               });
  }

 private:
  size_t max_inflated_edges_;
};

}  // namespace

void RegisterInflationBackend(AlgorithmRegistry* registry) {
  registry->Register(
      AlgorithmInfo{.name = "inflation",
                    .summary = "FaPlexen-style graph-inflation baseline",
                    .supports_asymmetric_k = false},
      [](const BackendOptions& options) {
        size_t max_inflated_edges = 0;
        OptionReader reader(options);
        if (auto v = reader.Take("max_inflated_edges");
            v.has_value() && !ParseSize(*v, &max_inflated_edges)) {
          reader.Fail("max_inflated_edges", *v, "a non-negative integer");
        }
        return reader.Configure<InflationBackend>(max_inflated_edges);
      });
}

}  // namespace internal
}  // namespace kbiplex
