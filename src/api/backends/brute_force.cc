// The exhaustive reference enumerator: no backend options, no detail
// block; its range domain is the left vertex masks.
#include <cstdint>
#include <optional>
#include <vector>

#include "api/backends/backends.h"
#include "api/prepared_graph.h"
#include "core/brute_force.h"
#include "util/timer.h"

namespace kbiplex {
namespace internal {
namespace {

class BruteForceBackend final : public AlgorithmBackend {
 public:
  EnumerateStats Run(const QueryContext& ctx, const EnumerateRequest& req,
                     SolutionSink* sink) const override {
    const BipartiteGraph& g = ctx.prepared->graph();
    WallTimer timer;
    Deadline deadline(req.time_budget_seconds);
    bool scan_completed = true;
    const uint64_t end =
        ctx.range_end == 0 ? uint64_t{1} << g.NumLeft() : ctx.range_end;
    std::vector<Biplex> all = BruteForceMaximalBiplexesMaskRange(
        g, req.k, &deadline, req.cancellation, &scan_completed,
        ctx.range_begin, end);

    EnumerateStats out;
    out.work_units = (end - ctx.range_begin)
                     << g.NumRight();  // candidate pairs
    out.completed = scan_completed;
    for (const Biplex& b : all) {
      if (deadline.Expired() || Cancelled(req.cancellation) ||
          !sink->Accept(b)) {
        out.completed = false;
        break;
      }
    }
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  /// Left-mask slices: maximality is judged against the whole graph, so
  /// slices are disjoint and complete. Oversplit for load balance: dense
  /// mask slices are much slower than sparse ones.
  std::optional<RangeDomain> ParallelRange(
      const BipartiteGraph& g) const override {
    return RangeDomain{.size = uint64_t{1} << g.NumLeft(),
                       .slices_per_thread = 8};
  }
};

}  // namespace

void RegisterBruteForceBackend(AlgorithmRegistry* registry) {
  registry->Register(
      AlgorithmInfo{.name = "brute-force",
                    .summary = "exhaustive reference enumerator",
                    .max_side = 20},
      [](const BackendOptions& options) {
        return OptionReader(options).Configure<BruteForceBackend>();
      });
}

}  // namespace internal
}  // namespace kbiplex
