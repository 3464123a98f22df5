// The unified result record of an enumeration run. The shared fields are
// normalized across backends so harnesses can compare runs without knowing
// which backend produced them; the original per-backend counters remain
// available through the optional detail members (at most one is engaged).
#ifndef KBIPLEX_API_ENUMERATE_STATS_H_
#define KBIPLEX_API_ENUMERATE_STATS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "baselines/imb.h"
#include "baselines/inflation_enum.h"
#include "core/large_mbp.h"
#include "core/traversal_options.h"

namespace kbiplex {

/// Outcome of one Enumerator run.
struct EnumerateStats {
  /// Registry name of the backend that ran (normalized to lower case).
  std::string algorithm;

  /// Non-empty iff the request was rejected before any enumeration work
  /// (unknown algorithm, unsupported asymmetric budgets, bad backend
  /// option, ...). A rejected run has completed = false.
  std::string error;

  /// Solutions delivered to the sink (after size-threshold filtering).
  uint64_t solutions = 0;

  /// Normalized work counter: solution-graph links for the traversal
  /// family, search-tree nodes for imb, inflated edges for the inflation
  /// baseline, candidate sets for brute force. Comparable only as an
  /// order of magnitude across backends.
  uint64_t work_units = 0;

  /// False iff the run was rejected or stopped early (budget exhausted,
  /// sink stop, or cancellation).
  bool completed = true;

  /// True iff the run observed its cancellation token fire.
  bool cancelled = false;

  /// True iff the inflation baseline refused the memory blow-up (the
  /// paper's OUT condition).
  bool out_of_memory = false;

  /// Wall-clock seconds of the run.
  double seconds = 0;

  // Backend-specific detail, preserved verbatim. At most one is engaged.
  std::optional<TraversalStats> traversal;
  std::optional<LargeMbpStats> large_mbp;
  std::optional<ImbStats> imb;
  std::optional<InflationBaselineStats> inflation;

  bool ok() const { return error.empty(); }

  /// A rejected run: `message` as the error, completed = false.
  static EnumerateStats Rejected(std::string message);

  /// Folds one shard's shared fields into this accumulator: counters add
  /// up, `completed` holds iff every shard completed. Detail blocks merge
  /// through AlgorithmBackend::MergeDetail; `solutions` and `seconds` are
  /// left to the caller, which owns the delivery count and the clock.
  void MergeShard(const EnumerateStats& shard);

  /// One-line JSON rendering of the shared fields plus the engaged detail
  /// block; the CLI's --format json output.
  std::string ToJson() const;
};

}  // namespace kbiplex

#endif  // KBIPLEX_API_ENUMERATE_STATS_H_
