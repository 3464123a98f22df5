// Measurement helpers of the benchmark harness: order-independent solution
// checksums, the percentile rule, open-loop timing, and the admissible-epoch
// check for streamed results. Header-only so the helper test links nothing
// but this file.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------- checksum ---

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Count plus an order-independent digest of a solution set: each solution
/// hashes its (sorted) left and right id lists, and the set digest is the
/// wrapping sum of those hashes, so any delivery order gives the same value.
struct SetChecksum {
  uint64_t count = 0;
  uint64_t digest = 0;

  template <typename Ids>
  void Add(const Ids& left, const Ids& right) {
    uint64_t h = Mix64(left.size());
    for (auto v : left) h = Mix64(h ^ static_cast<uint64_t>(v));
    h = Mix64(h ^ 0x5bd1e995ULL ^ right.size());
    for (auto v : right) h = Mix64(h ^ static_cast<uint64_t>(v));
    digest += h;
    ++count;
  }

  friend bool operator==(const SetChecksum& a, const SetChecksum& b) {
    return a.count == b.count && a.digest == b.digest;
  }
  friend bool operator!=(const SetChecksum& a, const SetChecksum& b) {
    return !(a == b);
  }
};

// ----------------------------------------------------------- statistics ---

/// Minimum number of samples that must lie beyond a reported tail
/// percentile: with fewer, the percentile is one or two outliers.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile of `sorted` (ascending) at q in (0, 1), or
/// nullopt when fewer than kMinBeyond samples lie beyond it. p99 therefore
/// needs at least 1000 samples and the median at least 20.
inline std::optional<double> TailPercentile(const std::vector<double>& sorted,
                                            double q) {
  const size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  return sorted[rank - 1];
}

/// Linear-interpolation quantile (the "inclusive" method); used for the
/// median and quartiles reported next to every timing.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

struct Summary {
  size_t n = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

inline Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples.size(), Quantile(samples, 0.5), Quantile(samples, 0.25),
          Quantile(samples, 0.75)};
}

// ------------------------------------------------------- open-loop timing ---

/// Fixed-interval open-loop schedule: operation i (i >= first) is due at
/// start + (i - first) * interval whether or not earlier operations
/// finished. A request's latency runs from its due time, so a stall that
/// delays later sends is charged to those requests; how late the generator
/// itself sent is reported separately as lateness.
struct OpenLoopSchedule {
  double start = 0;     // seconds on the harness clock
  double interval = 0;  // seconds between consecutive due times
  size_t first = 0;     // index of the operation due at `start`

  double Due(size_t i) const {
    return start + interval * static_cast<double>(i - first);
  }
  double Latency(size_t i, double completed_at) const {
    return completed_at - Due(i);
  }
  double Lateness(size_t i, double sent_at) const {
    return std::max(0.0, sent_at - Due(i));
  }
};

// ------------------------------------------------------ admissible epochs ---

/// One update of a graph as the load generator saw it: when its line was
/// sent and when its acknowledgement arrived (harness clock seconds).
struct UpdateWindow {
  double sent = 0;
  double acked = 0;
};

/// Epochs [lo, hi] a graph may have held while a query on it was in
/// flight, from the graph's successful updates in application order
/// (update j moves the graph from epoch j to epoch j + 1). Every update
/// acknowledged before the query was sent is certainly visible; every
/// update sent before the query finished possibly is.
struct EpochRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

inline EpochRange AdmissibleEpochs(const std::vector<UpdateWindow>& updates,
                                   double query_sent, double query_done) {
  EpochRange range;
  for (const UpdateWindow& u : updates) {
    if (u.acked <= query_sent) ++range.lo;
    if (u.sent <= query_done) ++range.hi;
  }
  range.hi = std::max(range.hi, range.lo);
  return range;
}

/// True iff `observed` equals the reference result of some epoch in
/// `range`; `reference(e)` yields the library's result at epoch e.
template <typename ReferenceFn>
bool MatchesAdmissibleEpoch(const SetChecksum& observed, EpochRange range,
                            const ReferenceFn& reference) {
  for (uint64_t e = range.lo; e <= range.hi; ++e) {
    if (reference(e) == observed) return true;
  }
  return false;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
