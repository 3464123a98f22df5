// The reference workload: a fixed CPU task the harness runs next to every
// library query, so each timing can also be given relative to how fast the
// host ran at that moment.
//
// On a shared VM the host's speed drifts: the same threads=1 pass took
// 0.54 s in one run and 0.97 s ten minutes later, and CPU time tracked wall
// time, so neither seconds nor CPU seconds repeat. A short task of the same
// kind as the engine (recursive set enumeration over bitmasks, vector
// copies, hash-set inserts), timed on the same thread just before each
// query, slows down with it: the pass time over the reference time varied
// 2.3% (coefficient of variation) across ten runs where the pass time
// varied 10.5%. The task is the benchmark's own code, so a change to the
// library never changes it.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

/// Maximal bicliques of a fixed random 36 × 36 bipartite graph (left sides
/// as bitmasks), found by plain backtracking. About 6 ms on a 4-vCPU VM.
class ReferenceTask {
 public:
  ReferenceTask() : nbr_(kSide, 0) {
    Rng rng(77);
    for (uint64_t& mask : nbr_) {
      for (uint32_t u = 0; u < kSide; ++u) {
        if (rng.Unit() < 0.4) mask |= uint64_t{1} << u;
      }
    }
  }

  /// Runs the task once; returns the number of maximal bicliques, which is
  /// the same on every call.
  uint64_t Run() {
    seen_.clear();
    std::vector<uint32_t> all(kSide);
    for (uint32_t v = 0; v < kSide; ++v) all[v] = v;
    Expand((uint64_t{1} << kSide) - 1, {}, all, {});
    return seen_.size();
  }

 private:
  static constexpr uint32_t kSide = 36;

  // left: the common neighbourhood so far; right: the chosen right
  // vertices; cand / excl: right vertices still to try / already tried.
  void Expand(uint64_t left, const std::vector<uint32_t>& right,
              std::vector<uint32_t> cand, std::vector<uint32_t> excl) {
    while (!cand.empty()) {
      const uint32_t x = cand.back();
      cand.pop_back();
      const uint64_t left2 = left & nbr_[x];
      if (left2 == 0) {
        excl.push_back(x);
        continue;
      }
      std::vector<uint32_t> right2 = right, cand2, excl2;
      right2.push_back(x);
      bool maximal = true;
      for (uint32_t v : excl) {
        const uint64_t common = left2 & nbr_[v];
        if (common == left2) {
          maximal = false;
          break;
        }
        if (common != 0) excl2.push_back(v);
      }
      if (maximal) {
        for (uint32_t v : cand) {
          const uint64_t common = left2 & nbr_[v];
          if (common == left2) {
            right2.push_back(v);
          } else if (common != 0) {
            cand2.push_back(v);
          }
        }
        uint64_t h = Mix64(left2);
        for (uint32_t v : right2) h = Mix64(h ^ v);
        seen_.insert(h);
        if (!cand2.empty()) Expand(left2, right2, std::move(cand2), std::move(excl2));
      }
      excl.push_back(x);
    }
  }

  std::vector<uint64_t> nbr_;  // right vertex -> left neighbourhood
  std::unordered_set<uint64_t> seen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
