// Tests of the harness's own measurement helpers and of the workload
// generator's determinism. Build and run: python3 perfbench/run.py --self-test
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(SetChecksum, IndependentOfDeliveryOrder) {
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> solutions = {
      {{0, 1}, {2}}, {{1}, {0, 3}}, {{0, 2, 4}, {1}}, {{}, {0, 1, 2}}};
  SetChecksum forward, backward;
  for (const auto& s : solutions) forward.Add(s.first, s.second);
  for (auto it = solutions.rbegin(); it != solutions.rend(); ++it) {
    backward.Add(it->first, it->second);
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.count, 4u);
}

TEST(SetChecksum, DistinguishesSides) {
  // The same ids on swapped sides, and a split moved between sides, are
  // different solutions.
  SetChecksum a, b, c;
  a.Add(std::vector<int>{1, 2}, std::vector<int>{3});
  b.Add(std::vector<int>{3}, std::vector<int>{1, 2});
  c.Add(std::vector<int>{1}, std::vector<int>{2, 3});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  std::vector<double> v(999);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_FALSE(TailPercentile(v, 0.99).has_value());  // 9 beyond
  v.push_back(999);
  ASSERT_TRUE(TailPercentile(v, 0.99).has_value());   // 10 beyond
  EXPECT_EQ(*TailPercentile(v, 0.99), 989.0);
  const size_t beyond = static_cast<size_t>(std::count_if(
      v.begin(), v.end(), [&](double x) { return x > *TailPercentile(v, 0.99); }));
  EXPECT_EQ(beyond, kMinBeyond);

  EXPECT_FALSE(TailPercentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT_TRUE(TailPercentile(std::vector<double>(20, 1.0), 0.5).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(Summary, MedianAndQuartiles) {
  const Summary s = Summarize({5, 1, 3, 2, 4});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.q3, 4);
}

TEST(OpenLoopSchedule, LatencyCountsFromDueTime) {
  const OpenLoopSchedule sched{100.0, 0.01};
  EXPECT_DOUBLE_EQ(sched.Due(0), 100.0);
  EXPECT_DOUBLE_EQ(sched.Due(5), 100.05);
  // Op 5 was sent 30 ms late (the generator stalled) and answered 2 ms
  // after it was sent: the request is charged the stall, and the stall is
  // reported as generator lateness.
  const double sent = sched.Due(5) + 0.030;
  const double done = sent + 0.002;
  EXPECT_NEAR(sched.Latency(5, done), 0.032, 1e-9);
  EXPECT_NEAR(sched.Lateness(5, sent), 0.030, 1e-9);
  // Sending early is not negative lateness.
  EXPECT_DOUBLE_EQ(sched.Lateness(5, sched.Due(5) - 0.001), 0.0);
  // A later slice of the traffic starts its own clock at its first op.
  const OpenLoopSchedule slice{200.0, 0.01, 40};
  EXPECT_DOUBLE_EQ(slice.Due(40), 200.0);
  EXPECT_NEAR(slice.Latency(42, 200.025), 0.005, 1e-9);
}

TEST(AdmissibleEpochs, RangeFromUpdateWindows) {
  // Update 0 acked at 2, update 1 in flight over [5, 7], update 2 sent at 9.
  const std::vector<UpdateWindow> updates = {{1, 2}, {5, 7}, {9, 10}};
  EXPECT_EQ(AdmissibleEpochs(updates, 0.0, 0.5).lo, 0u);
  EXPECT_EQ(AdmissibleEpochs(updates, 0.0, 0.5).hi, 0u);
  // Sent after update 0 was acked, finished while update 1 was in flight.
  const EpochRange r = AdmissibleEpochs(updates, 3.0, 6.0);
  EXPECT_EQ(r.lo, 1u);
  EXPECT_EQ(r.hi, 2u);
  // Sent while update 1 was in flight: update 1 may or may not be visible.
  const EpochRange in_flight = AdmissibleEpochs(updates, 6.0, 8.0);
  EXPECT_EQ(in_flight.lo, 1u);
  EXPECT_EQ(in_flight.hi, 2u);
  // Spanning everything.
  const EpochRange all = AdmissibleEpochs(updates, 0.0, 20.0);
  EXPECT_EQ(all.lo, 0u);
  EXPECT_EQ(all.hi, 3u);
}

TEST(AdmissibleEpochs, AcceptsOnlyResultsOfAdmissibleEpochs) {
  std::vector<SetChecksum> per_epoch(4);
  for (size_t e = 0; e < per_epoch.size(); ++e) {
    per_epoch[e].Add(std::vector<size_t>{e}, std::vector<size_t>{e + 1});
  }
  auto reference = [&](uint64_t e) { return per_epoch[e]; };
  const EpochRange range{1, 2};
  EXPECT_TRUE(MatchesAdmissibleEpoch(per_epoch[1], range, reference));
  EXPECT_TRUE(MatchesAdmissibleEpoch(per_epoch[2], range, reference));
  EXPECT_FALSE(MatchesAdmissibleEpoch(per_epoch[0], range, reference));
  EXPECT_FALSE(MatchesAdmissibleEpoch(per_epoch[3], range, reference));
  SetChecksum truncated = per_epoch[1];
  truncated.count = 0;
  EXPECT_FALSE(MatchesAdmissibleEpoch(truncated, range, reference));
}

TEST(Workloads, ServePlanIsSeededAndEveryUpdateChangesItsTenant) {
  const WorkloadSpec& spec = *FindWorkload("dense-enum");
  Rng rng(7);
  std::vector<kbiplex::BipartiteGraph> tenants;
  for (size_t t = 0; t < spec.tenants; ++t) {
    const EdgeList g = MakeGraph(spec.tenant, &rng);
    tenants.push_back(kbiplex::BipartiteGraph::FromEdges(g.left, g.right, g.edges));
  }
  const ServePlan a = MakeServePlan(spec, 3, tenants);
  const ServePlan b = MakeServePlan(spec, 3, tenants);
  ASSERT_EQ(a.ops.size(), spec.serve_queries + spec.serve_pings + spec.serve_updates);
  ASSERT_EQ(a.updates.size(), spec.serve_updates);
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].type, b.ops[i].type);
    EXPECT_EQ(a.ops[i].tenant, b.ops[i].tenant);
  }
  std::vector<uint64_t> epoch(spec.tenants, 0);
  for (const UpdatePlan& u : a.updates) {
    const kbiplex::BipartiteGraph before = TenantAtEpoch(tenants[u.tenant], a, u.tenant, epoch[u.tenant]);
    for (const auto& e : u.insert) EXPECT_FALSE(before.HasEdge(e.first, e.second));
    for (const auto& e : u.erase) EXPECT_TRUE(before.HasEdge(e.first, e.second));
    const kbiplex::BipartiteGraph after =
        TenantAtEpoch(tenants[u.tenant], a, u.tenant, ++epoch[u.tenant]);
    EXPECT_EQ(after.NumEdges(), before.NumEdges());
  }
}

}  // namespace
}  // namespace perfbench
