// Tests of the incremental update subsystem: batch normalization, the CSR
// splice, the incremental component relabeling, the patched adjacency
// index, epoch/snapshot semantics on PreparedGraph, and the end-to-end
// guarantee that a chain of incremental epochs enumerates exactly like a
// fresh Prepare of the final graph — every backend, sequential and
// parallel, under budgeted mixed-representation indexes.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "test_support.h"
#include "update/incremental.h"
#include "update/update_batch.h"
#include "util/random.h"

namespace kbiplex {
namespace {

using testing_support::MakeGraph;
using Edge = BipartiteGraph::Edge;

std::vector<Edge> AllEdges(const BipartiteGraph& g) {
  std::vector<Edge> edges;
  for (VertexId l = 0; l < g.NumLeft(); ++l) {
    for (VertexId r : g.LeftNeighbors(l)) edges.emplace_back(l, r);
  }
  return edges;
}

/// A random batch against `g`: up to `n` inserts of absent edges and `n`
/// deletes of present ones (fewer when the graph is too empty/full).
update::UpdateBatch RandomBatch(const BipartiteGraph& g, size_t n, Rng* rng,
                                std::vector<Edge>* ins = nullptr,
                                std::vector<Edge>* del = nullptr) {
  update::UpdateBatch batch;
  const std::vector<Edge> edges = AllEdges(g);
  std::set<Edge> touched;
  for (uint64_t idx :
       rng->SampleDistinct(edges.size(), std::min(n, edges.size()))) {
    batch.Remove(edges[idx].first, edges[idx].second);
    touched.insert(edges[idx]);
    if (del != nullptr) del->push_back(edges[idx]);
  }
  for (size_t tries = 0, added = 0; added < n && tries < 50 * n; ++tries) {
    const Edge e{static_cast<VertexId>(rng->NextBelow(g.NumLeft())),
                 static_cast<VertexId>(rng->NextBelow(g.NumRight()))};
    if (g.HasEdge(e.first, e.second) || !touched.insert(e).second) continue;
    batch.Insert(e.first, e.second);
    if (ins != nullptr) ins->push_back(e);
    ++added;
  }
  return batch;
}

// ------------------------------------------------------ normalization ----

TEST(UpdateBatchTest, NormalizeSortsDedupsAndClassifies) {
  const BipartiteGraph g = MakeGraph(3, 3, {{0, 0}, {1, 1}, {2, 2}});
  update::UpdateBatch batch;
  batch.Insert(2, 0);
  batch.Insert(0, 1);
  batch.Insert(0, 0);   // noop insert: already present
  batch.Remove(2, 2);
  batch.Remove(1, 0);   // noop delete: not present
  batch.Insert(1, 2);
  batch.Remove(1, 2);   // last op wins: net remove of an absent edge = noop
  update::NormalizedDelta delta;
  ASSERT_EQ(batch.Normalize(g, &delta), "");
  EXPECT_EQ(delta.insert, (std::vector<Edge>{{0, 1}, {2, 0}}));
  EXPECT_EQ(delta.erase, (std::vector<Edge>{{2, 2}}));
  EXPECT_EQ(delta.noop_inserts, 1u);
  EXPECT_EQ(delta.noop_deletes, 2u);
}

TEST(UpdateBatchTest, LastOpWinsInsertAfterRemove) {
  const BipartiteGraph g = MakeGraph(2, 2, {{0, 0}});
  update::UpdateBatch batch;
  batch.Remove(0, 0);
  batch.Insert(0, 0);  // net effect on a present edge: nothing
  update::NormalizedDelta delta;
  ASSERT_EQ(batch.Normalize(g, &delta), "");
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.noop_inserts, 1u);
}

TEST(UpdateBatchTest, RejectsOutOfRangeEdges) {
  const BipartiteGraph g = MakeGraph(2, 2, {{0, 0}});
  update::UpdateBatch batch;
  batch.Insert(5, 0);
  update::NormalizedDelta delta;
  const std::string err = batch.Normalize(g, &delta);
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

// ------------------------------------------------------------- splice ----

TEST(WithEdgeDeltaTest, MatchesFromEdgesOnRandomDeltas) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const BipartiteGraph g = ErdosRenyiProbBipartite(9, 7, 0.3, &rng);
    std::vector<Edge> ins, del;
    const update::UpdateBatch batch = RandomBatch(g, 4, &rng, &ins, &del);
    update::NormalizedDelta delta;
    ASSERT_EQ(batch.Normalize(g, &delta), "");
    const BipartiteGraph spliced = g.WithEdgeDelta(delta.insert, delta.erase);

    std::vector<Edge> edges = AllEdges(g);
    const std::set<Edge> erased(delta.erase.begin(), delta.erase.end());
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [&](const Edge& e) { return erased.count(e); }),
                edges.end());
    edges.insert(edges.end(), delta.insert.begin(), delta.insert.end());
    const BipartiteGraph expected =
        BipartiteGraph::FromEdges(g.NumLeft(), g.NumRight(), edges);

    ASSERT_EQ(spliced.NumEdges(), expected.NumEdges()) << "seed " << seed;
    EXPECT_EQ(AllEdges(spliced), AllEdges(expected)) << "seed " << seed;
    // The transposed CSR must splice consistently too.
    for (VertexId r = 0; r < g.NumRight(); ++r) {
      const auto a = spliced.RightNeighbors(r);
      const auto b = expected.RightNeighbors(r);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "seed " << seed << " right " << r;
    }
  }
}

// ---------------------------------------------------------- relabeling ----

ComponentLabeling FreshLabels(const BipartiteGraph& g) {
  return LabelConnectedComponents(g);
}

TEST(IncrementalRelabelTest, MatchesFullRelabelOnRandomDeltas) {
  // Sparse graphs (p=0.08) have many components, so deltas exercise
  // merges, splits, and singleton churn; the labeling must match the
  // from-scratch BFS exactly, numbering included.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const BipartiteGraph g = ErdosRenyiProbBipartite(12, 10, 0.08, &rng);
    const ComponentLabeling old = FreshLabels(g);
    std::vector<Edge> ins, del;
    RandomBatch(g, 3, &rng, &ins, &del);
    std::sort(ins.begin(), ins.end());
    std::sort(del.begin(), del.end());
    const BipartiteGraph next = g.WithEdgeDelta(ins, del);
    const ComponentLabeling got =
        update::IncrementalRelabel(next, old, ins, del);
    const ComponentLabeling want = FreshLabels(next);
    EXPECT_EQ(got.num_components, want.num_components) << "seed " << seed;
    EXPECT_EQ(got.left, want.left) << "seed " << seed;
    EXPECT_EQ(got.right, want.right) << "seed " << seed;
  }
}

TEST(IncrementalRelabelTest, SplitsAComponent) {
  // A path l0-r0-l1-r1: deleting the middle edge splits one component
  // into two.
  const BipartiteGraph g = MakeGraph(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  const ComponentLabeling old = FreshLabels(g);
  ASSERT_EQ(old.num_components, 1);
  const std::vector<Edge> del = {{1, 0}};
  const BipartiteGraph next = g.WithEdgeDelta({}, del);
  const ComponentLabeling got = update::IncrementalRelabel(next, old, {}, del);
  const ComponentLabeling want = FreshLabels(next);
  EXPECT_EQ(got.num_components, 2);
  EXPECT_EQ(got.left, want.left);
  EXPECT_EQ(got.right, want.right);
}

// ---------------------------------------------------- epoch semantics ----

EnumerateRequest BasicRequest(int threads = 1) {
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.theta_left = req.theta_right = 1;
  req.threads = threads;
  return req;
}

TEST(ApplyUpdatesTest, OldEpochKeepsItsSnapshot) {
  auto v0 = PreparedGraph::Prepare(
      MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}}), PrepareOptions());
  QuerySession old_session(v0);
  const std::vector<Biplex> before = old_session.Collect(BasicRequest());

  update::UpdateBatch batch;
  batch.Remove(1, 1);
  const update::UpdateResult result =
      v0->ApplyUpdates(batch, update::UpdateOptions());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.prepared->epoch(), 1u);
  EXPECT_EQ(v0->epoch(), 0u);
  EXPECT_EQ(v0->graph().NumEdges(), 4u);
  EXPECT_EQ(result.prepared->graph().NumEdges(), 3u);

  // The session holding the old epoch still answers from its snapshot;
  // the new epoch answers exactly like a fresh prepare of the new graph.
  EXPECT_EQ(old_session.Collect(BasicRequest()), before);
  QuerySession new_session(result.prepared);
  QuerySession fresh(PreparedGraph::Prepare(
      MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}}), PrepareOptions()));
  EXPECT_EQ(new_session.Collect(BasicRequest()),
            fresh.Collect(BasicRequest()));
}

TEST(ApplyUpdatesTest, RefusesBorrowedGraphs) {
  const BipartiteGraph g = MakeGraph(2, 2, {{0, 0}});
  auto borrowed = PreparedGraph::Borrow(g);
  update::UpdateBatch batch;
  batch.Insert(1, 1);
  const update::UpdateResult result =
      borrowed->ApplyUpdates(batch, update::UpdateOptions());
  EXPECT_FALSE(result.ok());
}

TEST(ApplyUpdatesTest, StalenessThresholdTriggersRebuild) {
  auto v0 = PreparedGraph::Prepare(
      MakeGraph(4, 4, {{0, 0}, {1, 1}, {2, 2}, {3, 3}}), PrepareOptions());
  v0->Warmup();

  update::UpdateBatch small;
  small.Insert(0, 1);
  update::UpdateOptions opts;
  opts.max_delta_fraction = 0.5;  // 1/4 <= 0.5: incremental
  update::UpdateResult r1 = v0->ApplyUpdates(small, opts);
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_FALSE(r1.rebuilt);
  EXPECT_EQ(r1.prepared->lineage().full_rebuilds, 0u);
  EXPECT_GT(r1.prepared->lineage().artifacts_incremental, 0u);

  update::UpdateBatch large;  // 3/5 > 0.5: full rebuild
  large.Insert(1, 0);
  large.Insert(2, 0);
  large.Insert(3, 0);
  r1.prepared->Warmup();
  update::UpdateResult r2 = r1.prepared->ApplyUpdates(large, opts);
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_TRUE(r2.rebuilt);
  EXPECT_EQ(r2.prepared->lineage().full_rebuilds, 1u);
  EXPECT_EQ(r2.prepared->lineage().epoch, 2u);
  EXPECT_EQ(r2.prepared->lineage().updates_applied, 2u);

  update::UpdateOptions force;
  force.force_rebuild = true;
  update::UpdateBatch tiny;
  tiny.Remove(0, 0);
  update::UpdateResult r3 = r2.prepared->ApplyUpdates(tiny, force);
  ASSERT_TRUE(r3.ok()) << r3.error;
  EXPECT_TRUE(r3.rebuilt);
  EXPECT_EQ(r3.prepared->lineage().full_rebuilds, 2u);
  EXPECT_EQ(r3.prepared->lineage().edges_inserted, 4u);
  EXPECT_EQ(r3.prepared->lineage().edges_deleted, 1u);
}

TEST(ApplyUpdatesTest, EmptyBatchStillAdvancesTheEpoch) {
  auto v0 = PreparedGraph::Prepare(MakeGraph(2, 2, {{0, 0}}),
                                   PrepareOptions());
  update::UpdateBatch batch;
  batch.Insert(0, 0);  // noop
  const update::UpdateResult result =
      v0->ApplyUpdates(batch, update::UpdateOptions());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.noop_inserts, 1u);
  EXPECT_EQ(result.edges_inserted, 0u);
  EXPECT_EQ(result.prepared->epoch(), 1u);
  EXPECT_EQ(result.prepared->graph().NumEdges(), 1u);
}

// ------------------------------------------- update-vs-rebuild fuzzing ----

/// The full acceptance sweep: chains of random batches applied
/// incrementally (spliced CSR, relabeled components, carried core bound)
/// must enumerate exactly like a fresh Prepare of the final graph, for
/// every backend, sequentially and with threads=4.
TEST(UpdateVsRebuildFuzzTest, AllBackendsAgreeAfterUpdateChains) {
  const PrepareOptions prep;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 131);
    const BipartiteGraph start = ErdosRenyiProbBipartite(10, 9, 0.3, &rng);
    auto incremental =
        PreparedGraph::Prepare(BipartiteGraph(start), prep);
    incremental->Warmup();
    update::UpdateOptions opts;
    opts.max_delta_fraction = 1.0;  // always take the incremental path
    for (int round = 0; round < 3; ++round) {
      const update::UpdateBatch batch =
          RandomBatch(incremental->graph(), 3, &rng);
      update::UpdateResult result = incremental->ApplyUpdates(batch, opts);
      ASSERT_TRUE(result.ok()) << result.error;
      ASSERT_FALSE(result.rebuilt);
      incremental = result.prepared;
      incremental->Warmup();
    }
    auto rebuilt = PreparedGraph::Prepare(
        BipartiteGraph::FromEdges(start.NumLeft(), start.NumRight(),
                                  AllEdges(incremental->graph())),
        prep);

    for (const AlgorithmInfo& info : AlgorithmRegistry::Global().List()) {
      for (int threads : {1, 4}) {
        EnumerateRequest req = BasicRequest(threads);
        req.algorithm = info.name;
        QuerySession a(incremental);
        QuerySession b(rebuilt);
        EnumerateStats sa, sb;
        const std::vector<Biplex> got = a.Collect(req, &sa);
        const std::vector<Biplex> want = b.Collect(req, &sb);
        ASSERT_TRUE(sa.ok()) << info.name << ": " << sa.error;
        ASSERT_TRUE(sb.ok()) << info.name << ": " << sb.error;
        EXPECT_EQ(got, want)
            << "seed " << seed << " " << info.name << " threads=" << threads
            << "\nincremental:\n" << testing_support::ToString(got)
            << "rebuilt:\n" << testing_support::ToString(want);
      }
    }
  }
}

/// Same sweep across the rebuild path: forcing a rebuild must (trivially)
/// agree too, and the lineage must record the rebuilds.
TEST(UpdateVsRebuildFuzzTest, ForcedRebuildAgrees) {
  Rng rng(77);
  const BipartiteGraph start = ErdosRenyiProbBipartite(8, 8, 0.35, &rng);
  auto current = PreparedGraph::Prepare(BipartiteGraph(start),
                                        PrepareOptions());
  current->Warmup();
  update::UpdateOptions force;
  force.force_rebuild = true;
  for (int round = 0; round < 2; ++round) {
    const update::UpdateBatch batch = RandomBatch(current->graph(), 2, &rng);
    update::UpdateResult result = current->ApplyUpdates(batch, force);
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_TRUE(result.rebuilt);
    current = result.prepared;
  }
  EXPECT_EQ(current->lineage().full_rebuilds, 2u);
  auto rebuilt = PreparedGraph::Prepare(
      BipartiteGraph::FromEdges(start.NumLeft(), start.NumRight(),
                                AllEdges(current->graph())),
      PrepareOptions());
  QuerySession a(current);
  QuerySession b(rebuilt);
  EXPECT_EQ(a.Collect(BasicRequest()), b.Collect(BasicRequest()));
}

}  // namespace
}  // namespace kbiplex
