// Tests of the incremental update subsystem: batch normalization, the CSR
// splice, epoch/snapshot semantics on PreparedGraph, the exact core bound
// of an updated epoch, and the end-to-end guarantee that a chain of
// updated epochs enumerates exactly like a fresh Prepare of the final
// graph — every backend, sequential and parallel.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
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
      MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}}));
  QuerySession old_session(v0);
  const std::vector<Biplex> before = old_session.Collect(BasicRequest());

  update::UpdateBatch batch;
  batch.Remove(1, 1);
  const update::UpdateResult result = v0->ApplyUpdates(batch);
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
      MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}})));
  EXPECT_EQ(new_session.Collect(BasicRequest()),
            fresh.Collect(BasicRequest()));
}

TEST(ApplyUpdatesTest, RefusesBorrowedGraphs) {
  const BipartiteGraph g = MakeGraph(2, 2, {{0, 0}});
  auto borrowed = PreparedGraph::Borrow(g);
  update::UpdateBatch batch;
  batch.Insert(1, 1);
  const update::UpdateResult result = borrowed->ApplyUpdates(batch);
  EXPECT_FALSE(result.ok());
}

TEST(ApplyUpdatesTest, UpdatedEpochCoreBoundIsExact) {
  // A 12x12 perfect matching has degeneracy 1, and so does the matching
  // plus (0,1): the graph stays a forest. The insert is a small share of
  // the edges and the predecessor is warmed, so an epoch that carried
  // its bound forward (old + inserts) would read 2.
  std::vector<Edge> matching;
  for (VertexId v = 0; v < 12; ++v) matching.emplace_back(v, v);
  auto v0 = PreparedGraph::Prepare(MakeGraph(12, 12, std::move(matching)));
  v0->Warmup();
  ASSERT_EQ(v0->MaxUniformCore(), 1u);

  update::UpdateBatch batch;
  batch.Insert(0, 1);
  const update::UpdateResult result = v0->ApplyUpdates(batch);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.prepared->MaxUniformCore(), 1u);

  // k=1 with theta 3/3 demands a (2,2)-core, which the exact bound rules
  // out: the session answers without running the backend.
  QuerySession session(result.prepared);
  EnumerateRequest req;
  req.algorithm = "itraversal";
  req.k = KPair::Uniform(1);
  req.theta_left = req.theta_right = 3;
  EnumerateStats stats;
  EXPECT_TRUE(session.Collect(req, &stats).empty());
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_EQ(session.short_circuits(), 1u);
}

TEST(ApplyUpdatesTest, LineageAccumulatesOverAChain) {
  Rng rng(77);
  BipartiteGraph start = ErdosRenyiProbBipartite(8, 8, 0.35, &rng);
  auto current = PreparedGraph::Prepare(std::move(start));
  current->Warmup();
  uint64_t inserted = 0, deleted = 0;
  for (int round = 0; round < 2; ++round) {
    const update::UpdateBatch batch = RandomBatch(current->graph(), 2, &rng);
    update::UpdateResult result = current->ApplyUpdates(batch);
    ASSERT_TRUE(result.ok()) << result.error;
    inserted += result.edges_inserted;
    deleted += result.edges_deleted;
    current = result.prepared;
  }
  const UpdateLineage& lineage = current->lineage();
  EXPECT_EQ(lineage.epoch, 2u);
  EXPECT_EQ(lineage.updates_applied, 2u);
  EXPECT_EQ(lineage.edges_inserted, inserted);
  EXPECT_EQ(lineage.edges_deleted, deleted);
  // No epoch carries an artifact, so the schema's artifact counters stay 0.
  EXPECT_EQ(lineage.full_rebuilds, 0u);
  EXPECT_EQ(lineage.artifacts_incremental, 0u);
  EXPECT_EQ(lineage.artifacts_rebuilt, 0u);
}

TEST(ApplyUpdatesTest, EmptyBatchStillAdvancesTheEpoch) {
  auto v0 = PreparedGraph::Prepare(MakeGraph(2, 2, {{0, 0}}));
  update::UpdateBatch batch;
  batch.Insert(0, 0);  // noop
  const update::UpdateResult result = v0->ApplyUpdates(batch);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.noop_inserts, 1u);
  EXPECT_EQ(result.edges_inserted, 0u);
  EXPECT_EQ(result.prepared->epoch(), 1u);
  EXPECT_EQ(result.prepared->graph().NumEdges(), 1u);
}

// ------------------------------------------- update-vs-rebuild fuzzing ----

/// The full acceptance sweep: chains of random batches applied to warmed
/// epochs (spliced CSR, lazily rebuilt artifacts) must enumerate exactly
/// like a fresh Prepare of the final graph, for every backend,
/// sequentially and with threads=4.
TEST(UpdateVsRebuildFuzzTest, AllBackendsAgreeAfterUpdateChains) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 131);
    const BipartiteGraph start = ErdosRenyiProbBipartite(10, 9, 0.3, &rng);
    auto incremental = PreparedGraph::Prepare(BipartiteGraph(start));
    incremental->Warmup();
    for (int round = 0; round < 3; ++round) {
      const update::UpdateBatch batch =
          RandomBatch(incremental->graph(), 3, &rng);
      update::UpdateResult result = incremental->ApplyUpdates(batch);
      ASSERT_TRUE(result.ok()) << result.error;
      incremental = result.prepared;
      incremental->Warmup();
    }
    auto rebuilt = PreparedGraph::Prepare(
        BipartiteGraph::FromEdges(start.NumLeft(), start.NumRight(),
                                  AllEdges(incremental->graph())));

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

}  // namespace
}  // namespace kbiplex
