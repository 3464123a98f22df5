#include "analysis/fraud.h"

#include <unordered_set>

#include "analysis/biclique.h"
#include "analysis/quasi_biclique.h"
#include "core/large_mbp.h"
#include "graph/core_decomposition.h"

namespace kbiplex {
namespace {

uint64_t EdgeKey(VertexId l, VertexId r) {
  return (static_cast<uint64_t>(l) << 32) | r;
}

/// Marks every vertex of `b` in the flag vectors.
void FlagBiplex(const Biplex& b, DetectionResult* out) {
  for (VertexId v : b.left) out->user_flagged[v] = true;
  for (VertexId u : b.right) out->product_flagged[u] = true;
  ++out->subgraphs_found;
}

DetectionResult MakeResult(const FraudDataset& data) {
  DetectionResult r;
  r.user_flagged.assign(data.graph.NumLeft(), false);
  r.product_flagged.assign(data.graph.NumRight(), false);
  return r;
}

}  // namespace

std::vector<bool> FraudDataset::UserTruth() const {
  std::vector<bool> t(graph.NumLeft(), false);
  for (size_t v = num_real_users; v < graph.NumLeft(); ++v) t[v] = true;
  return t;
}

std::vector<bool> FraudDataset::ProductTruth() const {
  std::vector<bool> t(graph.NumRight(), false);
  for (size_t u = num_real_products; u < graph.NumRight(); ++u) t[u] = true;
  return t;
}

bool DetectionResult::FlaggedAnything() const {
  for (bool f : user_flagged) {
    if (f) return true;
  }
  for (bool f : product_flagged) {
    if (f) return true;
  }
  return false;
}

FraudDataset InjectCamouflageAttack(const BipartiteGraph& organic,
                                    const CamouflageAttackConfig& config) {
  Rng rng(config.seed);
  FraudDataset data;
  data.num_real_users = organic.NumLeft();
  data.num_real_products = organic.NumRight();

  std::vector<BipartiteGraph::Edge> edges = organic.Edges();
  std::unordered_set<uint64_t> seen;
  const VertexId user0 = static_cast<VertexId>(organic.NumLeft());
  const VertexId prod0 = static_cast<VertexId>(organic.NumRight());

  // Fake comments: uniform pairs inside the fraud block, each fake user
  // receiving an equal share (the paper's random camouflage attack).
  const size_t per_user_fake = config.fake_comments / config.fake_users;
  const size_t per_user_cam = config.camouflage_comments / config.fake_users;
  for (size_t i = 0; i < config.fake_users; ++i) {
    const VertexId user = user0 + static_cast<VertexId>(i);
    size_t added = 0;
    while (added < per_user_fake) {
      const VertexId p =
          prod0 + static_cast<VertexId>(rng.NextBelow(config.fake_products));
      if (seen.insert(EdgeKey(user, p)).second) {
        edges.emplace_back(user, p);
        ++added;
      }
    }
    added = 0;
    while (added < per_user_cam && data.num_real_products > 0) {
      const VertexId p =
          static_cast<VertexId>(rng.NextBelow(data.num_real_products));
      if (seen.insert(EdgeKey(user, p)).second) {
        edges.emplace_back(user, p);
        ++added;
      }
    }
  }
  data.graph = BipartiteGraph::FromEdges(
      organic.NumLeft() + config.fake_users,
      organic.NumRight() + config.fake_products, std::move(edges));
  return data;
}

DetectionResult DetectByBiplex(const FraudDataset& data, int k,
                               size_t theta_l, size_t theta_r,
                               const DetectorBudget& budget) {
  DetectionResult out = MakeResult(data);
  LargeMbpOptions opts;
  opts.k = KPair::Uniform(k);
  opts.theta_left = theta_l;
  opts.theta_right = theta_r;
  opts.max_results = budget.max_results;
  opts.max_links = budget.max_links;
  LargeMbpEngine(data.graph, opts).Run([&](const Biplex& b) {
    FlagBiplex(b, &out);
    return true;
  });
  return out;
}

DetectionResult DetectByBiclique(const FraudDataset& data, size_t theta_l,
                                 size_t theta_r,
                                 const DetectorBudget& budget) {
  DetectionResult out = MakeResult(data);
  // Pre-reduce with the (θ_R, θ_L)-core: every biclique with sides
  // >= (θ_L, θ_R) survives it.
  InducedSubgraph core =
      AlphaBetaCoreSubgraph(data.graph, theta_r, theta_l);
  BicliqueEnumOptions opts;
  opts.theta_left = theta_l;
  opts.theta_right = theta_r;
  opts.max_results = budget.max_results;
  EnumerateMaximalBicliques(core.graph, opts, [&](const Biplex& b) {
    Biplex mapped;
    for (VertexId v : b.left) mapped.left.push_back(core.left_map[v]);
    for (VertexId u : b.right) mapped.right.push_back(core.right_map[u]);
    FlagBiplex(mapped, &out);
    return true;
  });
  return out;
}

DetectionResult DetectByAlphaBetaCore(const FraudDataset& data, size_t alpha,
                                      size_t beta) {
  DetectionResult out = MakeResult(data);
  CoreResult core = AlphaBetaCore(data.graph, alpha, beta);
  if (core.Empty()) return out;
  Biplex b{core.left, core.right};
  FlagBiplex(b, &out);
  return out;
}

DetectionResult DetectByQuasiBiclique(const FraudDataset& data, double delta,
                                      size_t theta_l, size_t theta_r) {
  DetectionResult out = MakeResult(data);
  QuasiBicliqueOptions opts;
  opts.delta = delta;
  opts.theta_left = theta_l;
  opts.theta_right = theta_r;
  for (const Biplex& b : FindQuasiBicliqueBlocks(data.graph, opts)) {
    FlagBiplex(b, &out);
  }
  return out;
}

BinaryMetrics EvaluateDetection(const FraudDataset& data,
                                const DetectionResult& result) {
  return ComputeJointMetrics(result.user_flagged, data.UserTruth(),
                             result.product_flagged, data.ProductTruth());
}

}  // namespace kbiplex
