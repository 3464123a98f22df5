// Fraud-detection case study (Section 6.3): inject a random camouflage
// attack into an organic review graph, run the four cohesive-structure
// detectors (biclique, k-biplex, (α,β)-core, δ-quasi-biclique), and score
// precision / recall / F1 of the flagged users and products.
#ifndef KBIPLEX_ANALYSIS_FRAUD_H_
#define KBIPLEX_ANALYSIS_FRAUD_H_

#include <cstdint>
#include <vector>

#include "analysis/metrics.h"
#include "graph/bipartite_graph.h"
#include "util/random.h"

namespace kbiplex {

/// Parameters of the random camouflage attack of Hooi et al. (FRAUDAR):
/// fake users post `fake_comments` comments on fake products and the same
/// number of camouflage comments on random real products.
struct CamouflageAttackConfig {
  size_t fake_users = 200;
  size_t fake_products = 200;
  size_t fake_comments = 8000;        // fake-user -> fake-product edges
  size_t camouflage_comments = 8000;  // fake-user -> real-product edges
  uint64_t seed = 7;
};

/// The attacked dataset: fake users/products are appended after the
/// organic ids.
struct FraudDataset {
  BipartiteGraph graph;
  size_t num_real_users = 0;
  size_t num_real_products = 0;

  bool IsFakeUser(VertexId v) const { return v >= num_real_users; }
  bool IsFakeProduct(VertexId u) const { return u >= num_real_products; }
  std::vector<bool> UserTruth() const;
  std::vector<bool> ProductTruth() const;
};

/// Injects the attack into `organic` (users on the left, products on the
/// right).
FraudDataset InjectCamouflageAttack(const BipartiteGraph& organic,
                                    const CamouflageAttackConfig& config);

/// Vertices flagged by one detector.
struct DetectionResult {
  std::vector<bool> user_flagged;
  std::vector<bool> product_flagged;
  uint64_t subgraphs_found = 0;

  /// True iff at least one vertex was flagged ("ND" rows never happen).
  bool FlaggedAnything() const;
};

/// Shared work caps of the subgraph-based detectors. Both are counts, so
/// a capped detection flags the same vertices on every host.
struct DetectorBudget {
  uint64_t max_results = 100000;
  /// Traversal links of the k-biplex detector (LargeMbpOptions::max_links).
  uint64_t max_links = 1000000;
};

/// Flags vertices of maximal k-biplexes with sides >= (theta_l, theta_r).
DetectionResult DetectByBiplex(const FraudDataset& data, int k,
                               size_t theta_l, size_t theta_r,
                               const DetectorBudget& budget = {});

/// Flags vertices of maximal bicliques with sides >= (theta_l, theta_r).
DetectionResult DetectByBiclique(const FraudDataset& data, size_t theta_l,
                                 size_t theta_r,
                                 const DetectorBudget& budget = {});

/// Flags all vertices of the (α,β)-core.
DetectionResult DetectByAlphaBetaCore(const FraudDataset& data, size_t alpha,
                                      size_t beta);

/// Flags vertices of greedy δ-quasi-biclique blocks with sides >=
/// (theta_l, theta_r).
DetectionResult DetectByQuasiBiclique(const FraudDataset& data, double delta,
                                      size_t theta_l, size_t theta_r);

/// Scores a detection against the injected ground truth, jointly over
/// users and products as the paper reports.
BinaryMetrics EvaluateDetection(const FraudDataset& data,
                                const DetectionResult& result);

}  // namespace kbiplex

#endif  // KBIPLEX_ANALYSIS_FRAUD_H_
