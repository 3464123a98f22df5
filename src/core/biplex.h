// The k-biplex vocabulary: vertex-pair subgraphs, k-biplex / maximality
// predicates, canonical key encoding, and deterministic extension of a
// k-biplex to a maximal one ("Step 3" of the paper's ThreeStep procedure).
#ifndef KBIPLEX_CORE_BIPLEX_H_
#define KBIPLEX_CORE_BIPLEX_H_

#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/common.h"

namespace kbiplex {

/// Per-side disconnection budgets of a (possibly asymmetric) biplex: every
/// left member may disconnect at most `left` right members and every right
/// member at most `right` left members. The paper notes (Section 2) that
/// "it is possible to use different k's at different sides and the
/// techniques developed in this paper can be easily adapted"; this library
/// implements that generalization throughout.
struct KPair {
  int left = 1;
  int right = 1;

  static KPair Uniform(int k) { return {k, k}; }

  /// Budget of the members of side `s`.
  int ForSide(Side s) const { return s == Side::kLeft ? left : right; }

  bool IsUniform() const { return left == right; }

  friend bool operator==(const KPair& a, const KPair& b) {
    return a.left == b.left && a.right == b.right;
  }
};

/// An induced bipartite subgraph identified by its two vertex sets, both
/// sorted ascending. The graph it lives in is supplied to the predicates.
struct Biplex {
  std::vector<VertexId> left;
  std::vector<VertexId> right;

  size_t Size() const { return left.size() + right.size(); }

  /// The vertex set of the side `s`.
  const std::vector<VertexId>& SideSet(Side s) const {
    return s == Side::kLeft ? left : right;
  }
  std::vector<VertexId>& MutableSideSet(Side s) {
    return s == Side::kLeft ? left : right;
  }

  friend bool operator==(const Biplex& a, const Biplex& b) {
    return a.left == b.left && a.right == b.right;
  }
  friend bool operator<(const Biplex& a, const Biplex& b) {
    return a.left != b.left ? a.left < b.left : a.right < b.right;
  }
};

/// Serializes a biplex into a canonical byte key: 4-byte big-endian |L|
/// followed by big-endian ids of L then R. The |L| prefix makes the key
/// injective: {1}|{2} and {1,2}|{} encode differently.
std::string EncodeBiplexKey(const Biplex& b);

/// True iff G[L ∪ R] is a k-biplex (Definition 2.1): every left member
/// disconnects at most k.left members of R and every right member at most
/// k.right members of L.
bool IsKBiplex(const BipartiteGraph& g, const Biplex& b, KPair k);
inline bool IsKBiplex(const BipartiteGraph& g, const Biplex& b, int k) {
  return IsKBiplex(g, b, KPair::Uniform(k));
}

/// True iff `b` is a k-biplex of `g` and no single vertex of g can be added
/// while preserving the k-biplex property. By the hereditary property this
/// is exactly maximality (Definition 2.3).
bool IsMaximalKBiplex(const BipartiteGraph& g, const Biplex& b, KPair k);
inline bool IsMaximalKBiplex(const BipartiteGraph& g, const Biplex& b,
                             int k) {
  return IsMaximalKBiplex(g, b, KPair::Uniform(k));
}

/// True iff vertex `v` on side `side` can join the k-biplex `b` (which must
/// be a k-biplex) with the property preserved.
bool CanAdd(const BipartiteGraph& g, const Biplex& b, Side side, VertexId v,
            KPair k);
inline bool CanAdd(const BipartiteGraph& g, const Biplex& b, Side side,
                   VertexId v, int k) {
  return CanAdd(g, b, side, v, KPair::Uniform(k));
}

/// Deterministically extends a k-biplex to a maximal one by a single pass
/// over a preset vertex order (ascending left ids, then ascending right
/// ids), adding every vertex that preserves the property. Because the
/// k-biplex family is hereditary, constraints only tighten as the set
/// grows, so one pass yields a maximal k-biplex and the result is a
/// function of the seed alone — the determinism Step 3 of ThreeStep
/// requires.
///
/// Every connection count comes from per-vertex counter arrays that one
/// sweep over adjacency lists fills and resets, so a call costs
/// O(Σ deg of the swept sets) plus a sort of the touched candidates; no
/// per-vertex set intersection is done. The counters are mutable scratch
/// behind `const` methods: an extender serves one thread at a time (each
/// TraversalEngine owns one). Scratch is O(|L| + |R|).
class MaximalExtender {
 public:
  /// `g` must outlive the extender.
  MaximalExtender(const BipartiteGraph& g, KPair k);
  MaximalExtender(const BipartiteGraph& g, int k)
      : MaximalExtender(g, KPair::Uniform(k)) {}

  /// Extends the k-biplex `b` in place. `grow_left` / `grow_right` select
  /// which sides may receive vertices (iTraversal's Step 3 grows the left
  /// side only). Each grown side costs O(Σ deg of the opposite members +
  /// Σ deg of the members that reach their budget + Σ (deg v + |other|)
  /// over the added vertices v) plus the candidate sort, or plus O(|side|)
  /// when the opposite set is within the side's budget and every
  /// non-member is a candidate.
  void Extend(Biplex* b, bool grow_left, bool grow_right) const;

  /// True iff some vertex of side `side` outside the k-biplex `b` can join
  /// it (the right-shrinking filter and the maximality check). Costs
  /// O(|same| + Σ deg of the opposite members + Σ deg of the tested
  /// candidates).
  bool AnyAddable(const Biplex& b, Side side) const;

 private:
  // One growth pass of Extend over `side`.
  void ExtendSide(Biplex* b, Side side) const;

  const BipartiteGraph& g_;
  KPair k_;
  // Per-side scratch indexed by vertex id, all zero between calls:
  // conn_count_ holds |Γ(w) ∩ other| (with kMemberBit on members of the
  // side being grown or tested), or marks on the opposite members;
  // tight_count_ holds |Γ(w) ∩ tight| during ExtendSide.
  mutable std::vector<uint32_t> conn_count_[2];
  mutable std::vector<uint32_t> tight_count_[2];
  mutable std::vector<VertexId> touched_;
  mutable std::vector<VertexId> added_;
  mutable std::vector<uint32_t> disc_;  // aligned to the opposite members
};

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_BIPLEX_H_
