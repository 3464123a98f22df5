// The k-biplex vocabulary: vertex-pair subgraphs, an exact set of them,
// k-biplex / maximality predicates, and deterministic extension of a
// k-biplex to a maximal one ("Step 3" of the paper's ThreeStep procedure).
#ifndef KBIPLEX_CORE_BIPLEX_H_
#define KBIPLEX_CORE_BIPLEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
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

/// An exact set of biplexes: the traversal's store of the solutions it has
/// reached (Algorithm 1, line 1). Every member is stored once, back to
/// back in one arena as |L|, |R|, L..., R..., and is named by its arena
/// offset. Lookups go through an open-addressing table of (hash, offset)
/// slots, grown x2 at half load; a hash match is confirmed by comparing
/// the members in place, so a hash alone never decides membership.
class BiplexSet {
 public:
  /// Insert's result for a biplex already in the set.
  static constexpr size_t kKnown = ~size_t{0};

  /// Adds `b` (both sides sorted) unless it is already a member. Returns
  /// the offset of the stored copy, or kKnown, allocating nothing, when
  /// `b` was already there. Offsets stay valid until Clear().
  size_t Insert(const Biplex& b) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const uint64_t hash = Hash(b.left, b.right);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.offset == kEmpty) {
        slot = {hash, arena_.size()};
        ++size_;
        arena_.push_back(static_cast<VertexId>(b.left.size()));
        arena_.push_back(static_cast<VertexId>(b.right.size()));
        arena_.insert(arena_.end(), b.left.begin(), b.left.end());
        arena_.insert(arena_.end(), b.right.begin(), b.right.end());
        return slot.offset;
      }
      if (slot.hash == hash &&
          std::ranges::equal(Left(slot.offset), b.left) &&
          std::ranges::equal(Right(slot.offset), b.right)) {
        return kKnown;
      }
    }
  }

  /// Copies the member stored at `offset` into `b`, reusing its buffers.
  void Load(size_t offset, Biplex* b) const {
    const std::span<const VertexId> left = Left(offset);
    const std::span<const VertexId> right = Right(offset);
    b->left.assign(left.begin(), left.end());
    b->right.assign(right.begin(), right.end());
  }

  size_t size() const { return size_; }

  /// Empties the set, keeping the arena's and the table's capacity.
  void Clear() {
    arena_.clear();
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

 private:
  static constexpr size_t kEmpty = ~size_t{0};
  struct Slot {
    uint64_t hash = 0;
    size_t offset = kEmpty;
  };

  // The sides of the member stored at `offset`: views into the arena,
  // valid until the next Insert or Clear.
  std::span<const VertexId> Left(size_t offset) const {
    return {arena_.data() + offset + 2, arena_[offset]};
  }
  std::span<const VertexId> Right(size_t offset) const {
    return {arena_.data() + offset + 2 + arena_[offset],
            arena_[offset + 1]};
  }

  // Hashes the two sorted member lists with both sizes mixed in, so a
  // vertex moved across the split ({1}|{2} vs {1,2}|{}) changes the hash;
  // the murmur3 finalizer spreads every input bit into the low bits the
  // table indexes by.
  static uint64_t Hash(std::span<const VertexId> left,
                       std::span<const VertexId> right) {
    constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
    uint64_t h = ((uint64_t{left.size()} << 32) | right.size()) * kMul;
    for (VertexId v : left) h = (h ^ v) * kMul;
    for (VertexId u : right) h = (h ^ u) * kMul;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

  // Doubles the table (16 slots at first) and re-places every slot by its
  // stored hash; the arena does not move.
  void Grow() {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max<size_t>(16, 2 * slots_.size())));
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.offset == kEmpty) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].offset != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<VertexId> arena_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  size_t size_ = 0;
};

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
