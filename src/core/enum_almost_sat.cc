#include "core/enum_almost_sat.h"

#include <algorithm>
#include <cassert>

namespace kbiplex {
namespace {

/// All state of one EnumAlmostSat invocation. A is the anchored side (the
/// side of v), B the opposite side. Scratch vectors live in the (possibly
/// caller-owned) workspace so repeated invocations reuse their capacity.
class AlmostSatEnumerator {
 public:
  AlmostSatEnumerator(const BipartiteGraph& g, const Biplex& h, Side v_side,
                      VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                      LocalSolutionCallback cb, EnumAlmostSatStats* stats)
      : g_(g),
        v_side_(v_side),
        v_(v),
        ka_(static_cast<size_t>(k.ForSide(v_side))),
        kb_(static_cast<size_t>(k.ForSide(Opposite(v_side)))),
        opts_(opts),
        cb_(cb),
        stats_(stats),
        a_(h.SideSet(v_side)),
        b_(h.SideSet(Opposite(v_side))),
        ws_(opts.workspace != nullptr ? *opts.workspace : local_ws_) {}

  /// Runs the enumeration; false iff the callback stopped it.
  bool Run() {
    Prepare();
    bool go = RunSubsets();
    if (stats_ != nullptr) stats_->adjacency_tests += adj_tests_;
    return go;
  }

 private:
  /// Edge test between A-side vertex `a` and B-side vertex `u`.
  bool Adjacent(VertexId a, VertexId u) {
    ++adj_tests_;
    return g_.IsAdjacent(v_side_, a, u);
  }

  bool RunSubsets() {
    // Enumerate B'' = B''_1 ∪ B''_2 with |B''| <= k (refinement R1.0); under
    // R2.0 additionally require |B''| = k or B''_1 = B1 (Lemma 4.2).
    for (size_t s2 = 0; s2 <= std::min(ka_, ws_.b2.size()); ++s2) {
      for (size_t s1 = 0; s1 + s2 <= ka_ && s1 <= ws_.b1.size(); ++s1) {
        if (opts_.r_variant == RRefinement::kR20 && s1 + s2 < ka_ &&
            s1 < ws_.b1.size()) {
          continue;  // pruned by Lemma 4.2
        }
        bool go = ForEachCombination(
            ws_.b1.size(), s1, &ws_.comb1, [&](const std::vector<size_t>& c1) {
              return ForEachCombination(
                  ws_.b2.size(), s2, &ws_.comb2,
                  [&](const std::vector<size_t>& c2) {
                    return ProcessBSubset(c1, c2);
                  });
            });
        if (!go) return false;
      }
    }
    return true;
  }

  /// Partitions B into B_keep / B1 / B2 and precomputes disconnection
  /// counters (the O(|A|·|B|) preprocessing of Algorithm 3, line 1).
  void Prepare() {
    ws_.b_keep.clear();
    ws_.b1.clear();
    ws_.b2.clear();
    ws_.excluded_a_idx.clear();
    ws_.disc_a_of_b.resize(b_.size());
    ws_.v_adj_b.resize(b_.size());
    for (size_t i = 0; i < b_.size(); ++i) {
      const VertexId u = b_[i];
      ws_.disc_a_of_b[i] = g_.DiscCount(Opposite(v_side_), u, a_);
      assert(ws_.disc_a_of_b[i] <= kb_);  // (A, B) is a k-biplex
      ws_.v_adj_b[i] = Adjacent(v_, u);
      if (ws_.v_adj_b[i]) {
        ws_.b_keep.push_back(u);
      } else if (ws_.disc_a_of_b[i] <= kb_ - 1) {
        ws_.b1.push_back(i);  // store index into B
      } else {
        ws_.b2.push_back(i);
      }
    }
    ws_.disc_keep_of_a.resize(a_.size());
    for (size_t j = 0; j < a_.size(); ++j) {
      ws_.disc_keep_of_a[j] = g_.DiscCount(v_side_, a_[j], ws_.b_keep);
    }
    if (opts_.excluded_anchored != nullptr &&
        opts_.excluded_anchored->size() != 0) {
      for (size_t j = 0; j < a_.size(); ++j) {
        if (opts_.excluded_anchored->Test(a_[j])) {
          ws_.excluded_a_idx.push_back(j);
        }
      }
    }
  }

  /// Handles one B'' choice; returns false iff the callback stopped.
  bool ProcessBSubset(const std::vector<size_t>& c1,
                      const std::vector<size_t>& c2) {
    if (stats_ != nullptr) ++stats_->b_subsets;
    if (opts_.deadline != nullptr && (++deadline_poll_ & 0x3fu) == 0 &&
        opts_.deadline->Expired()) {
      return false;  // abort: the engine re-checks its own budget
    }
    // Materialize B'' (ids) and B''_2 (ids), both sorted.
    ws_.bpp.clear();
    ws_.bpp2.clear();
    for (size_t i : c1) ws_.bpp.push_back(b_[ws_.b1[i]]);
    for (size_t i : c2) {
      ws_.bpp.push_back(b_[ws_.b2[i]]);
      ws_.bpp2.push_back(b_[ws_.b2[i]]);
    }
    std::sort(ws_.bpp.begin(), ws_.bpp.end());
    // B' = B_keep ∪ B''.
    ws_.bp.clear();
    std::set_union(ws_.b_keep.begin(), ws_.b_keep.end(), ws_.bpp.begin(),
                   ws_.bpp.end(), std::back_inserter(ws_.bp));
    if (ws_.bp.size() < opts_.min_b_size) return true;  // Section 5 prune

    // A_remo: members of A disconnected from at least one vertex of B''_2
    // (indices into A). Removal sets are bounded by |B''_2| (Lemma 4.3).
    ws_.a_remo.clear();
    if (!ws_.bpp2.empty()) {
      for (size_t j = 0; j < a_.size(); ++j) {
        if (g_.ConnCount(v_side_, a_[j], ws_.bpp2) < ws_.bpp2.size()) {
          ws_.a_remo.push_back(j);
        }
      }
    }
    // Exclusion-driven required removals: every excluded A-member must be
    // removed, or all local solutions of this B'' retain it and would be
    // pruned by the traversal's exclusion strategy anyway.
    ws_.req.clear();
    if (!ws_.excluded_a_idx.empty()) {
      for (size_t j : ws_.excluded_a_idx) {
        if (!std::binary_search(ws_.a_remo.begin(), ws_.a_remo.end(), j)) {
          return true;  // not removable within this B'': skip it entirely
        }
        ws_.req.push_back(j);
      }
      if (ws_.req.size() > ws_.bpp2.size()) return true;  // removal budget
    }
    ws_.rest.clear();
    std::set_difference(ws_.a_remo.begin(), ws_.a_remo.end(),
                        ws_.req.begin(), ws_.req.end(),
                        std::back_inserter(ws_.rest));
    BoundedSubsetEnumerator& en = ws_.removal_sets;
    en.Reset(ws_.rest.size(), ws_.bpp2.size() - ws_.req.size());
    while (en.Next()) {
      if (stats_ != nullptr) ++stats_->a_subsets;
      // Removal set as indices into A: forced removals plus the chosen
      // subset of the remaining eligible members.
      ws_.abar.clear();
      for (size_t pos : en.current()) ws_.abar.push_back(ws_.rest[pos]);
      if (!ws_.req.empty()) {
        ws_.merged.clear();
        std::merge(ws_.abar.begin(), ws_.abar.end(), ws_.req.begin(),
                   ws_.req.end(), std::back_inserter(ws_.merged));
        std::swap(ws_.abar, ws_.merged);
      }
      if (!CandidateIsLocalSolution()) continue;
      if (opts_.l_variant == LRefinement::kL20) en.PruneSupersetsOfCurrent();
      if (stats_ != nullptr) ++stats_->local_solutions;
      if (!EmitCandidate()) return false;
    }
    return true;
  }

  /// δ̄(u, A' ∪ {v}) for B-side vertex at index `i` of B, under the current
  /// removal set ws_.abar.
  size_t DiscInCandidateA(size_t i) {
    size_t removed = 0;
    for (size_t j : ws_.abar) {
      if (!Adjacent(a_[j], b_[i])) ++removed;
    }
    return ws_.disc_a_of_b[i] - removed + (ws_.v_adj_b[i] ? 0 : 1);
  }

  /// Validity + local maximality of (A \ Ā ∪ {v}, B') per Section 4.
  bool CandidateIsLocalSolution() {
    // (a) k-biplex validity: every u ∈ B''_2 needs at least one of its
    // disconnected A-members removed (its count is k+1 otherwise).
    for (VertexId u : ws_.bpp2) {
      bool covered = false;
      for (size_t j : ws_.abar) {
        if (!Adjacent(a_[j], u)) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
    // (b) A-side local maximality: no removed vertex may be addable back.
    for (size_t j : ws_.abar) {
      size_t disc_w = ws_.disc_keep_of_a[j];
      const VertexId w = a_[j];
      for (VertexId u : ws_.bpp) {
        if (!Adjacent(w, u)) ++disc_w;
      }
      if (disc_w > ka_) continue;  // w's own budget forbids re-adding it
      bool addable = true;
      for (VertexId u : ws_.bp) {
        if (Adjacent(w, u)) continue;
        const size_t i = IndexInB(u);
        if (DiscInCandidateA(i) + 1 > kb_) {
          addable = false;
          break;
        }
      }
      if (addable) return false;
    }
    // (c) B-side local maximality: u ∈ B_enum \ B'' is addable iff v still
    // has budget (|B''| < k, since v disconnects all of B'' and u) and u's
    // own count fits; members of A' can never block such a u, because
    // δ̄(a, B') = k together with a disconnected u ∈ B \ B' would force
    // δ̄(a, B) > k, contradicting that (A, B) is a k-biplex.
    if (ws_.bpp.size() < ka_) {
      for (const std::vector<size_t>* bucket : {&ws_.b1, &ws_.b2}) {
        for (size_t i : *bucket) {
          if (sorted::Contains(ws_.bpp, b_[i])) continue;
          if (DiscInCandidateA(i) <= kb_) return false;  // u addable
        }
      }
    }
    return true;
  }

  /// Builds the local-solution Biplex (in the workspace buffer) and
  /// invokes the callback. The callback must copy if it keeps the value.
  bool EmitCandidate() {
    Biplex& loc = ws_.loc;
    loc.left.clear();
    loc.right.clear();
    std::vector<VertexId>& anchored = loc.MutableSideSet(v_side_);
    anchored.reserve(a_.size() - ws_.abar.size() + 1);
    size_t next_removed = 0;
    for (size_t j = 0; j < a_.size(); ++j) {
      if (next_removed < ws_.abar.size() && ws_.abar[next_removed] == j) {
        ++next_removed;
        continue;
      }
      anchored.push_back(a_[j]);
    }
    sorted::Insert(&anchored, v_);
    std::vector<VertexId>& other = loc.MutableSideSet(Opposite(v_side_));
    other.assign(ws_.bp.begin(), ws_.bp.end());
    return cb_(loc);
  }

  size_t IndexInB(VertexId u) const {
    return static_cast<size_t>(
        std::lower_bound(b_.begin(), b_.end(), u) - b_.begin());
  }

  const BipartiteGraph& g_;
  const Side v_side_;
  const VertexId v_;
  const size_t ka_;  // budget of the anchored side (v's own side)
  const size_t kb_;  // budget of the opposite side
  const EnumAlmostSatOptions& opts_;
  const LocalSolutionCallback cb_;
  EnumAlmostSatStats* stats_;

  const std::vector<VertexId>& a_;
  const std::vector<VertexId>& b_;

  EnumAlmostSatWorkspace local_ws_;  // fallback when no workspace is given
  EnumAlmostSatWorkspace& ws_;

  uint32_t deadline_poll_ = 0;
  uint64_t adj_tests_ = 0;
};

}  // namespace

bool EnumAlmostSat(const BipartiteGraph& g, const Biplex& h, Side v_side,
                   VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                   LocalSolutionCallback cb, EnumAlmostSatStats* stats) {
  assert(k.left >= 1 && k.right >= 1);
  assert(!sorted::Contains(h.SideSet(v_side), v));
  AlmostSatEnumerator e(g, h, v_side, v, k, opts, cb, stats);
  return e.Run();
}

}  // namespace kbiplex
