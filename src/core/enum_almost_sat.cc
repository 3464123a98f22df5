#include "core/enum_almost_sat.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>

namespace kbiplex {
namespace internal {

/// All state of one EnumAlmostSat invocation. A is the anchored side (the
/// side of v), B the opposite side. Scratch vectors live in the (possibly
/// caller-owned) workspace so repeated invocations reuse their capacity;
/// every adjacency question inside H is answered from H's non-adjacency
/// record.
class AlmostSatEnumerator {
 public:
  AlmostSatEnumerator(const BipartiteGraph& g, const Biplex& h, Side v_side,
                      VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                      LocalStep3Callback cb, bool step3,
                      EnumAlmostSatStats* stats)
      : g_(g),
        h_(h),
        k_(k),
        v_side_(v_side),
        v_(v),
        ka_(static_cast<size_t>(k.ForSide(v_side))),
        kb_(static_cast<size_t>(k.ForSide(Opposite(v_side)))),
        opts_(opts),
        cb_(cb),
        stats_(stats),
        a_(h.SideSet(v_side)),
        b_(h.SideSet(Opposite(v_side))),
        ws_(opts.workspace != nullptr ? *opts.workspace : local_ws_.emplace()),
        rec_(opts.non_adjacency != nullptr ? *opts.non_adjacency
                                           : ws_.non_adjacency),
        excluded_(opts.excluded_anchored != nullptr &&
                          opts.excluded_anchored->size() != 0
                      ? opts.excluded_anchored
                      : nullptr),
        step3_(step3) {}

  /// Runs the enumeration; false iff the callback stopped it.
  bool Run() {
    if (opts_.non_adjacency == nullptr || !rec_.built()) {
      adj_tests_ += rec_.Build(g_, h_, k_);
    }
    // A stale shared record would be read out of bounds.
    if (rec_.NumMembers(v_side_) != a_.size() ||
        rec_.NumMembers(Opposite(v_side_)) != b_.size()) {
      throw std::logic_error(
          "EnumAlmostSat: the given non-adjacency record was built for "
          "another H");
    }
    Prepare();
    // The Step-3 marks live in the caller's workspace: restore them even
    // when the callback throws.
    struct ClearOnExit {
      AlmostSatEnumerator* e;
      ~ClearOnExit() { e->ClearStep3(); }
    } clear_on_exit{this};
    bool go = RunSubsets();
    if (stats_ != nullptr) stats_->adjacency_tests += adj_tests_;
    return go;
  }

  /// The current local solution, assembled in the workspace on first use.
  const Biplex& Solution() {
    if (!loc_ready_) {
      AssembleLocal(&ws_.loc);
      loc_ready_ = true;
    }
    return ws_.loc;
  }

  // Step 3 on the local solution being reported (see LocalStep3). Every
  // answer walks adjacency lists against per-vertex flag marks
  // (kInH / kInL / kBound), so the walks are branch-free counts.

  bool OppositeAddable() {
    const Side opp = Opposite(v_side_);
    std::vector<uint32_t>& ma = ws_.marks[SideIndex(v_side_)];
    std::vector<uint32_t>& mb = ws_.marks[SideIndex(opp)];
    // Slackless members of L's anchored side (at budget k_A inside L): a
    // member of A with k_A record entries all in B', or v when |B''| = k_A.
    VertexId x = kInvalidVertex;  // slackless member of min degree
    auto slackless = [&](VertexId id) {
      ma[id] |= kBound;
      ws_.bound_list.push_back(id);
      if (x == kInvalidVertex ||
          g_.Degree(v_side_, id) < g_.Degree(v_side_, x)) {
        x = id;
      }
    };
    for (uint32_t j : ws_.full_a) {
      if (ws_.in_abar[j]) continue;
      std::span<const uint32_t> nn = NonNeighborsOfA(j);
      if (std::all_of(nn.begin(), nn.end(),
                      [&](uint32_t i) { return InBPrime(i); })) {
        slackless(a_[j]);
      }
    }
    if (bpp_size_ == ka_) slackless(v_);
    const size_t l_size = a_.size() - ws_.abar.size() + 1;
    if (x == kInvalidVertex && l_size <= kb_) {
      // Sweep-only case: every outsider fits its own budget and no member
      // blocks it, and check (c) put all of B into L.
      CountSweep();
      return b_keep_size_ + bpp_size_ < g_.NumOnSide(opp);
    }
    // Tests an outsider of H ∪ {v} by one walk of its own list.
    const size_t num_slackless = ws_.bound_list.size();
    auto addable = [&](VertexId u) {
      size_t conn = 0;
      size_t conn_slackless = 0;
      for (VertexId w : g_.Neighbors(opp, u)) {
        conn += ma[w] & kInL;
        conn_slackless += (ma[w] & kBound) >> 1;
      }
      return l_size - conn <= kb_ && conn_slackless == num_slackless;
    };
    // Check (c) rules out B \ B' (with no slackless member |B''| < k_A, so
    // the check ran), leaving the outsiders of H ∪ {v}. A candidate must
    // neighbour x; with no slackless member it misses at most k_B members
    // of L's anchored side, so it neighbours one of any k_B + 1 of them.
    std::span<const VertexId> candidates;
    if (x != kInvalidVertex) {
      candidates = Outsiders(g_.Neighbors(v_side_, x), mb);
    } else {
      for (size_t j = 0; j < a_.size(); ++j) {
        if (!ws_.in_abar[j]) KeepLowestDegree(v_side_, a_[j], kb_ + 1);
      }
      KeepLowestDegree(v_side_, v_, kb_ + 1);
      candidates = PigeonholeCandidates(v_side_, &mb, false);
    }
    const bool found =
        std::any_of(candidates.begin(), candidates.end(), addable);
    for (VertexId id : ws_.bound_list) ma[id] &= ~kBound;
    ws_.bound_list.clear();
    return found;
  }

  std::span<const VertexId> ExtendAnchored(Biplex* out) {
    const Side opp = Opposite(v_side_);
    std::vector<uint32_t>& ma = ws_.marks[SideIndex(v_side_)];
    std::vector<uint32_t>& mb = ws_.marks[SideIndex(opp)];
    std::vector<VertexId>& added = ws_.added;
    added.clear();
    auto make_tight = [&](VertexId u) {
      mb[u] |= kBound;
      ws_.bound_list.push_back(u);
    };
    // Tight members of B' (at budget k_B against L's anchored side).
    for (uint32_t i : ws_.full_b) {
      if (InBPrime(i) && DiscInCandidateA(i) == kb_) make_tight(b_[i]);
    }
    // Accepts w; false when w is excluded (the extension stops there).
    // Otherwise w raises the disconnections of the members of B' it misses.
    bool disc_ready = false;
    auto accept = [&](VertexId w) {
      added.push_back(w);
      if (excluded_ != nullptr && excluded_->Test(w)) return false;
      if (!disc_ready) {
        disc_ready = true;
        ws_.b_prime.clear();
        ws_.disc_b.clear();
        for (size_t i = 0; i < b_.size(); ++i) {
          if (InBPrime(i)) {
            ws_.b_prime.push_back(b_[i]);
            ws_.disc_b.push_back(static_cast<uint32_t>(DiscInCandidateA(i)));
          }
        }
      }
      g_.ForEachAdjacency(v_side_, w, ws_.b_prime, [&](size_t p, bool adj) {
        if (!adj && ++ws_.disc_b[p] == kb_) make_tight(ws_.b_prime[p]);
      });
      return true;
    };
    // Check (b) keeps Ā ruled out as L grows, so the candidates are the
    // outsiders of H ∪ {v}, taken in ascending order. A candidate fits when
    // it misses at most k_A members of B' and neighbours every tight one;
    // each test is one walk of its own list.
    const size_t b_size = b_keep_size_ + bpp_size_;
    auto fits = [&](VertexId w) {
      size_t conn = 0;
      size_t conn_tight = 0;
      for (VertexId u : g_.Neighbors(v_side_, w)) {
        conn += mb[u] & kInL;
        conn_tight += (mb[u] & kBound) >> 1;
      }
      return b_size - conn <= ka_ && conn_tight == ws_.bound_list.size();
    };
    // While no member of B' is tight, a fitting candidate misses at most
    // k_A members of B', so when |B'| > k_A it neighbours one of any
    // k_A + 1 of them, and when |B'| <= k_A every outsider fits.
    bool go = true;
    if (ws_.bound_list.empty()) {
      if (b_size <= ka_) {
        CountSweep();
        const VertexId n = static_cast<VertexId>(g_.NumOnSide(v_side_));
        for (VertexId w = 0; w < n && go && ws_.bound_list.empty(); ++w) {
          if ((ma[w] & kInH) == 0) go = accept(w);
        }
      } else {
        for (size_t i = 0; i < b_.size(); ++i) {
          if (InBPrime(i)) KeepLowestDegree(opp, b_[i], ka_ + 1);
        }
        for (VertexId w : PigeonholeCandidates(opp, &ma, true)) {
          if (!go || !ws_.bound_list.empty()) break;
          if (fits(w)) go = accept(w);
        }
      }
    }
    // Once a member is tight a candidate must neighbour every tight
    // member: test the outsiders of Γ(b0) past the last addition.
    if (go && !ws_.bound_list.empty()) {
      std::span<const VertexId> candidates =
          Outsiders(g_.Neighbors(opp, MinDegreeBound(opp)), ma);
      const VertexId next = added.empty() ? 0 : added.back() + 1;
      for (auto it = std::lower_bound(candidates.begin(), candidates.end(),
                                      next);
           go && it != candidates.end(); ++it) {
        if (fits(*it)) go = accept(*it);
      }
    }
    for (VertexId id : ws_.bound_list) mb[id] &= ~kBound;
    ws_.bound_list.clear();
    if (!go) return added;  // stopped: *out is not written
    // L with the (ascending) added vertices merged into its anchored side.
    AssembleLocal(out);
    std::vector<VertexId>& anchored = out->MutableSideSet(v_side_);
    size_t i = anchored.size();
    size_t j = added.size();
    anchored.resize(i + j);
    for (size_t pos = anchored.size(); j > 0;) {
      if (i > 0 && anchored[i - 1] > added[j - 1]) {
        anchored[--pos] = anchored[--i];
      } else {
        anchored[--pos] = added[--j];
      }
    }
    return added;
  }

 private:
  /// Writes L = (A \ Ā ∪ {v}, B') into `*out`, reusing its capacity.
  void AssembleLocal(Biplex* out) const {
    std::vector<VertexId>& anchored = out->MutableSideSet(v_side_);
    anchored.clear();
    size_t next_removed = 0;
    for (size_t j = 0; j < a_.size(); ++j) {
      if (next_removed < ws_.abar.size() && ws_.abar[next_removed] == j) {
        ++next_removed;
        continue;
      }
      anchored.push_back(a_[j]);
    }
    sorted::Insert(&anchored, v_);
    std::vector<VertexId>& other = out->MutableSideSet(Opposite(v_side_));
    other.clear();
    for (size_t i = 0; i < b_.size(); ++i) {
      if (InBPrime(i)) other.push_back(b_[i]);
    }
  }

  // Step-3 vertex marks (ws_.marks): kInH on H's members and v, kInL on
  // the members of the local solution L, kBound on L's members at their
  // budget during one Step-3 query.
  static constexpr uint32_t kInL = 1;
  static constexpr uint32_t kBound = 2;
  static constexpr uint32_t kInH = 4;
  static constexpr uint32_t kSeen = 8;  // collected by PigeonholeCandidates

  /// The vertices of `list` outside H ∪ {v}, collected without a branch
  /// per entry (about half of a dense neighbourhood is inside H).
  std::span<const VertexId> Outsiders(std::span<const VertexId> list,
                                      const std::vector<uint32_t>& marks) {
    std::vector<VertexId>& out = ws_.outsiders;
    out.resize(list.size());
    size_t n = 0;
    for (VertexId x : list) {
      out[n] = x;
      n += (marks[x] & kInH) == 0;
    }
    return {out.data(), n};
  }

  /// The pigeonhole pool: the `count` members of lowest degree offered so
  /// far (vertex ids of side `s`), kept in ws_.pool by ascending degree.
  void KeepLowestDegree(Side s, VertexId id, size_t count) {
    std::vector<VertexId>& pool = ws_.pool;
    const size_t d = g_.Degree(s, id);
    if (pool.size() == count && d >= g_.Degree(s, pool.back())) return;
    if (pool.size() < count) pool.push_back(id);
    size_t at = pool.size() - 1;
    for (; at > 0 && g_.Degree(s, pool[at - 1]) > d; --at) {
      pool[at] = pool[at - 1];
    }
    pool[at] = id;
  }

  /// The outsiders of the union of the pool members' neighbour lists
  /// (members of side `s`; `marks` are the other side's), ascending if
  /// asked; empties the pool.
  std::span<const VertexId> PigeonholeCandidates(Side s,
                                                 std::vector<uint32_t>* marks,
                                                 bool ascending) {
    std::vector<uint32_t>& m = *marks;
    std::vector<VertexId>& out = ws_.candidates;
    out.clear();
    for (VertexId p : ws_.pool) {
      for (VertexId x : g_.Neighbors(s, p)) {
        if ((m[x] & (kInH | kSeen)) != 0) continue;
        m[x] |= kSeen;
        out.push_back(x);
      }
    }
    for (VertexId x : out) m[x] &= ~kSeen;
    ws_.pool.clear();
    if (ascending) std::sort(out.begin(), out.end());
    return out;
  }

  /// The member of ws_.bound_list (side `s`) of lowest degree.
  VertexId MinDegreeBound(Side s) const {
    return *std::min_element(ws_.bound_list.begin(), ws_.bound_list.end(),
                             [&](VertexId x, VertexId y) {
                               return g_.Degree(s, x) < g_.Degree(s, y);
                             });
  }

  /// Counts a query served by the sweep-only rule (see LocalStep3).
  void CountSweep() {
    if (stats_ != nullptr) ++stats_->step3_sweeps;
  }

  /// Marks L by vertex id before a local solution is reported: H's
  /// members, v and the per-call lists of members that can reach their
  /// budget once per call, then L's differences from B_keep and A ∪ {v}.
  void MarkLocal() {
    std::vector<uint32_t>& ma = ws_.marks[SideIndex(v_side_)];
    std::vector<uint32_t>& mb = ws_.marks[SideIndex(Opposite(v_side_))];
    if (!step3_ready_) {
      step3_ready_ = true;
      if (ma.size() < g_.NumOnSide(v_side_)) ma.resize(g_.NumOnSide(v_side_));
      if (mb.size() < g_.NumOnSide(Opposite(v_side_))) {
        mb.resize(g_.NumOnSide(Opposite(v_side_)));
      }
      ws_.full_a.clear();
      for (size_t j = 0; j < a_.size(); ++j) {
        ma[a_[j]] = kInH | kInL;
        if (NonNeighborsOfA(j).size() == ka_) {
          ws_.full_a.push_back(static_cast<uint32_t>(j));
        }
      }
      ma[v_] = kInH | kInL;
      ws_.full_b.clear();
      for (size_t i = 0; i < b_.size(); ++i) {
        mb[b_[i]] = kInH | (ws_.v_adj_b[i] ? kInL : 0);
        if (NonNeighborsOfB(i).size() + (ws_.v_adj_b[i] ? 0 : 1) >= kb_) {
          ws_.full_b.push_back(static_cast<uint32_t>(i));
        }
      }
    }
    ToggleLocal();
  }

  /// Flips kInL on Ā and B'', the members where L differs from A ∪ {v}
  /// and B_keep: MarkLocal's second half, and its undo after the callback.
  void ToggleLocal() {
    std::vector<uint32_t>& ma = ws_.marks[SideIndex(v_side_)];
    std::vector<uint32_t>& mb = ws_.marks[SideIndex(Opposite(v_side_))];
    for (size_t j : ws_.abar) ma[a_[j]] ^= kInL;
    for (size_t c : *bpp1_) mb[b_[ws_.b1[c]]] ^= kInL;
    for (size_t i : ws_.bpp2) mb[b_[i]] ^= kInL;
  }

  /// Restores the all-zero vertex marks after a call that used them.
  void ClearStep3() {
    if (!step3_ready_) return;
    ws_.bound_list.clear();
    std::vector<uint32_t>& ma = ws_.marks[SideIndex(v_side_)];
    std::vector<uint32_t>& mb = ws_.marks[SideIndex(Opposite(v_side_))];
    for (VertexId a : a_) ma[a] = 0;
    ma[v_] = 0;
    for (VertexId b : b_) mb[b] = 0;
  }

  /// Non-neighbours of A[j] in B, as indices into B.
  std::span<const uint32_t> NonNeighborsOfA(size_t j) const {
    return rec_.Of(v_side_, j);
  }
  /// Non-neighbours of B[i] in A, as indices into A.
  std::span<const uint32_t> NonNeighborsOfB(size_t i) const {
    return rec_.Of(Opposite(v_side_), i);
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

  /// Partitions B into B_keep / B1 / B2 by one merge of Γ(v) with B; the
  /// counts δ̄(u, A) are the record's list sizes.
  void Prepare() {
    ws_.b1.clear();
    ws_.b2.clear();
    ws_.excluded_a_idx.clear();
    ws_.v_adj_b.resize(b_.size());
    ws_.in_bpp.assign(b_.size(), 0);
    ws_.in_abar.assign(a_.size(), 0);
    b_keep_size_ = 0;
    adj_tests_ += b_.size();
    g_.ForEachAdjacency(v_side_, v_, b_, [&](size_t i, bool adjacent) {
      ws_.v_adj_b[i] = adjacent;
      if (adjacent) {
        ++b_keep_size_;
      } else if (NonNeighborsOfB(i).size() < kb_) {
        ws_.b1.push_back(i);
      } else {
        ws_.b2.push_back(i);
      }
    });
    if (excluded_ != nullptr) {
      for (size_t j = 0; j < a_.size(); ++j) {
        if (excluded_->Test(a_[j])) {
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
    // |B'| = |B_keep| + |B''|: v is adjacent to none of B''.
    bpp_size_ = c1.size() + c2.size();
    if (b_keep_size_ + bpp_size_ < opts_.min_b_size) {
      return true;  // Section 5 prune
    }
    ws_.bpp2.clear();
    for (size_t c : c2) ws_.bpp2.push_back(ws_.b2[c]);

    // A_remo: members of A disconnected from at least one vertex of B''_2,
    // the union of their non-neighbour lists (indices into A). Removal
    // sets are bounded by |B''_2| (Lemma 4.3).
    ws_.a_remo.clear();
    for (size_t i : ws_.bpp2) {
      std::span<const uint32_t> nn = NonNeighborsOfB(i);
      ws_.a_remo.insert(ws_.a_remo.end(), nn.begin(), nn.end());
    }
    std::sort(ws_.a_remo.begin(), ws_.a_remo.end());
    ws_.a_remo.erase(std::unique(ws_.a_remo.begin(), ws_.a_remo.end()),
                     ws_.a_remo.end());
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

    bpp1_ = &c1;
    auto mark_bpp = [&](char on) {
      for (size_t c : c1) ws_.in_bpp[ws_.b1[c]] = on;
      for (size_t i : ws_.bpp2) ws_.in_bpp[i] = on;
    };
    mark_bpp(1);
    const bool go = RunRemovalSets();
    mark_bpp(0);
    return go;
  }

  /// Visits the removal sets of the current B'' (marked in ws_.in_bpp);
  /// returns false iff the callback stopped.
  bool RunRemovalSets() {
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
      // The Ā marks stay set through the callback, for LocalStep3.
      for (size_t j : ws_.abar) ws_.in_abar[j] = 1;
      bool go = true;
      if (CandidateIsLocalSolution()) {
        if (opts_.l_variant == LRefinement::kL20) en.PruneSupersetsOfCurrent();
        if (stats_ != nullptr) ++stats_->local_solutions;
        go = EmitCandidate();
      }
      for (size_t j : ws_.abar) ws_.in_abar[j] = 0;
      if (!go) return false;
    }
    return true;
  }

  /// B[i] ∈ B' = B_keep ∪ B''?
  bool InBPrime(size_t i) const { return ws_.v_adj_b[i] || ws_.in_bpp[i]; }

  /// δ̄(u, A' ∪ {v}) for B-side vertex at index `i` of B, under the current
  /// removal set (marked in ws_.in_abar).
  size_t DiscInCandidateA(size_t i) const {
    size_t disc = ws_.v_adj_b[i] ? 0 : 1;
    for (uint32_t j : NonNeighborsOfB(i)) {
      if (!ws_.in_abar[j]) ++disc;
    }
    return disc;
  }

  /// Validity + local maximality of (A \ Ā ∪ {v}, B') per Section 4.
  bool CandidateIsLocalSolution() const {
    // (a) k-biplex validity: every u ∈ B''_2 needs at least one of its
    // disconnected A-members removed (its count is k+1 otherwise).
    for (size_t i : ws_.bpp2) {
      std::span<const uint32_t> nn = NonNeighborsOfB(i);
      if (std::none_of(nn.begin(), nn.end(),
                       [&](uint32_t j) { return ws_.in_abar[j] != 0; })) {
        return false;
      }
    }
    // (b) A-side local maximality: no removed vertex w may be addable
    // back. w misses at most k_A members of B ⊇ B', so its own budget
    // always allows it; it is addable iff every u ∈ B' it misses keeps
    // room for one more disconnection.
    for (size_t j : ws_.abar) {
      bool addable = true;
      for (uint32_t i : NonNeighborsOfA(j)) {
        if (InBPrime(i) && DiscInCandidateA(i) + 1 > kb_) {
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
    if (bpp_size_ < ka_) {
      for (const std::vector<size_t>* bucket : {&ws_.b1, &ws_.b2}) {
        for (size_t i : *bucket) {
          if (ws_.in_bpp[i]) continue;
          if (DiscInCandidateA(i) <= kb_) return false;  // u addable
        }
      }
    }
    return true;
  }

  /// Invokes the callback on the current local solution, marked for
  /// Step-3 queries when the callback asks them.
  bool EmitCandidate() {
    loc_ready_ = false;
    if (!step3_) return cb_(LocalStep3(this));
    MarkLocal();
    const bool go = cb_(LocalStep3(this));
    ToggleLocal();
    return go;
  }

  const BipartiteGraph& g_;
  const Biplex& h_;
  const KPair k_;
  const Side v_side_;
  const VertexId v_;
  const size_t ka_;  // budget of the anchored side (v's own side)
  const size_t kb_;  // budget of the opposite side
  const EnumAlmostSatOptions& opts_;
  const LocalStep3Callback cb_;
  EnumAlmostSatStats* stats_;

  const std::vector<VertexId>& a_;
  const std::vector<VertexId>& b_;

  // Fallback when no workspace is given; built only then.
  std::optional<EnumAlmostSatWorkspace> local_ws_;
  EnumAlmostSatWorkspace& ws_;
  BiplexNonAdjacency& rec_;  // H's non-adjacency record
  // opts_.excluded_anchored, or null when it is null or empty.
  const DynamicBitset* excluded_;

  size_t b_keep_size_ = 0;  // |B_keep|: members of B adjacent to v
  size_t bpp_size_ = 0;     // |B''| of the current B'' choice

  // B''_1 of the current B'' choice, as indices into B1.
  const std::vector<size_t>* bpp1_ = nullptr;
  // Whether the callback asks Step-3 queries, so each reported L is
  // marked in ws_.marks; H and v are marked there once step3_ready_.
  const bool step3_;
  bool step3_ready_ = false;
  bool loc_ready_ = false;  // ws_.loc holds the current local solution
  uint32_t deadline_poll_ = 0;
  uint64_t adj_tests_ = 0;
};

}  // namespace internal

const Biplex& LocalStep3::Solution() const { return e_->Solution(); }

bool LocalStep3::OppositeAddable() const { return e_->OppositeAddable(); }

std::span<const VertexId> LocalStep3::ExtendAnchored(Biplex* out) const {
  return e_->ExtendAnchored(out);
}

uint64_t BiplexNonAdjacency::Build(const BipartiteGraph& g, const Biplex& h,
                                   KPair k) {
  built_ = false;
  const size_t kl = static_cast<size_t>(k.left);
  const size_t kr = static_cast<size_t>(k.right);
  Lists& ll = lists_[SideIndex(Side::kLeft)];
  Lists& rl = lists_[SideIndex(Side::kRight)];
  ll.stride = std::min(kl, h.right.size());
  rl.stride = std::min(kr, h.left.size());
  ll.count.assign(h.left.size(), 0);
  rl.count.assign(h.right.size(), 0);
  ll.flat.resize(h.left.size() * ll.stride);
  rl.flat.resize(h.right.size() * rl.stride);
  // Visiting left members in index order keeps every right list ascending.
  // A list's count stays below its k (checked) and below the size of the
  // opposite side (its entries are distinct), hence below the stride: the
  // check also keeps every write inside the member's slot.
  for (size_t j = 0; j < h.left.size(); ++j) {
    auto record = [&](size_t i, bool adjacent) {
      if (adjacent) return;
      if (ll.count[j] >= kl || rl.count[i] >= kr) {
        throw std::logic_error(
            "EnumAlmostSat: H is not a k-biplex (a member misses more than "
            "k vertices of the other side)");
      }
      ll.flat[j * ll.stride + ll.count[j]++] = static_cast<uint32_t>(i);
      rl.flat[i * rl.stride + rl.count[i]++] = static_cast<uint32_t>(j);
    };
    g.ForEachAdjacency(Side::kLeft, h.left[j], h.right, record);
  }
  built_ = true;
  return static_cast<uint64_t>(h.left.size()) * h.right.size();
}

namespace {

bool RunEnumerator(const BipartiteGraph& g, const Biplex& h, Side v_side,
                   VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                   LocalStep3Callback cb, bool step3,
                   EnumAlmostSatStats* stats) {
  assert(k.left >= 1 && k.right >= 1);
  assert(!sorted::Contains(h.SideSet(v_side), v));
  internal::AlmostSatEnumerator e(g, h, v_side, v, k, opts, cb, step3, stats);
  return e.Run();
}

}  // namespace

bool EnumAlmostSat(const BipartiteGraph& g, const Biplex& h, Side v_side,
                   VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                   LocalStep3Callback cb, EnumAlmostSatStats* stats) {
  return RunEnumerator(g, h, v_side, v, k, opts, cb, true, stats);
}

bool EnumAlmostSat(const BipartiteGraph& g, const Biplex& h, Side v_side,
                   VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                   LocalSolutionCallback cb, EnumAlmostSatStats* stats) {
  auto solution_only = [cb](const LocalStep3& step3) {
    return cb(step3.Solution());
  };
  return RunEnumerator(g, h, v_side, v, k, opts,
                       LocalStep3Callback(solution_only), false, stats);
}

}  // namespace kbiplex
