#include "core/itraversal.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "baselines/inflation_enum.h"
#include "util/arena_pool.h"
#include "util/dynamic_bitset.h"
#include "util/timer.h"

namespace kbiplex {

class TraversalEngine::Impl {
 public:
  Impl(const BipartiteGraph& g, const TraversalOptions& opts)
      : g_(g), opts_(opts), extender_(g, opts.k) {
    assert(opts.k.left >= 1 && opts.k.right >= 1);
    gen_mode_ = ComputeGenMode();
    if (opts_.scratch != nullptr) {
      // Adopt (or install) the session's pooled frame arena and shared
      // EnumAlmostSat workspace so consecutive engines of one session
      // reuse each other's warmed-up buffers.
      auto* slot = dynamic_cast<FrameArenaSlot*>(
          opts_.scratch->engine_state.get());
      if (slot == nullptr) {
        auto fresh = std::make_unique<FrameArenaSlot>();
        slot = fresh.get();
        opts_.scratch->engine_state = std::move(fresh);
      }
      frame_pool_ = &slot->pool;
      local_ws_ = &opts_.scratch->workspace;
    }
  }

  Biplex InitialSolution() const {
    Biplex b;
    if (opts_.left_anchored) {
      // H0 = (L0, R): saturate the non-anchored side, then greedily extend
      // the anchored side to a maximal set (Section 3.2).
      const Side full = Opposite(opts_.anchored_side);
      std::vector<VertexId>& fullset = b.MutableSideSet(full);
      fullset.resize(g_.NumOnSide(full));
      for (size_t i = 0; i < fullset.size(); ++i) {
        fullset[i] = static_cast<VertexId>(i);
      }
      extender_.Extend(&b, opts_.anchored_side == Side::kLeft,
                       opts_.anchored_side == Side::kRight);
    } else {
      // bTraversal accepts any maximal k-biplex; extend the empty subgraph
      // deterministically.
      extender_.Extend(&b, true, true);
    }
    return b;
  }

  /// Step-1 candidate generation strategy; see ComputeGenMode.
  enum class GenMode : uint8_t {
    kScan,        // re-scan the candidate side(s) every frame
    kAnchored,    // incremental 2-hop lists with the theta - k prefilter
    kMembership,  // incremental lists, membership filtering only
  };

  /// True iff the theta-prefiltered 2-hop candidate generator is provably
  /// equivalent to the full-side scan for this configuration: the
  /// Section 5 almost-satisfying-graph prune must already discard every
  /// candidate with fewer than theta_other - k connections into the
  /// non-anchored member set (so skipping conn = 0 vertices — everything
  /// farther than two hops from H — changes nothing), and right-shrinking
  /// must hold so the pruned subtrees cannot contain surviving solutions.
  bool TwoHopApplies() const {
    if (!opts_.left_anchored || !opts_.right_shrinking ||
        !opts_.prune_small) {
      return false;
    }
    const size_t theta_other = ThetaOpposite(opts_.anchored_side);
    const size_t k_side =
        static_cast<size_t>(opts_.k.ForSide(opts_.anchored_side));
    return theta_other > k_side;
  }

  /// Configurations outside the TwoHopApplies gate (bTraversal's two
  /// scanning side phases above all) still run the incremental generator,
  /// but with a pure membership filter (min_conn = 0): a frame's
  /// candidate list is its parent's list minus the members the link
  /// added, plus the members it removed — trivially the same vertex set
  /// the scan would visit, in the same order. The per-side connection
  /// counters are still maintained so ProcessCandidate reads |Γ(v) ∩ B|
  /// in O(1) instead of intersecting adjacency lists. Extending the
  /// theta prefilter to these configurations would need the paper's
  /// completeness argument for zero-connection candidates, which only
  /// covers the anchored gate.
  GenMode ComputeGenMode() const {
    if (TwoHopApplies()) return GenMode::kAnchored;
    // The exclusion strategy filters candidates against exclusion sets
    // that grow while a frame is active; the anchored generator handles
    // that at consumption time, but the membership fold keeps clear of
    // the interaction and leaves excluding configurations on the scan.
    if (opts_.exclusion) return GenMode::kScan;
    return GenMode::kMembership;
  }

  TraversalStats Run(const SolutionCallback& cb) {
    stats_ = TraversalStats();
    cb_ = &cb;
    seen_.clear();
    stop_ = false;
    WallTimer timer;
    Deadline deadline(opts_.time_budget_seconds);
    deadline_ = &deadline;

    Biplex h0 = InitialSolution();
    if (gen_mode_ != GenMode::kScan) InitConnCounts(h0);
    seen_.insert(EncodeBiplexKey(h0));
    ++stats_.solutions_found;
    std::vector<std::unique_ptr<Frame>> stack;
    stack.push_back(MakeFrame(std::move(h0), 0, nullptr));
    stats_.max_stack_depth = 1;

    size_t iter = 0;
    while (!stack.empty() && !stop_) {
      if ((++iter & 0xfu) == 0 &&
          (deadline.Expired() || Cancelled(opts_.cancel))) {
        stats_.completed = false;
        break;
      }
      Frame& f = *stack.back();
      if (!f.emitted_pre) {
        f.emitted_pre = true;
        if (!opts_.polynomial_delay_output || f.depth % 2 == 0) Emit(f.h);
        if (stop_) break;
      }
      if (f.batch_pos < f.batch.size()) {
        // Recurse into the next newly discovered solution.
        Biplex child = std::move(f.batch[f.batch_pos++]);
        const size_t depth = f.depth;
        stack.push_back(MakeFrame(std::move(child), depth + 1, &f));
        stats_.max_stack_depth =
            std::max(stats_.max_stack_depth, stack.size());
        continue;
      }
      if (f.batch_active) {
        // The branch of batch_v is complete: grow the exclusion set
        // (Section 3.5 / Berlowitz et al.'s strategy).
        f.batch_active = false;
        f.batch.clear();
        f.batch_pos = 0;
        if (opts_.exclusion) {
          f.excl[SideIndex(f.batch_side)].Set(f.batch_v);
        }
      }
      if (f.recurse && NextBatch(&f)) continue;
      if (opts_.polynomial_delay_output && f.depth % 2 == 1) Emit(f.h);
      if (!stop_) PopFrame(&stack);
    }
    if (!stack.empty() && stats_.completed) stats_.completed = false;
    stats_.seconds = timer.ElapsedSeconds();
    deadline_ = nullptr;
    return stats_;
  }

 private:
  struct Frame {
    Biplex h;
    DynamicBitset excl[2];  // exclusion sets, [0]=left ids, [1]=right ids
    VertexId next_cand[2] = {0, 0};
    int side_phase = 0;  // index into the candidate-side sequence
    std::vector<Biplex> batch;
    size_t batch_pos = 0;
    bool batch_active = false;
    Side batch_side = Side::kLeft;
    VertexId batch_v = kInvalidVertex;
    size_t depth = 0;
    bool emitted_pre = false;
    bool recurse = true;
    // Lazily computed exclusion metadata: number of members of the
    // anchored side inherited as excluded. When it exceeds the anchored
    // budget, every local solution of every candidate would retain an
    // excluded vertex, so the whole frame is sterile.
    bool excl_scanned = false;
    size_t excl_members_anchored = 0;
    // Incremental candidate generator state, per candidate side: the
    // materialized (sorted) candidate lists, the member diffs against the
    // parent frame used to keep the engine's connection counters
    // incremental, and the parent link the lists are derived from.
    // `parent` outlives this frame (it sits below it on the DFS stack).
    const Frame* parent = nullptr;
    bool cands_ready[2] = {false, false};
    size_t cand_pos[2] = {0, 0};
    std::vector<VertexId> cands[2];
    std::vector<VertexId> added[2];    // this side set \ parent's
    std::vector<VertexId> removed[2];  // parent's side set \ this one's
    // H's non-adjacency record, built by the frame's first EnumAlmostSat
    // call and read by the calls of every later candidate of either side.
    BiplexNonAdjacency non_adjacency;

    /// Restores logical emptiness while keeping buffer capacity; called
    /// by the frame arena on recycled frames.
    void Reset() {
      h.left.clear();
      h.right.clear();
      next_cand[0] = next_cand[1] = 0;
      side_phase = 0;
      batch.clear();
      batch_pos = 0;
      batch_active = false;
      batch_side = Side::kLeft;
      batch_v = kInvalidVertex;
      depth = 0;
      emitted_pre = false;
      recurse = true;
      excl_scanned = false;
      excl_members_anchored = 0;
      parent = nullptr;
      non_adjacency.Clear();
      for (size_t i = 0; i < 2; ++i) {
        cands_ready[i] = false;
        cand_pos[i] = 0;
        cands[i].clear();
        added[i].clear();
        removed[i].clear();
      }
      // excl[] is reassigned by MakeFrame when the exclusion strategy is
      // on (copy-assignment reuses the word buffers) and never read when
      // it is off, so it needs no reset here.
    }
  };

  /// The frame arena as carried across engine lifetimes by a session's
  /// TraversalScratch (see core/traversal_scratch.h).
  struct FrameArenaSlot final : TraversalScratch::Slot {
    ArenaPool<Frame> pool;
  };

  std::unique_ptr<Frame> MakeFrame(Biplex h, size_t depth,
                                   const Frame* parent) {
    std::unique_ptr<Frame> fp = frame_pool_->Acquire();
    Frame& f = *fp;
    f.h = std::move(h);
    f.depth = depth;
    f.parent = parent;
    if (opts_.exclusion) {
      if (parent != nullptr) {
        f.excl[0] = parent->excl[0];
        f.excl[1] = parent->excl[1];
      } else {
        f.excl[0].Resize(g_.NumLeft());
        f.excl[0].Reset();
        f.excl[1].Resize(g_.NumRight());
        f.excl[1].Reset();
      }
    }
    if (gen_mode_ != GenMode::kScan && parent != nullptr) {
      for (Side s : {Side::kLeft, Side::kRight}) {
        const size_t i = SideIndex(s);
        f.removed[i].clear();
        std::set_difference(parent->h.SideSet(s).begin(),
                            parent->h.SideSet(s).end(),
                            f.h.SideSet(s).begin(), f.h.SideSet(s).end(),
                            std::back_inserter(f.removed[i]));
        f.added[i].clear();
        std::set_difference(f.h.SideSet(s).begin(), f.h.SideSet(s).end(),
                            parent->h.SideSet(s).begin(),
                            parent->h.SideSet(s).end(),
                            std::back_inserter(f.added[i]));
      }
      // Right-shrinking guarantees B ⊆ parent B under the anchored
      // generator, so that diff is a pure removal set.
      assert(gen_mode_ != GenMode::kAnchored ||
             f.added[SideIndex(Opposite(opts_.anchored_side))].empty());
      ApplyFrameDiff(f, /*entering=*/true);
    }
    if (opts_.prune_small) {
      // Solution pruning: under right-shrinking traversal every solution
      // reachable from f.h has its non-anchored side contained in f.h's,
      // so a too-small side can never recover (Section 5).
      const Side other = Opposite(opts_.anchored_side);
      const size_t theta_other =
          other == Side::kRight ? opts_.theta_right : opts_.theta_left;
      if (opts_.right_shrinking && theta_other > 0 &&
          f.h.SideSet(other).size() < theta_other) {
        f.recurse = false;
      }
      // Left-side pruning via the exclusion set (Section 5).
      const size_t theta_anchor = opts_.anchored_side == Side::kLeft
                                      ? opts_.theta_left
                                      : opts_.theta_right;
      if (opts_.exclusion && theta_anchor > 0) {
        const size_t n = g_.NumOnSide(opts_.anchored_side);
        const size_t excluded = f.excl[SideIndex(opts_.anchored_side)].Count();
        if (n - excluded < theta_anchor) f.recurse = false;
      }
    }
    return fp;
  }

  /// Pops the top frame, undoing its connection-counter diff and returning
  /// it to the arena.
  void PopFrame(std::vector<std::unique_ptr<Frame>>* stack) {
    std::unique_ptr<Frame> f = std::move(stack->back());
    stack->pop_back();
    if (gen_mode_ != GenMode::kScan && f->parent != nullptr) {
      ApplyFrameDiff(*f, /*entering=*/false);
    }
    frame_pool_->Release(std::move(f));
  }

  /// Initializes conn_[s][w] = |Γ(w) ∩ H(opposite(s))| for every vertex w
  /// of every candidate side s: one counter array under left-anchored
  /// traversal, a second one for bTraversal's other candidate phase.
  void InitConnCounts(const Biplex& h) {
    conn_[0].clear();
    conn_[1].clear();
    for (int p = 0; p < NumSidePhases(); ++p) {
      const Side side = CandidateSide(p);
      std::vector<uint32_t>& conn = conn_[SideIndex(side)];
      conn.assign(g_.NumOnSide(side), 0);
      for (VertexId u : h.SideSet(Opposite(side))) {
        for (VertexId w : g_.Neighbors(Opposite(side), u)) ++conn[w];
      }
    }
  }

  /// Applies (entering = true) or undoes (false) the frame's member diffs
  /// to the connection counters: a member change on side o adjusts the
  /// counters of the vertices on the opposite side adjacent to it.
  void ApplyFrameDiff(const Frame& f, bool entering) {
    for (Side o : {Side::kLeft, Side::kRight}) {
      std::vector<uint32_t>& conn = conn_[SideIndex(Opposite(o))];
      if (conn.empty()) continue;
      for (VertexId u : f.added[SideIndex(o)]) {
        for (VertexId w : g_.Neighbors(o, u)) {
          entering ? ++conn[w] : --conn[w];
        }
      }
      for (VertexId u : f.removed[SideIndex(o)]) {
        for (VertexId w : g_.Neighbors(o, u)) {
          entering ? --conn[w] : ++conn[w];
        }
      }
    }
  }

  /// Minimum |Γ(v) ∩ B| a candidate needs to survive the Section 5
  /// almost-satisfying-graph prune; >= 1 under the anchored generator, 0
  /// (pure membership filtering) under the fold.
  size_t MinConn(Side side) const {
    if (gen_mode_ != GenMode::kAnchored) return 0;
    return ThetaOpposite(side) -
           static_cast<size_t>(opts_.k.ForSide(side));
  }

  /// Materializes the frame's candidate list for `side`: non-member
  /// vertices with enough connections into the frame's opposite member
  /// set (min_conn = 0 under the membership fold, where only membership
  /// filters). The root derives it from the graph directly; descendants
  /// refine the parent's list — drop the members the link added, append
  /// the members it removed — and re-check the connection floor where one
  /// applies.
  void GenerateCandidates(Frame* f, Side side) {
    const size_t i = SideIndex(side);
    f->cands_ready[i] = true;
    const size_t min_conn = MinConn(side);
    const std::vector<uint32_t>& conn = conn_[i];
    std::vector<VertexId>& cands = f->cands[i];
    cands.clear();
    if (f->parent == nullptr || !f->parent->cands_ready[i]) {
      const std::vector<VertexId>& members = f->h.SideSet(side);
      const VertexId n = static_cast<VertexId>(g_.NumOnSide(side));
      for (VertexId v = 0; v < n; ++v) {
        if ((min_conn == 0 || conn[v] >= min_conn) &&
            !sorted::Contains(members, v)) {
          cands.push_back(v);
        }
      }
    } else {
      // A parent candidate is a member here iff the link added it.
      for (VertexId v : f->parent->cands[i]) {
        if ((min_conn == 0 || conn[v] >= min_conn) &&
            !sorted::Contains(f->added[i], v)) {
          cands.push_back(v);
        }
      }
      // Removed members are disjoint from the parent's candidate list, so
      // an in-place merge keeps the result sorted.
      const size_t mid = cands.size();
      for (VertexId v : f->removed[i]) {
        if (min_conn == 0 || conn[v] >= min_conn) cands.push_back(v);
      }
      std::inplace_merge(cands.begin(),
                         cands.begin() + static_cast<ptrdiff_t>(mid),
                         cands.end());
    }
    stats_.candidates_generated += cands.size();
  }

  /// The sequence of candidate sides for Step 1: the anchored side only
  /// under left-anchored traversal, both sides for bTraversal.
  Side CandidateSide(int phase) const {
    if (opts_.left_anchored) return opts_.anchored_side;
    return phase == 0 ? Side::kLeft : Side::kRight;
  }
  int NumSidePhases() const { return opts_.left_anchored ? 1 : 2; }

  /// Advances the frame to its next candidate vertex and builds the batch
  /// of new solutions reached from it. Returns false when the frame has no
  /// candidates left.
  bool NextBatch(Frame* f) {
    if (opts_.exclusion && opts_.left_anchored && !f->excl_scanned) {
      // Sterility check: local solutions remove at most k(anchored)
      // vertices from the anchored side, so if more inherited members are
      // excluded, every link from this frame is pruned anyway.
      f->excl_scanned = true;
      const Side a = opts_.anchored_side;
      for (VertexId x : f->h.SideSet(a)) {
        if (f->excl[SideIndex(a)].Test(x)) ++f->excl_members_anchored;
      }
    }
    if (opts_.exclusion && opts_.left_anchored &&
        f->excl_members_anchored >
            static_cast<size_t>(opts_.k.ForSide(opts_.anchored_side))) {
      return false;
    }
    if (gen_mode_ != GenMode::kScan) return NextBatchIncremental(f);
    while (f->side_phase < NumSidePhases()) {
      const Side side = CandidateSide(f->side_phase);
      const size_t n = g_.NumOnSide(side);
      const std::vector<VertexId>& members = f->h.SideSet(side);
      const std::vector<VertexId>& other_members =
          f->h.SideSet(Opposite(side));
      const DynamicBitset& excl_other = f->excl[SideIndex(Opposite(side))];
      VertexId v = f->next_cand[SideIndex(side)];
      for (; v < n; ++v) {
        if (sorted::Contains(members, v)) continue;
        ++stats_.candidates_generated;
        if (opts_.exclusion) {
          if (f->excl[SideIndex(side)].Test(v)) {
            ++stats_.candidates_pruned;
            continue;
          }
          // Every local solution of G[H ∪ v] keeps all of v's neighbors
          // inside H (Lemma 4.1), so an excluded neighbor inside H prunes
          // every link of this candidate.
          if (excl_other.size() != 0 &&
              HasExcludedNeighbor(side, v, other_members, excl_other)) {
            ++stats_.candidates_pruned;
            continue;
          }
        }
        break;
      }
      if (v >= n) {
        ++f->side_phase;
        continue;
      }
      f->next_cand[SideIndex(side)] = v + 1;
      ProcessCandidate(f, side, v, /*prefiltered=*/false);
      f->batch_active = true;
      f->batch_side = side;
      f->batch_v = v;
      return true;
    }
    return false;
  }

  /// NextBatch through the materialized incremental candidate lists (one
  /// phase under left-anchored traversal, both sides for bTraversal).
  /// Every phase list is generated up front, before the frame produces
  /// any child, so descendants can always refine them. Exclusion filters
  /// run at consumption time, exactly when the scan would reach the
  /// vertex, because the exclusion sets grow while the frame is active.
  bool NextBatchIncremental(Frame* f) {
    for (int p = 0; p < NumSidePhases(); ++p) {
      const Side s = CandidateSide(p);
      if (!f->cands_ready[SideIndex(s)]) GenerateCandidates(f, s);
    }
    while (f->side_phase < NumSidePhases()) {
      const Side side = CandidateSide(f->side_phase);
      const size_t i = SideIndex(side);
      const std::vector<VertexId>& other_members =
          f->h.SideSet(Opposite(side));
      const DynamicBitset& excl_other = f->excl[SideIndex(Opposite(side))];
      while (f->cand_pos[i] < f->cands[i].size()) {
        const VertexId v = f->cands[i][f->cand_pos[i]++];
        if (opts_.exclusion) {
          if (f->excl[i].Test(v)) {
            ++stats_.candidates_pruned;
            continue;
          }
          if (excl_other.size() != 0 &&
              HasExcludedNeighbor(side, v, other_members, excl_other)) {
            ++stats_.candidates_pruned;
            continue;
          }
        }
        ProcessCandidate(f, side, v,
                         /*prefiltered=*/gen_mode_ == GenMode::kAnchored);
        f->batch_active = true;
        f->batch_side = side;
        f->batch_v = v;
        return true;
      }
      ++f->side_phase;
    }
    return false;
  }

  /// True iff candidate `v` (on `side`) has a neighbor inside
  /// `other_members` that is excluded.
  bool HasExcludedNeighbor(Side side, VertexId v,
                           const std::vector<VertexId>& other_members,
                           const DynamicBitset& excl_other) const {
    for (VertexId u : g_.Neighbors(side, v)) {
      if (excl_other.Test(u) && sorted::Contains(other_members, u)) {
        return true;
      }
    }
    return false;
  }

  /// θ threshold on the side opposite to `side`.
  size_t ThetaOpposite(Side side) const {
    return side == Side::kLeft ? opts_.theta_right : opts_.theta_left;
  }

  /// Steps 1-3 for a single almost-satisfying graph G[f->h ∪ v].
  /// `prefiltered` marks candidates from the 2-hop generator, whose
  /// connection lower bound is already established.
  void ProcessCandidate(Frame* f, Side side, VertexId v, bool prefiltered) {
    ++stats_.almost_sat_graphs;
    const size_t theta_other = ThetaOpposite(side);
    if (!prefiltered && opts_.prune_small && opts_.right_shrinking &&
        theta_other > 0) {
      // Almost-satisfying-graph pruning: any solution via v keeps at most
      // δ(v, other) + k vertices of the other side (Section 5). The
      // incremental generator's counters hold exactly |Γ(v) ∩ B|, so when
      // they cover this side the adjacency intersection is free.
      const std::vector<uint32_t>& cc = conn_[SideIndex(side)];
      const size_t conn =
          !cc.empty() ? cc[v]
                      : g_.ConnCount(side, v, f->h.SideSet(Opposite(side)));
      // v itself tolerates at most k(side) disconnections, bounding the
      // other side of any solution through this almost-satisfying graph.
      if (conn + static_cast<size_t>(opts_.k.ForSide(side)) < theta_other) {
        ++stats_.candidates_pruned;
        return;
      }
    }

    // Step-3 growth sides: bTraversal extends with any vertex; left-
    // anchored traversal with right-shrinking extends the anchored side
    // only (Algorithm 2, line 8).
    bool grow_left = true;
    bool grow_right = true;
    if (opts_.left_anchored && opts_.right_shrinking) {
      grow_left = opts_.anchored_side == Side::kLeft;
      grow_right = opts_.anchored_side == Side::kRight;
    }
    const bool anchored_step3 = opts_.left_anchored && opts_.right_shrinking;
    // Counts a local solution; false when the run must stop.
    auto count_local = [&]() -> bool {
      ++stats_.local_solutions;
      if ((stats_.local_solutions & 0xfu) == 0 &&
          ((deadline_ != nullptr && deadline_->Expired()) ||
           Cancelled(opts_.cancel))) {
        stop_ = true;
        stats_.completed = false;
        return false;
      }
      return true;
    };
    // Step 3 by the general extender (bTraversal, the inflation local
    // path, and left-anchored runs without right-shrinking).
    auto handle_local = [&](const Biplex& loc) -> bool {
      if (!count_local()) return false;
      if (opts_.exclusion && IntersectsExclusion(*f, loc)) {
        ++stats_.links_pruned_exclusion;
        return true;
      }
      if (anchored_step3) {
        // Right-shrinking filter (Algorithm 2, line 7): discard local
        // solutions to which some non-anchored vertex is still addable.
        if (extender_.AnyAddable(loc, Opposite(opts_.anchored_side))) {
          ++stats_.links_pruned_right_shrinking;
          return true;
        }
      }
      Biplex& sol = extend_buf_;
      sol = loc;  // reuses the buffer's capacity
      extender_.Extend(&sol, grow_left, grow_right);
      if (opts_.exclusion && IntersectsExclusion(*f, sol)) {
        ++stats_.links_pruned_exclusion;
        return true;
      }
      return AddLink(f, sol);
    };
    // Step 3 of left-anchored, right-shrinking traversal on EnumAlmostSat's
    // data. Only anchored vertices are ever excluded under left-anchored
    // traversal, and the candidate and local-enumeration filters keep v
    // and A \ Ā clear of the exclusion set, so a local solution meets it
    // only through a vertex the extension adds; the extension stops at the
    // first such vertex.
    const DynamicBitset* excl_anchored =
        opts_.exclusion ? &f->excl[SideIndex(side)] : nullptr;
    auto handle_anchored = [&](const LocalStep3& step3) -> bool {
      if (!count_local()) return false;
      if (step3.OppositeAddable()) {  // Algorithm 2, line 7
        ++stats_.links_pruned_right_shrinking;
        return true;
      }
      Biplex& sol = extend_buf_;  // reuses the buffer's capacity
      std::span<const VertexId> added = step3.ExtendAnchored(&sol);
      if (excl_anchored != nullptr && !added.empty() &&
          excl_anchored->Test(added.back())) {
        ++stats_.links_pruned_exclusion;
        return true;
      }
      return AddLink(f, sol);
    };

    if (opts_.local_impl == LocalEnumImpl::kDirect) {
      EnumAlmostSatOptions lopts = opts_.local;
      lopts.deadline = deadline_;
      lopts.workspace = local_ws_;
      lopts.non_adjacency = &f->non_adjacency;
      lopts.excluded_anchored = excl_anchored;
      if (opts_.prune_small && opts_.right_shrinking && theta_other > 0) {
        lopts.min_b_size = theta_other;  // local-solution pruning
      }
      bool completed;
      if (anchored_step3) {
        completed = EnumAlmostSat(g_, f->h, side, v, opts_.k, lopts,
                                  handle_anchored, &stats_.local_stats);
      } else {
        completed = EnumAlmostSat(g_, f->h, side, v, opts_.k, lopts,
                                  handle_local, &stats_.local_stats);
      }
      if (!completed && !stop_ && deadline_ != nullptr &&
          deadline_->Expired()) {
        stop_ = true;
        stats_.completed = false;
      }
    } else {
      EnumAlmostSatByInflation(g_, f->h, side, v, opts_.k, handle_local);
    }
  }

  /// Records the link to `sol`; the frame recurses into it on its first
  /// discovery. False when max_links stops the run.
  bool AddLink(Frame* f, const Biplex& sol) {
    ++stats_.links;
    if (opts_.max_links != 0 && stats_.links >= opts_.max_links) {
      stop_ = true;
      stats_.completed = false;
      return false;
    }
    if (seen_.insert(EncodeBiplexKey(sol)).second) {
      ++stats_.solutions_found;
      f->batch.push_back(sol);
    } else {
      ++stats_.dedup_hits;
    }
    return true;
  }

  bool IntersectsExclusion(const Frame& f, const Biplex& b) const {
    for (Side side : {Side::kLeft, Side::kRight}) {
      const DynamicBitset& excl = f.excl[SideIndex(side)];
      if (excl.size() == 0) continue;
      for (VertexId x : b.SideSet(side)) {
        if (excl.Test(x)) return true;
      }
    }
    return false;
  }

  void Emit(const Biplex& h) {
    if (h.left.size() < opts_.theta_left ||
        h.right.size() < opts_.theta_right) {
      return;
    }
    ++stats_.solutions_emitted;
    if (!(*cb_)(h)) {
      stop_ = true;
      stats_.completed = false;
      return;
    }
    if (opts_.max_results != 0 &&
        stats_.solutions_emitted >= opts_.max_results) {
      stop_ = true;
      stats_.completed = false;
    }
  }

  const BipartiteGraph& g_;
  const TraversalOptions opts_;
  MaximalExtender extender_;
  // Step-3 output buffer, reused across local solutions; copied into the
  // frame's batch only when the solution is new.
  Biplex extend_buf_;
  TraversalStats stats_;
  const SolutionCallback* cb_ = nullptr;
  // Keys of every solution reached this run (Algorithm 1, line 1): a
  // link recurses only on first discovery.
  std::unordered_set<std::string> seen_;
  const Deadline* deadline_ = nullptr;
  bool stop_ = false;

  // Acceleration state: the frame arena, the shared EnumAlmostSat
  // workspace, and the incremental |Γ(w) ∩ B| counters of the 2-hop
  // generator.
  // The frame arena and EnumAlmostSat workspace point at the session's
  // TraversalScratch when one is configured, else at the engine-owned
  // fallbacks below.
  ArenaPool<Frame> own_frame_pool_;
  EnumAlmostSatWorkspace own_ws_;
  ArenaPool<Frame>* frame_pool_ = &own_frame_pool_;
  EnumAlmostSatWorkspace* local_ws_ = &own_ws_;
  GenMode gen_mode_ = GenMode::kScan;
  std::vector<uint32_t> conn_[2];  // per-side |Γ(w) ∩ H(other)| counters

  friend class TraversalEngine;
};

TraversalEngine::TraversalEngine(const BipartiteGraph& g,
                                 const TraversalOptions& options)
    : impl_(std::make_unique<Impl>(g, options)) {}

TraversalEngine::~TraversalEngine() = default;

TraversalStats TraversalEngine::Run(const SolutionCallback& cb) {
  return impl_->Run(cb);
}

Biplex TraversalEngine::InitialSolution() const {
  return impl_->InitialSolution();
}

}  // namespace kbiplex
