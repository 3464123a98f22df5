// EnumAlmostSat (Section 4 / Algorithm 3): enumerate all local solutions of
// an almost-satisfying graph (A ∪ {v}, B), i.e., the subgraphs that contain
// v, are k-biplexes, and are maximal within the almost-satisfying graph.
//
// The implementation is side-neutral: the anchored side A is the side of
// the incoming vertex v (left for iTraversal's left-anchored traversal,
// either side for bTraversal), B is the opposite side.
//
// Algorithm 3's line-1 preprocessing runs once per H, not once per v: the
// non-adjacency of H = (A, B) — for each member, its at most k
// non-neighbours on the other side — is kept by member index in a
// BiplexNonAdjacency record, which the traversal engine builds on a
// frame's first candidate and shares across all of that frame's
// candidates. Per candidate v, one merge of Γ(v) with B splits B into
// B_keep, B1 and B2; every later question (A_remo, k-biplex validity,
// local maximality) scans record entries, with no edge search.
//
// Step 3 of left-anchored, right-shrinking traversal (Algorithm 2, lines 7
// and 8) reads the same data through the LocalStep3 view handed to the
// callback: inside a local solution L a member's disconnections are its
// record entries filtered by the B_keep / B'' / Ā marks, and the
// local-maximality checks already rule out every vertex of H as an
// addition, so only outsiders of H ∪ {v} are tested, each by one walk of
// its own adjacency list. The candidates are the outsiders adjacent to one
// member of L at its budget. With no member at budget, an addition misses
// at most k members of the side of L that bounds it (L's anchored side for
// the right-shrinking test, B' for the extension), so the candidates are
// the outsiders adjacent to that side's k + 1 lowest-degree members
// (pigeonhole); with that side at k members or fewer, every outsider. The
// extension stops at its first addition the caller excludes. No query
// sweeps L's adjacency, and MaximalExtender is not consulted.
//
// Refinements, each selectable independently (evaluated in Figure 12):
//   R1.0: enumerate only B'' ⊆ B_enum with |B''| <= k, keeping B_keep
//         (v's neighbors in B) in every local solution (Lemma 4.1).
//   R2.0: split B_enum into B1 (δ̄(u,A) <= k-1) and B2 (δ̄(u,A) = k) and
//         prune pairs with |B''| < k and B1 \ B''_1 ≠ ∅ (Lemma 4.2).
//   L1.0: remove only subsets of A_remo = {a ∈ A : δ̄(a, B''_2) > 0} with
//         size at most |B''_2| (Lemma 4.3).
//   L2.0: visit removal sets in ascending cardinality and prune supersets
//         of successful removal sets (Section 4.4).
#ifndef KBIPLEX_CORE_ENUM_ALMOST_SAT_H_
#define KBIPLEX_CORE_ENUM_ALMOST_SAT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/biplex.h"
#include "graph/bipartite_graph.h"
#include "util/dynamic_bitset.h"
#include "util/function_ref.h"
#include "util/subset_enum.h"
#include "util/timer.h"

namespace kbiplex {

/// Refined enumeration variant on the removal (anchored) side.
enum class LRefinement : uint8_t { kL10, kL20 };

/// Refined enumeration variant on the subset (opposite) side.
enum class RRefinement : uint8_t { kR10, kR20 };

/// The non-adjacency of a k-biplex H = (L, R), stored by member index:
/// for each member of side s, the ascending indices (into H's opposite
/// side set) of the opposite members it is not adjacent to — at most
/// k.ForSide(s) of them. The record covers both sides, so one record of H
/// serves candidates of either side (both of bTraversal's phases).
class BiplexNonAdjacency {
 public:
  /// Builds the record of `h` in `g`, reusing the buffers' capacity.
  /// Throws std::logic_error (in every build type) when a member of side s
  /// misses more than k.ForSide(s) opposite members, i.e. `h` is not a
  /// k-biplex; the record then reads as not built. Returns the number of
  /// member pairs resolved, |L(h)|·|R(h)|.
  uint64_t Build(const BipartiteGraph& g, const Biplex& h, KPair k);

  /// Forgets the record; the next EnumAlmostSat call given it rebuilds it.
  void Clear() { built_ = false; }
  bool built() const { return built_; }

  /// Number of members of side `s` the record was built for.
  size_t NumMembers(Side s) const { return lists_[SideIndex(s)].count.size(); }

  /// Non-neighbours of member `j` of side `s` (j indexes h.SideSet(s)),
  /// as ascending indices into h.SideSet(Opposite(s)).
  std::span<const uint32_t> Of(Side s, size_t j) const {
    const Lists& l = lists_[SideIndex(s)];
    return {l.flat.data() + j * l.stride, l.count[j]};
  }

 private:
  /// Fixed-stride lists: member j's entries are
  /// flat[j·stride, j·stride + count[j]), stride = min(k, |opposite side|).
  struct Lists {
    size_t stride = 0;
    std::vector<uint32_t> count;
    std::vector<uint32_t> flat;
  };
  Lists lists_[2];  // [0] = left members, [1] = right members
  bool built_ = false;
};

namespace internal {
class AlmostSatEnumerator;
}  // namespace internal

/// Step 3 of left-anchored, right-shrinking traversal on the local solution
/// L = (A \ Ā ∪ {v}, B_keep ∪ B'') being reported, decided from H's
/// non-adjacency record and the enumerator's marks instead of an adjacency
/// sweep over L. Each answer equals MaximalExtender's on L (same graph and
/// k). Candidates are drawn from one member of L at its budget (it must be
/// neighboured) or, with none at budget, from the k + 1 lowest-degree
/// members of the side that bounds them (pigeonhole). Only when that side
/// has k members or fewer is every outsider a candidate, a case counted in
/// EnumAlmostSatStats::step3_sweeps: the test then answers from |B'| and
/// the extension accepts outsiders in ascending order until a member of
/// B' reaches its budget. Valid only during the callback it is passed to;
/// not thread-safe (it uses the workspace's scratch).
class LocalStep3 {
 public:
  /// L itself, assembled on first use (valid during the callback). The
  /// queries below do not need it.
  const Biplex& Solution() const;

  /// Algorithm 2, line 7: true iff some vertex of B's side outside L can
  /// join L, i.e. MaximalExtender::AnyAddable(L, opposite side).
  bool OppositeAddable() const;

  /// Algorithm 2, line 8: grows L on the anchored side exactly as
  /// MaximalExtender::Extend would, writes the result to `*out` and
  /// returns the anchored vertices it added, ascending (valid until the
  /// next call). With EnumAlmostSatOptions::excluded_anchored set, the
  /// greedy extension stops at the first vertex it accepts that is
  /// marked: the list then holds the full extension's additions up to and
  /// including that vertex, and `*out` is not written.
  std::span<const VertexId> ExtendAnchored(Biplex* out) const;

 private:
  friend class internal::AlmostSatEnumerator;
  explicit LocalStep3(internal::AlmostSatEnumerator* e) : e_(e) {}
  internal::AlmostSatEnumerator* e_;
};

/// Reusable scratch buffers of one EnumAlmostSat invocation. The traversal
/// engines call EnumAlmostSat once per candidate vertex — thousands of
/// times per second — and each call needs ~15 scratch vectors; routing the
/// calls through one caller-owned workspace keeps the buffers' heap
/// capacity alive across calls so steady state allocates nothing.
/// A workspace may be reused freely between calls but never concurrently.
struct EnumAlmostSatWorkspace {
  BiplexNonAdjacency non_adjacency;   // per-call record when none is given
  std::vector<char> v_adj_b;          // v adjacent to B[i]?
  std::vector<char> in_bpp;           // B[i] ∈ B'' (current B'' choice)?
  std::vector<char> in_abar;          // A[j] ∈ Ā (current removal set)?
  std::vector<size_t> b1, b2;         // indices into B
  std::vector<size_t> bpp2;           // B''_2, indices into B
  std::vector<size_t> a_remo;         // indices into A
  std::vector<size_t> abar;           // removal set, indices into A
  std::vector<size_t> excluded_a_idx; // excluded members of A (indices)
  std::vector<size_t> req;            // forced removals (indices into A)
  std::vector<size_t> rest;           // a_remo minus req
  std::vector<size_t> merged;         // merge scratch for abar ∪ req
  std::vector<size_t> comb1, comb2;   // B''_1 / B''_2 combinations (into B1/B2)
  BoundedSubsetEnumerator removal_sets;  // removal sets of one B'' choice
  Biplex loc;                         // LocalStep3::Solution() buffer
  // LocalStep3 scratch. marks[s] holds per-vertex flags of side s (H's
  // members and v, the local solution, members at their budget); it is
  // set when a call reports its first local solution to a
  // LocalStep3Callback, and all zero between calls.
  std::vector<uint32_t> marks[2];
  std::vector<uint32_t> full_a;      // A-members with k_A record entries
  std::vector<uint32_t> full_b;      // B-members that can reach k_B in L
  std::vector<VertexId> bound_list;  // members flagged at their budget
  std::vector<VertexId> b_prime;     // B' during an anchored extension
  std::vector<uint32_t> disc_b;      // δ̄(b_prime[p], anchored side)
  std::vector<VertexId> pool;        // pigeonhole members, ascending degree
  std::vector<VertexId> outsiders;   // outsiders of one neighbour list
  std::vector<VertexId> candidates;  // candidates of one Step-3 query
  std::vector<VertexId> added;       // anchored vertices ExtendAnchored added
};

/// Configuration of one EnumAlmostSat invocation.
struct EnumAlmostSatOptions {
  LRefinement l_variant = LRefinement::kL20;
  RRefinement r_variant = RRefinement::kR20;
  /// Large-MBP local-solution pruning (Section 5): skip B' subsets with
  /// fewer than `min_b_size` vertices. 0 disables the prune.
  size_t min_b_size = 0;
  /// Optional soft deadline polled during the subset enumeration; when it
  /// expires the call aborts and returns false, exactly as if the callback
  /// had requested a stop. Not owned; may be null.
  const Deadline* deadline = nullptr;
  /// Optional exclusion filter on the anchored side (bits indexed by
  /// vertex id of v's side): local solutions retaining a marked A-member
  /// are never produced. Used by the traversal engine's exclusion strategy
  /// to avoid enumerating local solutions it would discard anyway —
  /// removal sets are forced to cover every marked member — and by
  /// LocalStep3::ExtendAnchored to stop at its first marked addition.
  /// Not owned.
  const DynamicBitset* excluded_anchored = nullptr;
  /// Optional caller-owned scratch buffers reused across invocations;
  /// when null each call allocates its own. Not owned.
  EnumAlmostSatWorkspace* workspace = nullptr;
  /// Optional non-adjacency record of `h`, shared by the calls on one H
  /// (the traversal engine keeps one per recursion frame). A call builds
  /// it when it is not built yet; the caller must Clear() it when H
  /// changes. When null, each call builds H's record in the workspace.
  /// Not owned.
  BiplexNonAdjacency* non_adjacency = nullptr;
};

/// Work counters for one or more invocations.
struct EnumAlmostSatStats {
  uint64_t b_subsets = 0;        // B'' candidate subsets examined
  uint64_t a_subsets = 0;        // removal sets examined
  uint64_t local_solutions = 0;  // local solutions reported
  /// Adjacency pairs resolved: |A|·|B| per non-adjacency record built,
  /// plus |B| per call for the merge of Γ(v) with B.
  uint64_t adjacency_tests = 0;
  /// LocalStep3 queries whose bounding side had k members or fewer, so
  /// that every outsider was a candidate (see LocalStep3).
  uint64_t step3_sweeps = 0;
};

/// Receives each local solution; returns false to stop the enumeration.
/// The Biplex reference is only valid for the duration of the call — the
/// enumerator assembles every local solution in a reused workspace
/// buffer — so a callback that keeps a solution must copy it. A
/// non-owning reference: the callable must outlive the EnumAlmostSat call.
using LocalSolutionCallback = FunctionRef<bool(const Biplex&)>;

/// A local-solution callback that receives the Step-3 view of the reported
/// solution instead of the solution itself, so a callback that decides
/// from the view alone never pays for assembling it (same lifetime rules).
using LocalStep3Callback = FunctionRef<bool(const LocalStep3&)>;

/// Enumerates all local solutions within the almost-satisfying graph
/// (A ∪ {v}, B), where `h` is a k-biplex of `g`, A = h's side `v_side`,
/// B = the opposite side, and `v` (on side `v_side`) is not in A. Every
/// reported Biplex contains v on side `v_side`. Throws std::logic_error
/// when `h` is not a k-biplex (see BiplexNonAdjacency::Build), or when
/// `opts.non_adjacency` is a built record of a different H. The
/// LocalStep3Callback form hands the callback each solution's Step-3 view
/// instead of the solution.
///
/// Returns false iff the callback requested a stop.
bool EnumAlmostSat(const BipartiteGraph& g, const Biplex& h, Side v_side,
                   VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                   LocalSolutionCallback cb,
                   EnumAlmostSatStats* stats = nullptr);
bool EnumAlmostSat(const BipartiteGraph& g, const Biplex& h, Side v_side,
                   VertexId v, KPair k, const EnumAlmostSatOptions& opts,
                   LocalStep3Callback cb, EnumAlmostSatStats* stats = nullptr);
inline bool EnumAlmostSat(const BipartiteGraph& g, const Biplex& h,
                          Side v_side, VertexId v, int k,
                          const EnumAlmostSatOptions& opts,
                          LocalSolutionCallback cb,
                          EnumAlmostSatStats* stats = nullptr) {
  return EnumAlmostSat(g, h, v_side, v, KPair::Uniform(k), opts, cb, stats);
}

}  // namespace kbiplex

#endif  // KBIPLEX_CORE_ENUM_ALMOST_SAT_H_
