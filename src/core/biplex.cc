#include "core/biplex.h"

#include <algorithm>

namespace kbiplex {
namespace {

void AppendBigEndian(std::string* out, uint32_t x) {
  out->push_back(static_cast<char>((x >> 24) & 0xff));
  out->push_back(static_cast<char>((x >> 16) & 0xff));
  out->push_back(static_cast<char>((x >> 8) & 0xff));
  out->push_back(static_cast<char>(x & 0xff));
}

// MaximalExtender scratch encodings: member flag in the connection
// counters of the side being grown or tested (counts stay below it), and
// the marks on opposite members in AnyAddable.
constexpr uint32_t kMemberBit = uint32_t{1} << 31;
constexpr uint32_t kSlack = 1;
constexpr uint32_t kSlackless = 2;

}  // namespace

std::string EncodeBiplexKey(const Biplex& b) {
  std::string key;
  key.reserve(4 * (1 + b.left.size() + b.right.size()));
  AppendBigEndian(&key, static_cast<uint32_t>(b.left.size()));
  for (VertexId v : b.left) AppendBigEndian(&key, v);
  for (VertexId u : b.right) AppendBigEndian(&key, u);
  return key;
}

bool IsKBiplex(const BipartiteGraph& g, const Biplex& b, KPair k) {
  for (VertexId v : b.left) {
    if (g.DiscCount(Side::kLeft, v, b.right) >
        static_cast<size_t>(k.left)) {
      return false;
    }
  }
  for (VertexId u : b.right) {
    if (g.DiscCount(Side::kRight, u, b.left) >
        static_cast<size_t>(k.right)) {
      return false;
    }
  }
  return true;
}

bool CanAdd(const BipartiteGraph& g, const Biplex& b, Side side, VertexId v,
            KPair k) {
  const size_t own_budget = static_cast<size_t>(k.ForSide(side));
  const size_t other_budget =
      static_cast<size_t>(k.ForSide(Opposite(side)));
  const std::vector<VertexId>& same = b.SideSet(side);
  const std::vector<VertexId>& other = b.SideSet(Opposite(side));
  if (sorted::Contains(same, v)) return false;  // already a member
  if (g.DiscCount(side, v, other) > own_budget) return false;
  // Every opposite member newly disconnected (from v) must tolerate one
  // more disconnection.
  for (VertexId u : other) {
    if (g.IsAdjacent(side, v, u)) continue;
    if (g.DiscCount(Opposite(side), u, same) + 1 > other_budget) {
      return false;
    }
  }
  return true;
}

bool IsMaximalKBiplex(const BipartiteGraph& g, const Biplex& b, KPair k) {
  if (!IsKBiplex(g, b, k)) return false;
  MaximalExtender extender(g, k);
  return !extender.AnyAddable(b, Side::kLeft) &&
         !extender.AnyAddable(b, Side::kRight);
}

MaximalExtender::MaximalExtender(const BipartiteGraph& g, KPair k)
    : g_(g), k_(k) {
  for (Side s : {Side::kLeft, Side::kRight}) {
    conn_count_[SideIndex(s)].assign(g.NumOnSide(s), 0);
    tight_count_[SideIndex(s)].assign(g.NumOnSide(s), 0);
  }
}

bool MaximalExtender::AnyAddable(const Biplex& b, Side side) const {
  const Side opp = Opposite(side);
  const std::vector<VertexId>& same = b.SideSet(side);
  const std::vector<VertexId>& other = b.SideSet(opp);
  const size_t own_budget = static_cast<size_t>(k_.ForSide(side));
  const size_t other_budget = static_cast<size_t>(k_.ForSide(opp));
  std::vector<uint32_t>& cc = conn_count_[SideIndex(side)];
  std::vector<uint32_t>& mark = conn_count_[SideIndex(opp)];

  // One sweep over the opposite members' lists, with the members of
  // `same` flagged, marks each opposite member slack or slackless. A
  // slackless member (already at its budget) blocks every candidate it is
  // disconnected from, so candidates must be neighbors of all of them.
  for (VertexId x : same) cc[x] = kMemberBit;
  VertexId tightest = kInvalidVertex;  // slackless member of min degree
  uint32_t num_slackless = 0;
  for (VertexId u : other) {
    uint32_t conn_same = 0;
    for (VertexId w : g_.Neighbors(opp, u)) {
      conn_same += (cc[w] & kMemberBit) != 0;
    }
    if (same.size() - conn_same < other_budget) {
      mark[u] = kSlack;
      continue;
    }
    mark[u] = kSlackless;
    ++num_slackless;
    if (tightest == kInvalidVertex ||
        g_.Degree(opp, u) < g_.Degree(opp, tightest)) {
      tightest = u;
    }
  }

  bool found = false;
  if (num_slackless > 0) {
    // Candidates are restricted to Γ(tightest); each is tested over its
    // own list against the marks.
    for (VertexId v : g_.Neighbors(opp, tightest)) {
      if (cc[v] & kMemberBit) continue;
      size_t conn = 0;
      uint32_t conn_slackless = 0;
      for (VertexId u : g_.Neighbors(side, v)) {
        conn += mark[u] != 0;
        conn_slackless += mark[u] == kSlackless;
      }
      if (other.size() - conn <= own_budget &&
          conn_slackless == num_slackless) {
        found = true;
        break;
      }
    }
  } else if (other.size() <= own_budget) {
    // No member is slackless and any non-member passes its own budget.
    found = same.size() < g_.NumOnSide(side);
  } else {
    // No member is slackless: the first non-member reaching the
    // connection lower bound |other| - k joins. Members carry kMemberBit,
    // so their counters never equal `need`.
    const size_t need = other.size() - own_budget;
    touched_.clear();
    for (VertexId u : other) {
      for (VertexId w : g_.Neighbors(opp, u)) {
        if (cc[w] == 0) touched_.push_back(w);
        if (++cc[w] == need) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    for (VertexId w : touched_) cc[w] = 0;
  }
  for (VertexId x : same) cc[x] = 0;
  for (VertexId u : other) mark[u] = 0;
  return found;
}

void MaximalExtender::ExtendSide(Biplex* b, Side side) const {
  const Side opp = Opposite(side);
  std::vector<VertexId>& same = b->MutableSideSet(side);
  const std::vector<VertexId>& other = b->SideSet(opp);
  const size_t own_budget = static_cast<size_t>(k_.ForSide(side));
  const uint32_t other_budget = static_cast<uint32_t>(k_.ForSide(opp));
  std::vector<uint32_t>& cc = conn_count_[SideIndex(side)];
  std::vector<uint32_t>& tc = tight_count_[SideIndex(side)];
  std::vector<uint32_t>& mark = conn_count_[SideIndex(opp)];

  // One sweep over the opposite members' lists, with the members of
  // `same` flagged, yields cc[w] = |Γ(w) ∩ other| for every non-member w
  // it reaches and each opposite member's disconnections within `same`.
  // `other` is fixed during this pass (only `same` grows).
  for (VertexId x : same) cc[x] = kMemberBit;
  touched_.clear();
  disc_.resize(other.size());
  for (size_t i = 0; i < other.size(); ++i) {
    uint32_t conn_same = 0;
    for (VertexId w : g_.Neighbors(opp, other[i])) {
      if (cc[w] == 0) touched_.push_back(w);
      conn_same += (cc[w] & kMemberBit) != 0;
      ++cc[w];
    }
    disc_[i] = static_cast<uint32_t>(same.size()) - conn_same;
  }

  // Members already at their budget are "tight": a candidate is addable
  // iff its own budget fits and it connects every tight member, i.e.
  // tc[v] == num_tight.
  uint32_t num_tight = 0;
  auto make_tight = [&](VertexId u) {
    ++num_tight;
    for (VertexId w : g_.Neighbors(opp, u)) ++tc[w];
  };
  for (size_t i = 0; i < other.size(); ++i) {
    if (disc_[i] == other_budget) make_tight(other[i]);
  }

  // Candidates in ascending order; an accepted vertex raises the
  // disconnections of the members outside its (marked) neighborhood.
  added_.clear();
  auto consider = [&](VertexId v) {
    if (tc[v] != num_tight) return;
    added_.push_back(v);
    for (VertexId u : g_.Neighbors(side, v)) mark[u] = 1;
    for (size_t i = 0; i < other.size(); ++i) {
      if (mark[other[i]] == 0 && ++disc_[i] == other_budget) {
        make_tight(other[i]);
      }
    }
    for (VertexId u : g_.Neighbors(side, v)) mark[u] = 0;
  };
  if (other.size() <= own_budget) {
    // Every non-member fits its own budget; scan the side.
    const size_t n = g_.NumOnSide(side);
    for (VertexId v = 0; v < n; ++v) {
      const bool member = (cc[v] & kMemberBit) != 0;
      cc[v] = 0;
      if (!member) consider(v);
    }
  } else {
    // Only non-members with δ(v, other) >= |other| - k fit; all of them
    // were reached by the sweep.
    const size_t need = other.size() - own_budget;
    std::sort(touched_.begin(), touched_.end());
    for (VertexId w : touched_) {
      const uint32_t conn = cc[w];
      cc[w] = 0;
      if (conn >= need) consider(w);
    }
    for (VertexId x : same) cc[x] = 0;
  }
  // Tight members are exactly those ending at their budget.
  for (size_t i = 0; i < other.size(); ++i) {
    if (disc_[i] != other_budget) continue;
    for (VertexId w : g_.Neighbors(opp, other[i])) tc[w] = 0;
  }

  // Merge the (ascending) accepted vertices into `same` from the back.
  size_t i = same.size();
  size_t j = added_.size();
  same.resize(i + j);
  for (size_t out = same.size(); j > 0;) {
    same[--out] = (i > 0 && same[i - 1] > added_[j - 1]) ? same[--i]
                                                          : added_[--j];
  }
}

void MaximalExtender::Extend(Biplex* b, bool grow_left,
                             bool grow_right) const {
  for (Side side : {Side::kLeft, Side::kRight}) {
    if (side == Side::kLeft && !grow_left) continue;
    if (side == Side::kRight && !grow_right) continue;
    ExtendSide(b, side);
  }
}

}  // namespace kbiplex
