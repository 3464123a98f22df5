// Common small types and sorted-vector helpers shared across the library.
#ifndef KBIPLEX_UTIL_COMMON_H_
#define KBIPLEX_UTIL_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace kbiplex {

/// Vertex identifier. Left and right vertices of a bipartite graph live in
/// separate id spaces, each starting at 0.
using VertexId = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// Which side of the bipartite graph a vertex belongs to.
enum class Side : uint8_t { kLeft = 0, kRight = 1 };

/// Returns the opposite side.
inline Side Opposite(Side s) {
  return s == Side::kLeft ? Side::kRight : Side::kLeft;
}

/// 0 for the left side, 1 for the right: the index of per-side arrays.
inline size_t SideIndex(Side s) { return s == Side::kLeft ? 0 : 1; }

/// Sorted-vector set algebra. All functions below require their inputs to be
/// sorted ascending and duplicate-free; outputs preserve that invariant.
namespace sorted {

/// Below this size a predictable early-exit linear pass beats the
/// branch-mispredicting binary search. Member sets in the enumeration
/// recursion are mostly tiny, so this is the common case.
inline constexpr size_t kLinearScanMax = 16;

/// True iff `x` occurs in sorted vector `v`.
inline bool Contains(const std::vector<VertexId>& v, VertexId x) {
  if (v.size() <= kLinearScanMax) {
    for (VertexId y : v) {
      if (y >= x) return y == x;
    }
    return false;
  }
  return std::binary_search(v.begin(), v.end(), x);
}

/// Number of elements common to `a` and `b`.
inline size_t IntersectionSize(const std::vector<VertexId>& a,
                               const std::vector<VertexId>& b) {
  size_t n = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

/// Set intersection `a ∩ b`.
inline std::vector<VertexId> Intersect(const std::vector<VertexId>& a,
                                       const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Set union `a ∪ b`.
inline std::vector<VertexId> Union(const std::vector<VertexId>& a,
                                   const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Set difference `a \ b`.
inline std::vector<VertexId> Difference(const std::vector<VertexId>& a,
                                        const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// True iff `a ⊆ b`.
inline bool IsSubset(const std::vector<VertexId>& a,
                     const std::vector<VertexId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Inserts `x` into sorted vector `v` if absent. Returns true if inserted.
inline bool Insert(std::vector<VertexId>* v, VertexId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) return false;
  v->insert(it, x);
  return true;
}

/// Removes `x` from sorted vector `v` if present. Returns true if removed.
inline bool Erase(std::vector<VertexId>* v, VertexId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it == v->end() || *it != x) return false;
  v->erase(it);
  return true;
}

}  // namespace sorted
}  // namespace kbiplex

#endif  // KBIPLEX_UTIL_COMMON_H_
