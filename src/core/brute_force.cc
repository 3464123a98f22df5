#include "core/brute_force.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace kbiplex {
namespace {

/// Adjacency of a small graph as 32-bit masks.
struct MaskGraph {
  std::vector<uint32_t> left_adj;   // per left vertex: mask of right nbrs
  std::vector<uint32_t> right_adj;  // per right vertex: mask of left nbrs
};

MaskGraph BuildMasks(const BipartiteGraph& g) {
  MaskGraph m;
  m.left_adj.assign(g.NumLeft(), 0);
  m.right_adj.assign(g.NumRight(), 0);
  for (VertexId l = 0; l < g.NumLeft(); ++l) {
    for (VertexId r : g.LeftNeighbors(l)) {
      m.left_adj[l] |= 1u << r;
      m.right_adj[r] |= 1u << l;
    }
  }
  return m;
}

bool MaskIsKBiplex(const MaskGraph& m, uint32_t lmask, uint32_t rmask,
                   KPair k) {
  for (uint32_t bits = lmask; bits != 0; bits &= bits - 1) {
    const int v = std::countr_zero(bits);
    if (std::popcount(rmask & ~m.left_adj[static_cast<size_t>(v)]) >
        k.left) {
      return false;
    }
  }
  for (uint32_t bits = rmask; bits != 0; bits &= bits - 1) {
    const int u = std::countr_zero(bits);
    if (std::popcount(lmask & ~m.right_adj[static_cast<size_t>(u)]) >
        k.right) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Biplex> BruteForceMaximalBiplexes(const BipartiteGraph& g,
                                              KPair k) {
  return BruteForceMaximalBiplexesMaskRange(g, k, nullptr, nullptr, nullptr,
                                            0, uint64_t{1} << g.NumLeft());
}

std::vector<Biplex> BruteForceMaximalBiplexesMaskRange(
    const BipartiteGraph& g, KPair k, const Deadline* deadline,
    const CancellationToken* cancel, bool* completed, uint64_t lmask_begin,
    uint64_t lmask_end) {
  const size_t nl = g.NumLeft();
  const size_t nr = g.NumRight();
  assert(nl <= 20 && nr <= 20);
  lmask_end = std::min(lmask_end, uint64_t{1} << nl);
  const MaskGraph m = BuildMasks(g);
  if (completed != nullptr) *completed = true;

  std::vector<Biplex> out;
  uint64_t visited = 0;
  for (uint64_t lmask64 = lmask_begin; lmask64 < lmask_end; ++lmask64) {
    const uint32_t lmask = static_cast<uint32_t>(lmask64);
    for (uint32_t rmask = 0; rmask < (1u << nr); ++rmask) {
      if ((++visited & 0xffffu) == 0 &&
          ((deadline != nullptr && deadline->Expired()) ||
           Cancelled(cancel))) {
        if (completed != nullptr) *completed = false;
        std::sort(out.begin(), out.end());
        return out;
      }
      if (!MaskIsKBiplex(m, lmask, rmask, k)) continue;
      // Maximality: by the hereditary property it suffices that no single
      // vertex can be added.
      bool maximal = true;
      for (size_t v = 0; v < nl && maximal; ++v) {
        if ((lmask >> v) & 1u) continue;
        if (MaskIsKBiplex(m, lmask | (1u << v), rmask, k)) maximal = false;
      }
      for (size_t u = 0; u < nr && maximal; ++u) {
        if ((rmask >> u) & 1u) continue;
        if (MaskIsKBiplex(m, lmask, rmask | (1u << u), k)) maximal = false;
      }
      if (!maximal) continue;
      Biplex b;
      for (uint32_t bits = lmask; bits != 0; bits &= bits - 1) {
        b.left.push_back(static_cast<VertexId>(std::countr_zero(bits)));
      }
      for (uint32_t bits = rmask; bits != 0; bits &= bits - 1) {
        b.right.push_back(static_cast<VertexId>(std::countr_zero(bits)));
      }
      out.push_back(std::move(b));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Biplex> FilterBySize(const std::vector<Biplex>& solutions,
                                 size_t theta_left, size_t theta_right) {
  std::vector<Biplex> out;
  for (const Biplex& b : solutions) {
    if (b.left.size() >= theta_left && b.right.size() >= theta_right) {
      out.push_back(b);
    }
  }
  return out;
}

}  // namespace kbiplex
