// Runtime-dispatched SIMD kernels for the word-loop primitives behind
// DynamicBitset: intersection popcounts, subset/overlap tests, and bulk
// bitwise operators. The inner loops are worth vectorizing — but
// correctness must never depend on the host CPU, so every kernel has a
// portable scalar implementation and the dispatch happens exactly once,
// at first use:
//
//   - x86-64 with AVX2 (detected via cpuid at startup): 256-bit kernels,
//     nibble-LUT popcount.
//   - AArch64: NEON kernels (NEON is baseline on AArch64, no detection
//     needed) with vcnt-based popcount.
//   - everything else, or when forced: the portable scalar word loops.
//
// Forcing the scalar path — for A/B benchmarking and for the CI job that
// diffs scalar vs native enumeration output — works two ways:
//   - at build time: compile with -DKBIPLEX_FORCE_SCALAR;
//   - at run time: set the KBIPLEX_FORCE_SCALAR environment variable to
//     anything but "0" or the empty string before the first kernel call.
//
// Callers hold the selected table by reference (simd::Active()) or go
// through the convenience wrappers below; tests can pin either table
// explicitly (simd::Scalar(), simd::Native()) to prove both agree.
#ifndef KBIPLEX_UTIL_SIMD_H_
#define KBIPLEX_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace kbiplex {
namespace simd {

/// One implementation of the word-loop primitives. All pointers may be
/// null only when the word count `n` is zero; buffers never alias unless
/// the kernel writes in place (the bitwise operators' destination).
struct Kernels {
  /// Human-readable implementation name ("scalar", "avx2", "neon").
  const char* name;

  /// popcount(a & b) over `n` words, without materializing the AND.
  size_t (*intersect_count)(const uint64_t* a, const uint64_t* b, size_t n);

  /// popcount over `n` words.
  size_t (*popcount)(const uint64_t* w, size_t n);

  /// True iff (a & ~b) == 0 over `n` words (a is a subset of b).
  bool (*is_subset)(const uint64_t* a, const uint64_t* b, size_t n);

  /// True iff (a & b) != 0 for some word (the sets overlap).
  bool (*intersects)(const uint64_t* a, const uint64_t* b, size_t n);

  /// dst |= src, dst &= src, dst &= ~src over `n` words.
  void (*or_words)(uint64_t* dst, const uint64_t* src, size_t n);
  void (*and_words)(uint64_t* dst, const uint64_t* src, size_t n);
  void (*andnot_words)(uint64_t* dst, const uint64_t* src, size_t n);
};

/// The portable scalar implementation (always available).
const Kernels& Scalar();

/// The best implementation the build and CPU support, ignoring the
/// KBIPLEX_FORCE_SCALAR override. Equals Scalar() on hosts without SIMD.
const Kernels& Native();

/// The table every production caller uses: Native(), unless scalar was
/// forced at build or run time (see the header comment). Selected once;
/// later environment changes have no effect.
const Kernels& Active();

/// True iff Active() resolved to the scalar table because of the build
/// define or the KBIPLEX_FORCE_SCALAR environment variable.
bool ForcedScalar();

}  // namespace simd
}  // namespace kbiplex

#endif  // KBIPLEX_UTIL_SIMD_H_
