#include "util/simd.h"

#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KBIPLEX_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define KBIPLEX_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace kbiplex {
namespace simd {
namespace {

// ----------------------------------------------------------- scalar ------
// The portable word loops: exactly the pre-SIMD library code, kept as the
// semantic reference every vector kernel must agree with bit for bit.

size_t ScalarIntersectCount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

size_t ScalarPopcount(const uint64_t* w, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(w[i]));
  }
  return count;
}

bool ScalarIsSubset(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] & ~b[i]) return false;
  }
  return true;
}

bool ScalarIntersects(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

void ScalarOr(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

void ScalarAnd(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= src[i];
}

void ScalarAndNot(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

constexpr Kernels kScalar = {
    "scalar",      ScalarIntersectCount, ScalarPopcount, ScalarIsSubset,
    ScalarIntersects, ScalarOr,          ScalarAnd,      ScalarAndNot,
};

// ------------------------------------------------------------- AVX2 ------
// Compiled with a per-function target attribute so the rest of the
// library keeps the baseline ISA; only ever called after the cpuid check.
#if defined(KBIPLEX_SIMD_X86)

/// Per-byte popcount via two 16-entry nibble lookups (Mula's method),
/// then a horizontal byte sum into the four 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline size_t HorizontalSum(__m256i acc) {
  return static_cast<size_t>(_mm256_extract_epi64(acc, 0)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 1)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 2)) +
         static_cast<size_t>(_mm256_extract_epi64(acc, 3));
}

__attribute__((target("avx2"))) size_t Avx2IntersectCount(const uint64_t* a,
                                                          const uint64_t* b,
                                                          size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

__attribute__((target("avx2"))) size_t Avx2Popcount(const uint64_t* w,
                                                    size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, Popcount256(_mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(w + i))));
  }
  size_t count = HorizontalSum(acc);
  for (; i < n; ++i) count += static_cast<size_t>(std::popcount(w[i]));
  return count;
}

__attribute__((target("avx2"))) bool Avx2IsSubset(const uint64_t* a,
                                                  const uint64_t* b,
                                                  size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    // vptest: ZF set iff (va & ~vb) == 0.
    if (!_mm256_testc_si256(vb, va)) return false;
  }
  for (; i < n; ++i) {
    if (a[i] & ~b[i]) return false;
  }
  return true;
}

__attribute__((target("avx2"))) bool Avx2Intersects(const uint64_t* a,
                                                    const uint64_t* b,
                                                    size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  for (; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

__attribute__((target("avx2"))) void Avx2Or(uint64_t* dst,
                                            const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i* d = reinterpret_cast<__m256i*>(dst + i);
    const __m256i vs = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(d, _mm256_or_si256(_mm256_loadu_si256(d), vs));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

__attribute__((target("avx2"))) void Avx2And(uint64_t* dst,
                                             const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i* d = reinterpret_cast<__m256i*>(dst + i);
    const __m256i vs = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(d, _mm256_and_si256(_mm256_loadu_si256(d), vs));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

__attribute__((target("avx2"))) void Avx2AndNot(uint64_t* dst,
                                                const uint64_t* src,
                                                size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i* d = reinterpret_cast<__m256i*>(dst + i);
    const __m256i vs = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(src + i));
    // vpandn computes ~first & second.
    _mm256_storeu_si256(d, _mm256_andnot_si256(vs, _mm256_loadu_si256(d)));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

constexpr Kernels kAvx2 = {
    "avx2",        Avx2IntersectCount, Avx2Popcount, Avx2IsSubset,
    Avx2Intersects, Avx2Or,            Avx2And,      Avx2AndNot,
};

#endif  // KBIPLEX_SIMD_X86

// ------------------------------------------------------------- NEON ------
// NEON is part of the AArch64 baseline, so no runtime detection is
// needed; the kernels are plain intrinsics.
#if defined(KBIPLEX_SIMD_NEON)

inline size_t NeonPopcount128(uint64x2_t v) {
  // vcnt counts per byte; the pairwise-add ladder folds bytes to a u64.
  const uint8x16_t bytes = vcntq_u8(vreinterpretq_u8_u64(v));
  return static_cast<size_t>(vaddvq_u8(bytes));
}

size_t NeonIntersectCount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    count += NeonPopcount128(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

size_t NeonPopcountWords(const uint64_t* w, size_t n) {
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) count += NeonPopcount128(vld1q_u64(w + i));
  for (; i < n; ++i) count += static_cast<size_t>(std::popcount(w[i]));
  return count;
}

bool NeonIsSubset(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t stray = vbicq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    if ((vgetq_lane_u64(stray, 0) | vgetq_lane_u64(stray, 1)) != 0) {
      return false;
    }
  }
  for (; i < n; ++i) {
    if (a[i] & ~b[i]) return false;
  }
  return true;
}

bool NeonIntersects(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t both = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    if ((vgetq_lane_u64(both, 0) | vgetq_lane_u64(both, 1)) != 0) {
      return true;
    }
  }
  for (; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

void NeonOr(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] |= src[i];
}

void NeonAnd(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] &= src[i];
}

void NeonAndNot(uint64_t* dst, const uint64_t* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vbicq_u64(vld1q_u64(dst + i), vld1q_u64(src + i)));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

constexpr Kernels kNeon = {
    "neon",        NeonIntersectCount, NeonPopcountWords, NeonIsSubset,
    NeonIntersects, NeonOr,            NeonAnd,           NeonAndNot,
};

#endif  // KBIPLEX_SIMD_NEON

// --------------------------------------------------------- dispatch ------

const Kernels* DetectNative() {
#if defined(KBIPLEX_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
#if defined(KBIPLEX_SIMD_NEON)
  return &kNeon;
#endif
  return &kScalar;
}

bool ScalarForcedByEnvironment() {
#if defined(KBIPLEX_FORCE_SCALAR)
  return true;
#else
  const char* v = std::getenv("KBIPLEX_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
#endif
}

/// The one-time selection: function-local statics give the thread-safe
/// initialize-once semantics (same publication pattern as std::call_once).
struct Selection {
  const Kernels* native = DetectNative();
  bool forced = ScalarForcedByEnvironment();
  const Kernels* active = forced ? &kScalar : native;
};

const Selection& GetSelection() {
  static const Selection selection;
  return selection;
}

}  // namespace

const Kernels& Scalar() { return kScalar; }

const Kernels& Native() { return *GetSelection().native; }

const Kernels& Active() { return *GetSelection().active; }

bool ForcedScalar() { return GetSelection().forced; }

}  // namespace simd
}  // namespace kbiplex
