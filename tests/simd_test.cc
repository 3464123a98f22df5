// Tests of the runtime-dispatched SIMD kernel tables (util/simd.h): the
// native table must agree with the portable scalar table on every kernel,
// across word counts chosen so vector bodies, partial tails, and
// word-boundary sizes (63/64/65/127/129 bits) are all exercised.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/simd.h"

namespace kbiplex {
namespace {

// Word counts covering the boundary bit sizes 63/64/65/127/129 (1, 2, and
// 3 words) plus sizes long enough to fill AVX2 vector bodies with and
// without scalar tails.
const size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 8, 11, 64, 65};

std::vector<uint64_t> RandomWords(size_t n, Rng* rng) {
  std::vector<uint64_t> w(n);
  for (uint64_t& x : w) x = rng->Next();
  return w;
}

TEST(SimdKernels, TablesAreWellFormed) {
  for (const simd::Kernels* k :
       {&simd::Scalar(), &simd::Native(), &simd::Active()}) {
    ASSERT_NE(k->name, nullptr);
    ASSERT_NE(k->intersect_count, nullptr);
    ASSERT_NE(k->popcount, nullptr);
    ASSERT_NE(k->is_subset, nullptr);
    ASSERT_NE(k->intersects, nullptr);
    ASSERT_NE(k->or_words, nullptr);
    ASSERT_NE(k->and_words, nullptr);
    ASSERT_NE(k->andnot_words, nullptr);
  }
  EXPECT_STREQ(simd::Scalar().name, "scalar");
  // Active is either the native table or the forced scalar table — never
  // something else.
  if (simd::ForcedScalar()) {
    EXPECT_STREQ(simd::Active().name, "scalar");
  } else {
    EXPECT_STREQ(simd::Active().name, simd::Native().name);
  }
}

TEST(SimdKernels, NativeMatchesScalarOnRandomWords) {
  const simd::Kernels& s = simd::Scalar();
  const simd::Kernels& v = simd::Native();
  Rng rng(41);
  for (size_t n : kWordCounts) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<uint64_t> a = RandomWords(n, &rng);
      std::vector<uint64_t> b = RandomWords(n, &rng);
      EXPECT_EQ(v.popcount(a.data(), n), s.popcount(a.data(), n))
          << "n=" << n;
      EXPECT_EQ(v.intersect_count(a.data(), b.data(), n),
                s.intersect_count(a.data(), b.data(), n))
          << "n=" << n;
      EXPECT_EQ(v.is_subset(a.data(), b.data(), n),
                s.is_subset(a.data(), b.data(), n))
          << "n=" << n;
      EXPECT_EQ(v.intersects(a.data(), b.data(), n),
                s.intersects(a.data(), b.data(), n))
          << "n=" << n;

      std::vector<uint64_t> d1 = a;
      std::vector<uint64_t> d2 = a;
      v.or_words(d1.data(), b.data(), n);
      s.or_words(d2.data(), b.data(), n);
      EXPECT_EQ(d1, d2) << "or n=" << n;
      d1 = a;
      d2 = a;
      v.and_words(d1.data(), b.data(), n);
      s.and_words(d2.data(), b.data(), n);
      EXPECT_EQ(d1, d2) << "and n=" << n;
      d1 = a;
      d2 = a;
      v.andnot_words(d1.data(), b.data(), n);
      s.andnot_words(d2.data(), b.data(), n);
      EXPECT_EQ(d1, d2) << "andnot n=" << n;
    }
  }
}

TEST(SimdKernels, SubsetAndIntersectAgreeOnConstructedCases) {
  const simd::Kernels& s = simd::Scalar();
  const simd::Kernels& v = simd::Native();
  Rng rng(42);
  for (size_t n : kWordCounts) {
    if (n == 0) {
      // Empty sets: trivially subsets, never intersecting.
      EXPECT_TRUE(v.is_subset(nullptr, nullptr, 0));
      EXPECT_FALSE(v.intersects(nullptr, nullptr, 0));
      continue;
    }
    // a := b with some bits cleared is always a subset of b; flipping one
    // extra bit on breaks it in exactly one word.
    std::vector<uint64_t> b = RandomWords(n, &rng);
    std::vector<uint64_t> a = b;
    for (uint64_t& x : a) x &= rng.Next();
    EXPECT_TRUE(v.is_subset(a.data(), b.data(), n)) << "n=" << n;
    EXPECT_TRUE(s.is_subset(a.data(), b.data(), n)) << "n=" << n;
    const size_t wi = static_cast<size_t>(rng.NextBelow(n));
    const uint64_t extra = 1ULL << rng.NextBelow(64);
    if ((b[wi] & extra) == 0) {
      a[wi] |= extra;
      EXPECT_FALSE(v.is_subset(a.data(), b.data(), n)) << "n=" << n;
      EXPECT_FALSE(s.is_subset(a.data(), b.data(), n)) << "n=" << n;
    }
    // Disjoint words never intersect.
    std::vector<uint64_t> c(n);
    for (size_t i = 0; i < n; ++i) c[i] = ~b[i];
    EXPECT_FALSE(v.intersects(c.data(), b.data(), n)) << "n=" << n;
    EXPECT_FALSE(s.intersects(c.data(), b.data(), n)) << "n=" << n;
  }
}

}  // namespace
}  // namespace kbiplex
