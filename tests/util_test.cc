#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena_pool.h"
#include "util/common.h"
#include "util/dynamic_bitset.h"
#include "util/random.h"
#include "util/subset_enum.h"
#include "util/table.h"
#include "util/timer.h"

namespace kbiplex {
namespace {

// ---------------------------------------------------------------- sorted --

TEST(SortedOps, Contains) {
  std::vector<VertexId> v = {1, 3, 5, 9};
  EXPECT_TRUE(sorted::Contains(v, 1));
  EXPECT_TRUE(sorted::Contains(v, 9));
  EXPECT_FALSE(sorted::Contains(v, 0));
  EXPECT_FALSE(sorted::Contains(v, 4));
  EXPECT_FALSE(sorted::Contains({}, 4));
}

TEST(SortedOps, ContainsAgreesAcrossTheLinearScanThreshold) {
  // Sizes straddling kLinearScanMax: both code paths must agree with a
  // reference binary search on every probe.
  constexpr size_t kThreshold = sorted::kLinearScanMax;
  for (size_t n :
       {kThreshold - 1, kThreshold, kThreshold + 1, 4 * kThreshold}) {
    std::vector<VertexId> v;
    for (size_t i = 0; i < n; ++i) v.push_back(static_cast<VertexId>(3 * i));
    for (VertexId probe = 0; probe <= static_cast<VertexId>(3 * n); ++probe) {
      EXPECT_EQ(sorted::Contains(v, probe),
                std::binary_search(v.begin(), v.end(), probe))
          << "n=" << n << " probe=" << probe;
    }
  }
}

TEST(SortedOps, IntersectionSize) {
  EXPECT_EQ(sorted::IntersectionSize({1, 2, 3}, {2, 3, 4}), 2u);
  EXPECT_EQ(sorted::IntersectionSize({1, 2, 3}, {4, 5}), 0u);
  EXPECT_EQ(sorted::IntersectionSize({}, {1}), 0u);
}

TEST(SortedOps, SetAlgebra) {
  std::vector<VertexId> a = {1, 2, 5};
  std::vector<VertexId> b = {2, 3, 5, 7};
  EXPECT_EQ(sorted::Intersect(a, b), (std::vector<VertexId>{2, 5}));
  EXPECT_EQ(sorted::Union(a, b), (std::vector<VertexId>{1, 2, 3, 5, 7}));
  EXPECT_EQ(sorted::Difference(a, b), (std::vector<VertexId>{1}));
  EXPECT_TRUE(sorted::IsSubset({2, 5}, b));
  EXPECT_FALSE(sorted::IsSubset({2, 4}, b));
  EXPECT_TRUE(sorted::IsSubset({}, b));
}

TEST(SortedOps, InsertErase) {
  std::vector<VertexId> v = {2, 4};
  EXPECT_TRUE(sorted::Insert(&v, 3));
  EXPECT_EQ(v, (std::vector<VertexId>{2, 3, 4}));
  EXPECT_FALSE(sorted::Insert(&v, 3));
  EXPECT_TRUE(sorted::Erase(&v, 2));
  EXPECT_EQ(v, (std::vector<VertexId>{3, 4}));
  EXPECT_FALSE(sorted::Erase(&v, 2));
}

// ------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
  // Every residue appears eventually.
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, SampleDistinctSparse) {
  Rng rng(11);
  auto sample = rng.SampleDistinct(1000000, 100);
  EXPECT_EQ(sample.size(), 100u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  EXPECT_EQ(std::set<uint64_t>(sample.begin(), sample.end()).size(), 100u);
  for (uint64_t x : sample) EXPECT_LT(x, 1000000u);
}

TEST(Rng, SampleDistinctDense) {
  Rng rng(13);
  auto sample = rng.SampleDistinct(50, 50);
  EXPECT_EQ(sample.size(), 50u);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// --------------------------------------------------------- DynamicBitset --

// Every kept operation against a bit-by-bit reference, at sizes on both
// sides of the word boundaries (63/64/65/127/129) and the empty bitset.
TEST(DynamicBitset, KeptOpsAgreeWithBitReference) {
  Rng rng(78);
  for (size_t bits : {0u, 63u, 64u, 65u, 127u, 129u}) {
    DynamicBitset b(bits);
    std::vector<bool> ref(bits, false);
    auto expect_matches = [&](const DynamicBitset& got,
                              const std::vector<bool>& want) {
      ASSERT_EQ(got.size(), want.size()) << "bits=" << bits;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.Test(i), want[i]) << "bits=" << bits << " bit=" << i;
      }
      EXPECT_EQ(got.Count(),
                static_cast<size_t>(std::count(want.begin(), want.end(), true)))
          << "bits=" << bits;
    };
    expect_matches(b, ref);
    for (size_t i = 0; i < bits; ++i) {
      if (rng.NextBool(0.6)) {
        b.Set(i);
        ref[i] = true;
      }
    }
    if (bits != 0) {
      b.Set(bits - 1);  // the last in-range bit, at the tail of its word
      ref[bits - 1] = true;
    }
    expect_matches(b, ref);

    // A copy is independent of its source.
    DynamicBitset copy = b;
    expect_matches(copy, ref);
    copy.Reset();
    expect_matches(copy, std::vector<bool>(bits, false));
    expect_matches(b, ref);

    // Shrinking drops the tail bits; growing back adds only clear bits,
    // so no stale bit from before the shrink reappears.
    const size_t half = bits / 2;
    DynamicBitset shrunk = b;
    shrunk.Resize(half);
    std::vector<bool> ref_half(ref.begin(), ref.begin() + half);
    expect_matches(shrunk, ref_half);
    shrunk.Resize(bits + 70);
    ref_half.resize(bits + 70, false);
    expect_matches(shrunk, ref_half);

    b.Reset();
    expect_matches(b, std::vector<bool>(bits, false));
  }
}

// ---------------------------------------------------------- arena pool ---

TEST(ArenaPool, RecyclesObjectsAndKeepsCapacity) {
  struct PooledFrame {
    std::vector<int> data;
    void Reset() { data.clear(); }
  };
  ArenaPool<PooledFrame> pool;
  std::unique_ptr<PooledFrame> a = pool.Acquire();
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 0u);
  a->data.assign(1000, 7);
  PooledFrame* raw = a.get();
  pool.Release(std::move(a));
  EXPECT_EQ(pool.free_size(), 1u);

  // The same object comes back, logically empty but with its buffer.
  std::unique_ptr<PooledFrame> b = pool.Acquire();
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_TRUE(b->data.empty());
  EXPECT_GE(b->data.capacity(), 1000u);

  // A second concurrent acquire allocates fresh.
  std::unique_ptr<PooledFrame> c = pool.Acquire();
  EXPECT_NE(c.get(), raw);
  EXPECT_EQ(pool.allocated(), 2u);

  pool.Release(std::move(b));
  pool.Release(std::move(c));
  EXPECT_EQ(pool.free_size(), 2u);
  pool.Release(nullptr);  // no-op
  EXPECT_EQ(pool.free_size(), 2u);
}

// ------------------------------------------------------------ subsets ----

TEST(ForEachCombination, CountsMatchBinomials) {
  for (size_t n = 0; n <= 8; ++n) {
    for (size_t s = 0; s <= n; ++s) {
      size_t count = 0;
      ForEachCombination(n, s, [&](const std::vector<size_t>& c) {
        EXPECT_EQ(c.size(), s);
        EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
        ++count;
        return true;
      });
      // C(n, s)
      size_t expect = 1;
      for (size_t i = 0; i < s; ++i) expect = expect * (n - i) / (i + 1);
      EXPECT_EQ(count, expect) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ForEachCombination, EarlyStop) {
  size_t count = 0;
  bool completed = ForEachCombination(6, 2, [&](const std::vector<size_t>&) {
    return ++count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3u);
}

TEST(BoundedSubsetEnumerator, AscendingCardinalityAll) {
  BoundedSubsetEnumerator e(4, 4);
  size_t count = 0;
  size_t last_size = 0;
  while (e.Next()) {
    EXPECT_GE(e.current().size(), last_size);
    last_size = e.current().size();
    ++count;
  }
  EXPECT_EQ(count, 16u);  // 2^4
}

TEST(BoundedSubsetEnumerator, RespectsMaxSize) {
  BoundedSubsetEnumerator e(5, 2);
  size_t count = 0;
  while (e.Next()) {
    EXPECT_LE(e.current().size(), 2u);
    ++count;
  }
  EXPECT_EQ(count, 1u + 5u + 10u);
}

TEST(BoundedSubsetEnumerator, SupersetPruning) {
  BoundedSubsetEnumerator e(4, 4);
  std::vector<std::vector<size_t>> visited;
  while (e.Next()) {
    visited.push_back(e.current());
    if (e.current() == std::vector<size_t>{0}) e.PruneSupersetsOfCurrent();
  }
  // No visited subset after {0} may contain 0 (other than {0} itself).
  bool after = false;
  for (const auto& s : visited) {
    if (s == std::vector<size_t>{0}) {
      after = true;
      continue;
    }
    if (after) {
      EXPECT_FALSE(std::find(s.begin(), s.end(), 0u) != s.end())
          << "visited a superset of {0}";
    }
  }
  // 2^3 subsets avoid element 0; plus {0} itself.
  EXPECT_EQ(visited.size(), 8u + 1u);
}

TEST(BoundedSubsetEnumerator, PruneEmptySetStopsEverything) {
  BoundedSubsetEnumerator e(3, 3);
  ASSERT_TRUE(e.Next());
  EXPECT_TRUE(e.current().empty());
  e.PruneSupersetsOfCurrent();
  EXPECT_FALSE(e.Next());  // every set is a superset of ∅
}

// ------------------------------------------------------------- TextTable --

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "2000"});
  std::ostringstream os;
  t.Print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2000"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FormatSeconds, Inf) { EXPECT_EQ(FormatSeconds(-1), "INF"); }

TEST(FormatSeconds, Ranges) {
  EXPECT_EQ(FormatSeconds(123.4), "123.4");
  EXPECT_EQ(FormatSeconds(0.5), "0.5000");
  EXPECT_NE(FormatSeconds(1e-5).find("e"), std::string::npos);
}

// ----------------------------------------------------------------- Timer --

TEST(Deadline, DisabledNeverExpires) {
  Deadline d(0);
  EXPECT_FALSE(d.Expired());
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline d(1e-9);
  // Burn a little time. (Unsigned, non-compound: the sum overflows an
  // int, and compound assignment to volatile is deprecated in C++20.)
  volatile unsigned x = 0;
  for (unsigned i = 0; i < 100000; ++i) x = x + i;
  (void)x;
  EXPECT_TRUE(d.Expired());
}

}  // namespace
}  // namespace kbiplex
