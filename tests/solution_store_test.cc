#include <vector>

#include <gtest/gtest.h>

#include "core/solution_store.h"

namespace kbiplex {
namespace {

TEST(SolutionStore, InsertContainsSize) {
  SolutionStore store;
  Biplex a{{0, 1}, {2}};
  Biplex b{{0}, {1, 2}};
  EXPECT_TRUE(store.Insert(a));
  EXPECT_FALSE(store.Insert(a));
  EXPECT_TRUE(store.Insert(b));
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_TRUE(store.Contains(a));
  EXPECT_TRUE(store.Contains(b));
  EXPECT_FALSE(store.Contains(Biplex{{0, 1}, {}}));
}

TEST(SolutionStore, ToVectorReturnsAll) {
  SolutionStore store;
  std::vector<Biplex> inserted;
  for (VertexId i = 0; i < 20; ++i) {
    Biplex b{{i}, {i, i + 1}};
    inserted.push_back(b);
    store.Insert(b);
  }
  auto out = store.ToVector();
  ASSERT_EQ(out.size(), 20u);
  std::sort(inserted.begin(), inserted.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, inserted);
}

TEST(SolutionStore, DistinguishesSideAssignment) {
  SolutionStore store;
  EXPECT_TRUE(store.Insert(Biplex{{1}, {2}}));
  EXPECT_TRUE(store.Insert(Biplex{{1, 2}, {}}));
  EXPECT_TRUE(store.Insert(Biplex{{}, {1, 2}}));
  EXPECT_EQ(store.Size(), 3u);
}

TEST(SolutionStore, BTreeIteratesInCanonicalOrder) {
  SolutionStore store;
  store.Insert(Biplex{{2}, {0}});
  store.Insert(Biplex{{1}, {5}});
  store.Insert(Biplex{{1}, {3}});
  std::vector<Biplex> out;
  store.ForEach([&](const Biplex& b) { out.push_back(b); });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0] < out[1] && out[1] < out[2]);
}

}  // namespace
}  // namespace kbiplex
