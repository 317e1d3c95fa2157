// Tests for the merge step of a sharded query answer: each shard answers
// the part of the range it owns, and the cluster unions the per-shard
// ascending id lists into one answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lira/common/rng.h"
#include "lira/server/server_cluster.h"

namespace lira {
namespace {

TEST(MergeSortedUnionTest, UnionsDisjointAndOverlappingLists) {
  EXPECT_TRUE(MergeSortedUnion({}).empty());
  EXPECT_TRUE(MergeSortedUnion({{}, {}}).empty());
  EXPECT_EQ(MergeSortedUnion({{1, 4, 9}}), (std::vector<NodeId>{1, 4, 9}));
  EXPECT_EQ(MergeSortedUnion({{1, 4, 9}, {2, 4, 10}, {}, {0, 9}}),
            (std::vector<NodeId>{0, 1, 2, 4, 9, 10}));
}

TEST(MergeSortedUnionTest, RandomizedAgainstReference) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<NodeId>> lists(1 + trial % 6);
    std::vector<NodeId> reference;
    for (auto& list : lists) {
      NodeId id = 0;
      const int len = static_cast<int>(rng.Uniform(0.0, 30.0));
      for (int i = 0; i < len; ++i) {
        id += 1 + static_cast<NodeId>(rng.Uniform(0.0, 5.0));
        list.push_back(id);
        reference.push_back(id);
      }
    }
    std::sort(reference.begin(), reference.end());
    reference.erase(std::unique(reference.begin(), reference.end()),
                    reference.end());
    EXPECT_EQ(MergeSortedUnion(lists), reference);
  }
}

}  // namespace
}  // namespace lira
