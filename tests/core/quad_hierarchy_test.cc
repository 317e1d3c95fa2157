#include "lira/core/quad_hierarchy.h"

#include <cstring>

#include <gtest/gtest.h>

#include "lira/common/parallel.h"
#include "lira/common/rng.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

StatisticsGrid PopulatedGrid(int32_t alpha, int nodes = 300) {
  auto grid = StatisticsGrid::Create(kWorld, alpha);
  EXPECT_TRUE(grid.ok());
  Rng rng(31);
  for (int i = 0; i < nodes; ++i) {
    grid->AddNode({rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)},
                  rng.Uniform(5.0, 25.0));
  }
  QueryRegistry registry;
  for (int i = 0; i < 10; ++i) {
    const double side = rng.Uniform(100.0, 400.0);
    registry.Add(Rect::CenteredAt({rng.Uniform(side / 2, 1600.0 - side / 2),
                                   rng.Uniform(side / 2, 1600.0 - side / 2)},
                                  side));
  }
  grid->AddQueries(registry);
  return *std::move(grid);
}

TEST(QuadHierarchyTest, LevelCountMatchesAlpha) {
  const StatisticsGrid grid = PopulatedGrid(16);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  EXPECT_EQ(tree.num_levels(), 5);  // log2(16) + 1
  EXPECT_EQ(tree.leaf_level(), 4);
  EXPECT_FALSE(tree.IsLeaf(tree.root()));
  // alpha^2 + (alpha^2 - 1)/3 = 256 + 85 = 341.
  EXPECT_EQ(tree.TotalNodes(), 341);
}

TEST(QuadHierarchyTest, SingleCellGridIsRootOnly) {
  const StatisticsGrid grid = PopulatedGrid(1);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  EXPECT_EQ(tree.num_levels(), 1);
  EXPECT_TRUE(tree.IsLeaf(tree.root()));
  EXPECT_EQ(tree.TotalNodes(), 1);
}

TEST(QuadHierarchyTest, RootAggregatesEverything) {
  const StatisticsGrid grid = PopulatedGrid(8);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  const RegionStats& root = tree.Stats(tree.root());
  EXPECT_NEAR(root.n, grid.TotalNodes(), 1e-9);
  EXPECT_NEAR(root.m, grid.TotalQueries(), 1e-9);
  EXPECT_NEAR(root.s, grid.OverallMeanSpeed(), 1e-9);
}

TEST(QuadHierarchyTest, ParentEqualsSumOfChildrenEverywhere) {
  const StatisticsGrid grid = PopulatedGrid(16);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  for (int32_t level = 0; level < tree.leaf_level(); ++level) {
    const int32_t side = 1 << level;
    for (int32_t iy = 0; iy < side; ++iy) {
      for (int32_t ix = 0; ix < side; ++ix) {
        const QuadNodeRef ref{level, ix, iy};
        RegionStats sum;
        for (const QuadNodeRef& child : tree.Children(ref)) {
          sum = sum + tree.Stats(child);
        }
        const RegionStats& parent = tree.Stats(ref);
        EXPECT_NEAR(parent.n, sum.n, 1e-9);
        EXPECT_NEAR(parent.m, sum.m, 1e-9);
        EXPECT_NEAR(parent.s, sum.s, 1e-9);
      }
    }
  }
}

TEST(QuadHierarchyTest, LeavesMatchGridCells) {
  const StatisticsGrid grid = PopulatedGrid(8);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  for (int32_t iy = 0; iy < 8; ++iy) {
    for (int32_t ix = 0; ix < 8; ++ix) {
      const QuadNodeRef leaf{tree.leaf_level(), ix, iy};
      EXPECT_TRUE(tree.IsLeaf(leaf));
      EXPECT_NEAR(tree.Stats(leaf).n, grid.NodeCount(ix, iy), 1e-12);
      EXPECT_NEAR(tree.Stats(leaf).m, grid.QueryCount(ix, iy), 1e-12);
      EXPECT_EQ(tree.RegionOf(leaf), grid.CellRect(ix, iy));
    }
  }
}

TEST(QuadHierarchyTest, ChildrenQuadrantsTileParentRegion) {
  const StatisticsGrid grid = PopulatedGrid(8);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  const QuadNodeRef parent{1, 1, 0};
  const Rect parent_rect = tree.RegionOf(parent);
  double child_area = 0.0;
  for (const QuadNodeRef& child : tree.Children(parent)) {
    const Rect r = tree.RegionOf(child);
    child_area += r.Area();
    EXPECT_GE(r.min_x, parent_rect.min_x - 1e-9);
    EXPECT_LE(r.max_x, parent_rect.max_x + 1e-9);
    EXPECT_GE(r.min_y, parent_rect.min_y - 1e-9);
    EXPECT_LE(r.max_y, parent_rect.max_y + 1e-9);
  }
  EXPECT_NEAR(child_area, parent_rect.Area(), 1e-6);
}

TEST(QuadHierarchyTest, RootRegionIsWorld) {
  const StatisticsGrid grid = PopulatedGrid(4);
  const QuadHierarchy tree = QuadHierarchy::Build(grid);
  EXPECT_EQ(tree.RegionOf(tree.root()), kWorld);
}

TEST(QuadHierarchyTest, PooledBuildIsBitwiseIdenticalToSerial) {
  // alpha = 128 crosses the parallel threshold for the leaf level and the
  // first aggregation levels; smaller levels take the serial branch, so
  // both code paths are exercised in one build.
  const StatisticsGrid grid = PopulatedGrid(128);
  const QuadHierarchy serial = QuadHierarchy::Build(grid);
  for (int32_t threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const QuadHierarchy pooled = QuadHierarchy::Build(grid, &pool);
    ASSERT_EQ(serial.num_levels(), pooled.num_levels());
    for (int32_t level = 0; level < serial.num_levels(); ++level) {
      const int32_t side = 1 << level;
      for (int32_t iy = 0; iy < side; ++iy) {
        for (int32_t ix = 0; ix < side; ++ix) {
          const QuadNodeRef ref{level, ix, iy};
          const RegionStats& a = serial.Stats(ref);
          const RegionStats& b = pooled.Stats(ref);
          ASSERT_EQ(a.n, b.n) << "threads=" << threads << " level=" << level;
          ASSERT_EQ(a.m, b.m) << "threads=" << threads << " level=" << level;
          ASSERT_EQ(a.s, b.s) << "threads=" << threads << " level=" << level;
        }
      }
    }
  }
}

/// Every interior node of `a` and `b` holds the same bits.
void ExpectInteriorBitwiseEqual(const QuadHierarchy& a,
                                const QuadHierarchy& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (int32_t level = 0; level < a.leaf_level(); ++level) {
    const int32_t side = 1 << level;
    for (int32_t iy = 0; iy < side; ++iy) {
      for (int32_t ix = 0; ix < side; ++ix) {
        const QuadNodeRef ref{level, ix, iy};
        const RegionStats x = a.Stats(ref);
        const RegionStats y = b.Stats(ref);
        ASSERT_EQ(std::memcmp(&x, &y, sizeof(RegionStats)), 0)
            << "level " << level << " (" << ix << ", " << iy << ")";
      }
    }
  }
}

TEST(QuadHierarchyTest, RefreshMatchesFullBuildBitwise) {
  // A kept tree refreshed from the grid's dirty set equals a fresh build
  // after every batch: an empty dirty set, one corner cell, random batches
  // of the per-cell mutators below and past the all-dirty share, and a
  // query recount (a bulk operation).
  for (const int32_t alpha : {1, 2, 64, 1024}) {
    StatisticsGrid grid = PopulatedGrid(alpha);
    QuadHierarchy kept;
    kept.Bind(&grid);
    const int64_t cells = int64_t{alpha} * alpha;
    const int64_t interior = (cells - 1) / 3;
    const int64_t share = cells / StatisticsGrid::kDirtyShareDivisor;
    ASSERT_EQ(kept.Refresh(), interior) << "alpha=" << alpha;
    ExpectInteriorBitwiseEqual(kept, QuadHierarchy::Build(grid));

    Rng rng(static_cast<uint64_t>(alpha));
    const int64_t q = StatisticsGrid::QuantizeSpeed(11.25);
    const auto mutate = [&](int64_t count) {
      for (int64_t k = 0; k < count; ++k) {
        const auto cell = static_cast<int32_t>(rng.UniformInt(cells));
        const auto ix = static_cast<int32_t>(cell % alpha);
        const auto iy = static_cast<int32_t>(cell / alpha);
        switch (rng.UniformInt(4)) {
          case 0:
            grid.AddNodeQAt(cell, q + static_cast<int64_t>(k));
            break;
          case 1:
            grid.RemoveNodeQAt(cell, q);
            break;
          case 2:
            grid.ApplyNodeDelta(cell, 1, 3 * q);
            break;
          default:
            if (grid.NodeCount(ix, iy) > 0.0) {
              grid.ApplyNodeDelta(cell, -1, -q / 2);
            }
            break;
        }
      }
    };
    QueryRegistry extra;
    extra.Add(Rect{200.0, 300.0, 700.0, 900.0});
    for (int round = 0; round < 9; ++round) {
      int64_t expect = -1;  // -1: some count in (0, interior]
      switch (round) {
        case 0:  // nothing changed
          expect = 0;
          break;
        case 1:  // the far corner: one node per interior level
          grid.AddNodeQAt(static_cast<int32_t>(cells - 1), q);
          expect = share >= 1 ? kept.leaf_level() : interior;
          break;
        case 5:  // past the share: the grid gives up on the list
          mutate(2 * share + 2);
          expect = interior;
          break;
        case 7:  // a bulk operation
          grid.AddQueries(extra, 25.0);
          expect = interior;
          break;
        default:
          mutate(1 + static_cast<int64_t>(rng.UniformInt(
                         static_cast<uint64_t>(share / 2 + 1))));
          break;
      }
      const bool all_dirty = grid.all_dirty();
      const int64_t refreshed = kept.Refresh();
      EXPECT_FALSE(grid.all_dirty());
      EXPECT_TRUE(grid.dirty_cells().empty());
      if (expect >= 0) {
        EXPECT_EQ(refreshed, expect) << "alpha=" << alpha << " round " << round;
      } else if (all_dirty) {
        EXPECT_EQ(refreshed, interior) << "alpha=" << alpha;
      } else {
        EXPECT_LT(refreshed, interior) << "alpha=" << alpha;
      }
      ExpectInteriorBitwiseEqual(kept, QuadHierarchy::Build(grid));
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(QuadHierarchyTest, RebindingToAnotherGridRebuildsInFull) {
  StatisticsGrid a = PopulatedGrid(16, 100);
  StatisticsGrid b = PopulatedGrid(16, 400);
  QuadHierarchy kept;
  kept.Bind(&a);
  kept.Refresh();
  kept.Bind(&a);  // same grid: nothing to redo
  EXPECT_EQ(kept.Refresh(), 0);
  kept.Bind(&b);
  EXPECT_TRUE(b.all_dirty());
  EXPECT_EQ(kept.Refresh(), kept.InteriorNodes());
  ExpectInteriorBitwiseEqual(kept, QuadHierarchy::Build(b));
}

}  // namespace
}  // namespace lira
