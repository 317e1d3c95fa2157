#include "lira/server/stats_stage.h"

#include <gtest/gtest.h>

#include <vector>

#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/telemetry/telemetry.h"
#include "oracle/scalar_stats_walk.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

StatsStageConfig BaseConfig(int32_t num_nodes = 60) {
  StatsStageConfig config;
  config.num_nodes = num_nodes;
  config.world = kWorld;
  config.alpha = 16;
  return config;
}

ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
  ModelUpdate u;
  u.node_id = id;
  u.model = LinearMotionModel{p, v, t};
  return u;
}

TEST(StatsStageTest, CreateValidation) {
  EXPECT_TRUE(StatsStage::Create(BaseConfig()).ok());
  auto config = BaseConfig();
  config.num_nodes = 0;
  EXPECT_FALSE(StatsStage::Create(config).ok());
  config = BaseConfig();
  config.stats_sample_fraction = 0.0;
  EXPECT_FALSE(StatsStage::Create(config).ok());
  config = BaseConfig();
  config.stats_sample_fraction = 1.5;
  EXPECT_FALSE(StatsStage::Create(config).ok());
  config = BaseConfig();
  config.alpha = 12;  // not a power of two (grid validation)
  EXPECT_FALSE(StatsStage::Create(config).ok());
}

TEST(StatsStageTest, IncrementalMatchesFullRescanBitwise) {
  auto incremental = StatsStage::Create(BaseConfig());
  auto config = BaseConfig();
  config.incremental_stats = false;
  auto rescan = StatsStage::Create(config);
  ASSERT_TRUE(incremental.ok() && rescan.ok());
  EXPECT_TRUE(incremental->IncrementalEnabled());
  EXPECT_FALSE(rescan->IncrementalEnabled());

  PositionTracker tracker(60);
  Rng rng(31);
  for (int t = 0; t < 12; ++t) {
    for (NodeId id = 0; id < 60; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.3) continue;  // some nodes go silent
      tracker.Apply(UpdateFor(id,
                              {rng.Uniform(-40.0, 1640.0),
                               rng.Uniform(-40.0, 1640.0)},
                              {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)},
                              t));
    }
    incremental->RebuildNodes(tracker, t + 0.5);
    rescan->RebuildNodes(tracker, t + 0.5);
    for (int32_t iy = 0; iy < 16; ++iy) {
      for (int32_t ix = 0; ix < 16; ++ix) {
        ASSERT_EQ(incremental->grid().NodeCount(ix, iy),
                  rescan->grid().NodeCount(ix, iy))
            << "t=" << t << " cell (" << ix << ", " << iy << ")";
        ASSERT_EQ(incremental->grid().MeanSpeed(ix, iy),
                  rescan->grid().MeanSpeed(ix, iy))
            << "t=" << t << " cell (" << ix << ", " << iy << ")";
      }
    }
  }
}

TEST(StatsStageTest, ShardRebuildMatchesOracleOverOwnedIds) {
  // A cluster shard's tracker holds models only for the ids the shard owns:
  // every handoff pairs ForgetNode with the tracker's Forget. Scanning every
  // id must then equal the oracle's scalar walk over just the owned ids,
  // across epochs where nodes hand off, go silent and come back.
  constexpr int32_t kNodes = 60;
  auto stage = StatsStage::Create(BaseConfig(kNodes));
  auto walk = oracle::ScalarStatsWalk::Create(kWorld, 16, kNodes);
  ASSERT_TRUE(stage.ok() && walk.ok());
  PositionTracker all(kNodes);    // every node's latest model
  PositionTracker shard(kNodes);  // only the owned nodes' models
  std::vector<bool> owned(kNodes, false);
  Rng rng(53);
  for (int t = 0; t < 12; ++t) {
    for (NodeId id = 0; id < kNodes; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.3) continue;  // silent this epoch
      const ModelUpdate update = UpdateFor(
          id, {rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)},
          {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t);
      all.Apply(update);
      if (rng.Uniform(0.0, 1.0) < 0.6) {
        shard.Apply(update);
        owned[id] = true;
      } else if (owned[id]) {  // handed off to another shard
        stage->ForgetNode(id);
        shard.Forget(id);
        walk->Forget(id);
        owned[id] = false;
      }
    }
    stage->RebuildNodes(shard, t + 0.5);
    for (NodeId id = 0; id < kNodes; ++id) {
      if (owned[id]) {
        walk->Relocate(all, id, t + 0.5);
      }
    }
    ASSERT_EQ(oracle::FirstNodeStatsMismatch(stage->grid(), walk->grid()), -1)
        << "t=" << t;
  }
}

TEST(StatsStageTest, ForgetNodeRetractsImmediately) {
  auto stage = StatsStage::Create(BaseConfig(10));
  ASSERT_TRUE(stage.ok());
  PositionTracker tracker(10);
  for (NodeId id = 0; id < 10; ++id) {
    tracker.Apply(UpdateFor(id, {100.0 + 10.0 * id, 100.0}, {0.0, 0.0}, 0.0));
  }
  stage->RebuildNodes(tracker, 0.0);
  EXPECT_DOUBLE_EQ(stage->grid().TotalNodes(), 10.0);

  // Handoff: node 2 migrates away; its contribution disappears immediately.
  stage->ForgetNode(2);
  tracker.Forget(2);
  EXPECT_DOUBLE_EQ(stage->grid().TotalNodes(), 9.0);
  // And it stays out of later rebuilds until its model comes back.
  stage->RebuildNodes(tracker, 1.0);
  EXPECT_DOUBLE_EQ(stage->grid().TotalNodes(), 9.0);
  tracker.Apply(UpdateFor(2, {120.0, 100.0}, {0.0, 0.0}, 2.0));
  stage->RebuildNodes(tracker, 2.0);
  EXPECT_DOUBLE_EQ(stage->grid().TotalNodes(), 10.0);
}

TEST(StatsStageTest, QueryRebuildCachesOnSizeAndMargin) {
  auto stage = StatsStage::Create(BaseConfig());
  ASSERT_TRUE(stage.ok());
  QueryRegistry queries;
  queries.Add(Rect{100, 100, 500, 500});
  stage->RebuildQueries(queries, 0.0);
  EXPECT_NEAR(stage->grid().TotalQueries(), 1.0, 1e-9);
  // Same size + margin: the pass is skipped (counts unchanged, not doubled).
  stage->RebuildQueries(queries, 0.0);
  EXPECT_NEAR(stage->grid().TotalQueries(), 1.0, 1e-9);
  // Registry grew: recounted.
  queries.Add(Rect{900, 900, 1300, 1300});
  stage->RebuildQueries(queries, 0.0);
  EXPECT_NEAR(stage->grid().TotalQueries(), 2.0, 1e-9);
  // Margin changed: recounted (margin expands rectangles, so the fractional
  // total can change); a forced invalidation also recounts.
  stage->RebuildQueries(queries, 50.0);
  const double with_margin = stage->grid().TotalQueries();
  stage->InvalidateQueryCache();
  stage->RebuildQueries(queries, 50.0);
  EXPECT_DOUBLE_EQ(stage->grid().TotalQueries(), with_margin);
}

TEST(StatsStageTest, IncrementalMatchesOracleWalkBitwise) {
  // The columnar (block-predicted, velocity-cached) rebuild against the
  // oracle's scalar per-node walk: bitwise equal on every cell across
  // epochs with silent nodes and re-located nodes.
  auto stage = StatsStage::Create(BaseConfig());
  auto walk = oracle::ScalarStatsWalk::Create(kWorld, 16, 60);
  ASSERT_TRUE(stage.ok() && walk.ok());

  PositionTracker tracker(60);
  Rng rng(47);
  for (int t = 0; t < 12; ++t) {
    for (NodeId id = 0; id < 60; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.4) continue;  // stale model: cache hits
      tracker.Apply(UpdateFor(id,
                              {rng.Uniform(-40.0, 1640.0),
                               rng.Uniform(-40.0, 1640.0)},
                              {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)},
                              t));
    }
    stage->RebuildNodes(tracker, t + 0.5);
    walk->RebuildAll(tracker, t + 0.5);
    ASSERT_EQ(oracle::FirstNodeStatsMismatch(stage->grid(), walk->grid()), -1)
        << "t=" << t;
  }
}

TEST(StatsStageTest, PooledRebuildMatchesOracleBitwise) {
  // Enough nodes to cross the parallel block threshold so the pooled stage
  // actually splits the id range across workers and merges per-chunk delta
  // lists in chunk order.
  constexpr int32_t kNodes = 20000;
  for (int32_t threads : {2, 8}) {
    ThreadPool pool(threads);
    auto config = BaseConfig(kNodes);
    config.pool = &pool;
    auto pooled = StatsStage::Create(config);
    auto walk = oracle::ScalarStatsWalk::Create(kWorld, 16, kNodes);
    ASSERT_TRUE(pooled.ok() && walk.ok());

    PositionTracker tracker(kNodes);
    Rng rng(threads);
    for (int t = 0; t < 3; ++t) {
      for (NodeId id = 0; id < kNodes; ++id) {
        if (rng.Uniform(0.0, 1.0) < 0.3) continue;
        tracker.Apply(
            UpdateFor(id,
                      {rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)},
                      {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t));
      }
      pooled->RebuildNodes(tracker, t + 0.5);
      walk->RebuildAll(tracker, t + 0.5);
      ASSERT_EQ(oracle::FirstNodeStatsMismatch(pooled->grid(), walk->grid()),
                -1)
          << "threads=" << threads << " t=" << t;
    }
  }
}

TEST(StatsStageTest, QueryAppendDeltaMatchesFullRescan) {
  // Growing the registry takes the append-only delta path; the result must
  // be bitwise identical to a forced full rescan of the same registry.
  auto delta_stage = StatsStage::Create(BaseConfig());
  auto full_stage = StatsStage::Create(BaseConfig());
  ASSERT_TRUE(delta_stage.ok() && full_stage.ok());
  QueryRegistry queries;
  Rng rng(91);
  for (int round = 0; round < 6; ++round) {
    const int appends = 1 + round % 3;
    for (int i = 0; i < appends; ++i) {
      const double side = rng.Uniform(80.0, 500.0);
      queries.Add(Rect::CenteredAt(
          {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)}, side));
    }
    delta_stage->RebuildQueries(queries, 10.0);
    full_stage->InvalidateQueryCache();
    full_stage->RebuildQueries(queries, 10.0);
    for (int32_t iy = 0; iy < 16; ++iy) {
      for (int32_t ix = 0; ix < 16; ++ix) {
        ASSERT_EQ(delta_stage->grid().QueryCount(ix, iy),
                  full_stage->grid().QueryCount(ix, iy))
            << "round=" << round << " cell (" << ix << ", " << iy << ")";
      }
    }
  }
  // A margin change invalidates the delta path and falls back to a rescan.
  delta_stage->RebuildQueries(queries, 25.0);
  full_stage->InvalidateQueryCache();
  full_stage->RebuildQueries(queries, 25.0);
  EXPECT_EQ(delta_stage->grid().TotalQueries(),
            full_stage->grid().TotalQueries());
  // Registry replacement ("query removal") must go through an explicit
  // invalidation; the delta path only ever extends a same-margin prefix.
  QueryRegistry fewer;
  fewer.Add(Rect{100, 100, 700, 700});
  delta_stage->InvalidateQueryCache();
  delta_stage->RebuildQueries(fewer, 25.0);
  full_stage->InvalidateQueryCache();
  full_stage->RebuildQueries(fewer, 25.0);
  EXPECT_EQ(delta_stage->grid().TotalQueries(),
            full_stage->grid().TotalQueries());
  EXPECT_NEAR(delta_stage->grid().TotalQueries(), 1.0, 1e-9);
}

TEST(StatsStageTest, SampledRebuildIsUnbiased) {
  auto config = BaseConfig(400);
  config.stats_sample_fraction = 0.25;
  auto stage = StatsStage::Create(config);
  ASSERT_TRUE(stage.ok());
  EXPECT_FALSE(stage->IncrementalEnabled());
  PositionTracker tracker(400);
  for (NodeId id = 0; id < 400; ++id) {
    tracker.Apply(UpdateFor(id, {4.0 * id, 4.0 * id}, {1.0, 1.0}, 0.0));
  }
  stage->RebuildNodes(tracker, 0.0);
  EXPECT_NEAR(stage->grid().TotalNodes(), 400.0, 120.0);
  EXPECT_GT(stage->grid().TotalNodes(), 100.0);
}

TEST(StatsStageTest, CellsDirtiedCounterUsesPrefix) {
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  auto config = BaseConfig(4);
  config.metric_prefix = "lira.shard1";
  config.telemetry = &sink;
  auto stage = StatsStage::Create(config);
  ASSERT_TRUE(stage.ok());
  PositionTracker tracker(4);
  tracker.Apply(UpdateFor(0, {100.0, 100.0}, {0.0, 0.0}, 0.0));
  stage->RebuildNodes(tracker, 0.0);
  EXPECT_GT(
      sink.metrics().FindCounter("lira.shard1.stats.cells_dirtied")->value(),
      0);
}

}  // namespace
}  // namespace lira
