#include "lira/server/server_cluster.h"

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"
#include "lira/telemetry/telemetry.h"
#include "oracle/scalar_stats_walk.h"

namespace lira {
namespace {

// World of 16 x 16 cells, 100 m each: shard boundaries land on multiples of
// 100 m, so tests can place updates in a known shard.
constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};

class ServerClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));
    queries_.Add(Rect{100, 100, 500, 500});
    queries_.Add(Rect{900, 900, 1300, 1300});
  }

  CqServerConfig BaseServerConfig() {
    CqServerConfig config;
    config.num_nodes = 80;
    config.world = kWorld;
    config.alpha = 16;
    config.queue_capacity = 64;
    // Slower than the offered load (~56 upd/tick), so the queue backs up,
    // drops occur, and THROTLOOP has something to react to.
    config.service_rate = 30.0;
    config.adaptation_period = 4.0;
    config.auto_throttle = true;
    return config;
  }

  ServerClusterConfig ClusterConfig(int32_t shards, int32_t threads = 1) {
    ServerClusterConfig config;
    config.server = BaseServerConfig();
    config.shards = shards;
    config.threads = threads;
    return config;
  }

  std::unique_ptr<ServerCluster> MustCreate(const ServerClusterConfig& c) {
    auto cluster =
        ServerCluster::Create(c, &uniform_policy_, &*reduction_, &queries_);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return *std::move(cluster);
  }

  ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
    ModelUpdate u;
    u.node_id = id;
    u.model = LinearMotionModel{p, v, t};
    return u;
  }

  /// One tick's worth of random traffic (same stream for every server under
  /// comparison; the caller copies the batch).
  std::vector<ModelUpdate> RandomBatch(Rng& rng, int32_t num_nodes,
                                       double t) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < num_nodes; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.3) continue;
      batch.push_back(UpdateFor(
          id, {rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)},
          {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t));
    }
    return batch;
  }

  static void ExpectGridsBitwiseEqual(const StatisticsGrid& a,
                                      const StatisticsGrid& b) {
    ASSERT_EQ(a.alpha(), b.alpha());
    for (int32_t iy = 0; iy < a.alpha(); ++iy) {
      for (int32_t ix = 0; ix < a.alpha(); ++ix) {
        ASSERT_EQ(a.NodeCount(ix, iy), b.NodeCount(ix, iy))
            << "cell (" << ix << ", " << iy << ")";
        ASSERT_EQ(a.MeanSpeed(ix, iy), b.MeanSpeed(ix, iy))
            << "cell (" << ix << ", " << iy << ")";
      }
    }
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  QueryRegistry queries_;
  UniformDeltaPolicy uniform_policy_;
};

TEST_F(ServerClusterTest, CreateValidation) {
  EXPECT_TRUE(
      ServerCluster::Create(ClusterConfig(1), &uniform_policy_, &*reduction_,
                            &queries_)
          .ok());
  EXPECT_FALSE(ServerCluster::Create(ClusterConfig(1), nullptr, &*reduction_,
                                     &queries_)
                   .ok());
  EXPECT_FALSE(
      ServerCluster::Create(ClusterConfig(0), &uniform_policy_, &*reduction_,
                            &queries_)
          .ok());
  // More shards than grid columns cannot each own a column.
  EXPECT_FALSE(
      ServerCluster::Create(ClusterConfig(17), &uniform_policy_, &*reduction_,
                            &queries_)
          .ok());
  auto config = ClusterConfig(2);
  config.threads = -1;
  EXPECT_FALSE(ServerCluster::Create(config, &uniform_policy_, &*reduction_,
                                     &queries_)
                   .ok());
  config = ClusterConfig(2);
  config.server.num_nodes = 0;
  EXPECT_FALSE(ServerCluster::Create(config, &uniform_policy_, &*reduction_,
                                     &queries_)
                   .ok());
}

TEST_F(ServerClusterTest, InvalidServerConfigsRejectedByBothCreates) {
  // CqServer and ServerCluster share one validation of the server config:
  // every invalid config (or missing collaborator) fails both Creates, with
  // the same status.
  struct Case {
    const char* name;
    void (*mutate)(CqServerConfig*);
    bool null_policy = false;
    bool null_reduction = false;
    bool null_queries = false;
  };
  const Case cases[] = {
      {"zero nodes", [](CqServerConfig* c) { c->num_nodes = 0; }},
      {"negative nodes", [](CqServerConfig* c) { c->num_nodes = -3; }},
      {"zero service rate", [](CqServerConfig* c) { c->service_rate = 0.0; }},
      {"negative service rate",
       [](CqServerConfig* c) { c->service_rate = -5.0; }},
      {"zero period", [](CqServerConfig* c) { c->adaptation_period = 0.0; }},
      {"negative period",
       [](CqServerConfig* c) { c->adaptation_period = -1.0; }},
      {"fixed z below 0",
       [](CqServerConfig* c) {
         c->auto_throttle = false;
         c->fixed_z = -0.1;
       }},
      {"fixed z above 1",
       [](CqServerConfig* c) {
         c->auto_throttle = false;
         c->fixed_z = 1.1;
       }},
      {"zero sample fraction",
       [](CqServerConfig* c) { c->stats_sample_fraction = 0.0; }},
      {"sample fraction above 1",
       [](CqServerConfig* c) { c->stats_sample_fraction = 1.5; }},
      {"null policy", [](CqServerConfig*) {}, true},
      {"null reduction", [](CqServerConfig*) {}, false, true},
      {"null queries", [](CqServerConfig*) {}, false, false, true},
  };
  for (const Case& c : cases) {
    ServerClusterConfig config = ClusterConfig(2);
    c.mutate(&config.server);
    const LoadSheddingPolicy* policy =
        c.null_policy ? nullptr : &uniform_policy_;
    const UpdateReductionFunction* reduction =
        c.null_reduction ? nullptr : &*reduction_;
    const QueryRegistry* queries = c.null_queries ? nullptr : &queries_;
    const auto single =
        CqServer::Create(config.server, policy, reduction, queries);
    const auto cluster =
        ServerCluster::Create(config, policy, reduction, queries);
    ASSERT_FALSE(single.ok()) << c.name;
    ASSERT_FALSE(cluster.ok()) << c.name;
    EXPECT_EQ(single.status().ToString(), cluster.status().ToString())
        << c.name;
  }
  // An out-of-range fixed z is ignored while THROTLOOP drives z.
  ServerClusterConfig config = ClusterConfig(2);
  config.server.fixed_z = 7.0;
  EXPECT_TRUE(CqServer::Create(config.server, &uniform_policy_, &*reduction_,
                               &queries_)
                  .ok());
  EXPECT_TRUE(ServerCluster::Create(config, &uniform_policy_, &*reduction_,
                                    &queries_)
                  .ok());
}

TEST_F(ServerClusterTest, ShardStateFollowsOwnershipAcrossMigrations) {
  // Every shard scans all ids in its statistics rebuild, which is exact
  // only because a shard's tracker holds models just for the ids it owns.
  // Drive handoffs (nodes crossing strips) and rebalance migrations (a
  // flash crowd under rebalance_stride = 1), then check after every
  // adaptation that each shard holds a model for exactly the ids the owner
  // map gives it and that its grid equals the oracle's scalar walk over
  // those ids. Lossy queues hold stale reports, so the previous owner and
  // a lower-indexed shard often apply the same node in one tick; the
  // highest-indexed applier must keep its model.
  constexpr int32_t kNodes = 160;
  for (int32_t shards : {1, 4, 8}) {
    ServerClusterConfig config = ClusterConfig(shards, 2);
    config.server.num_nodes = kNodes;
    config.server.queue_capacity = 128;
    config.server.service_rate = 90.0;  // lossy: queues hold stale reports
    config.rebalance_stride = 1;
    auto cluster = MustCreate(config);

    Rng rng(shards);
    std::vector<Point> pos(kNodes);
    for (Point& p : pos) {
      p = {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)};
    }
    int64_t checked = 0;
    int64_t tracked = 0;
    for (int t = 0; t < 60; ++t) {
      if (t == 16) {  // flash crowd: most nodes pile into x in [400, 600)
        for (NodeId id = 0; id < kNodes; ++id) {
          if (id % 8 != 0) {
            pos[id] = {rng.Uniform(400.0, 600.0), rng.Uniform(0.0, 1600.0)};
          }
        }
      }
      std::vector<ModelUpdate> batch;
      for (NodeId id = 0; id < kNodes; ++id) {
        pos[id].x += rng.Uniform(-60.0, 60.0);
        pos[id].y += rng.Uniform(-60.0, 60.0);
        if (rng.Uniform(0.0, 1.0) < 0.4) continue;
        batch.push_back(UpdateFor(
            id, pos[id], {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)}, t));
      }
      const int64_t builds = cluster->plan_builds();
      cluster->Receive(std::move(batch));
      ASSERT_TRUE(cluster->Tick(1.0).ok());
      if (cluster->plan_builds() == builds) {
        continue;  // grids refresh only at adaptations
      }
      for (int32_t k = 0; k < shards; ++k) {
        const PositionTracker& tracker = cluster->shard_tracker(k);
        auto walk = oracle::ScalarStatsWalk::Create(kWorld, 16, kNodes);
        ASSERT_TRUE(walk.ok());
        for (NodeId id = 0; id < kNodes; ++id) {
          const bool owned = cluster->owner_of(id) == k;
          ASSERT_EQ(owned, tracker.HasModel(id))
              << "S=" << shards << " t=" << t << " shard " << k << " id "
              << id << " owned by shard " << cluster->owner_of(id);
          tracked += tracker.HasModel(id) ? 1 : 0;
          if (owned) {
            walk->Relocate(tracker, id, cluster->time());
          }
        }
        ASSERT_EQ(oracle::FirstNodeStatsMismatch(cluster->shard_stats(k),
                                                 walk->grid()),
                  -1)
            << "S=" << shards << " t=" << t << " shard " << k;
        ++checked;
      }
    }
    EXPECT_GE(checked, 10 * shards);
    // On average more than half the nodes hold a model at each check, so
    // the grids compared are far from empty.
    EXPECT_GT(tracked, checked * kNodes / (2 * shards));
    if (shards > 1) {
      EXPECT_GE(cluster->map_epoch(), 1) << "S=" << shards;
      EXPECT_GT(cluster->nodes_migrated(), 0) << "S=" << shards;
    }
  }
}

TEST_F(ServerClusterTest, SingleShardBitwiseMatchesCqServer) {
  // The load-bearing contract: an S=1 cluster consumes exactly the random
  // stream, queue behavior, and adaptation sequence of a plain CqServer.
  const CqServerConfig server_config = BaseServerConfig();
  auto single = CqServer::Create(server_config, &uniform_policy_,
                                 &*reduction_, &queries_);
  ASSERT_TRUE(single.ok());
  auto cluster = MustCreate(ClusterConfig(1));
  ASSERT_EQ(cluster->num_shards(), 1);

  Rng rng(99);
  for (int t = 0; t < 20; ++t) {
    std::vector<ModelUpdate> batch =
        RandomBatch(rng, server_config.num_nodes, t);
    single->Receive(batch);
    cluster->Receive(std::move(batch));
    ASSERT_TRUE(single->Tick(1.0).ok());
    ASSERT_TRUE(cluster->Tick(1.0).ok());

    ASSERT_EQ(cluster->queue_arrivals(), single->queue().total_arrivals())
        << "t=" << t;
    ASSERT_EQ(cluster->queue_dropped(), single->queue().total_dropped())
        << "t=" << t;
    ASSERT_EQ(cluster->queue_size(), single->queue().size()) << "t=" << t;
    ASSERT_EQ(cluster->updates_applied(), single->updates_applied())
        << "t=" << t;
    ASSERT_EQ(cluster->z(), single->z()) << "t=" << t;
    ASSERT_EQ(cluster->plan().NumRegions(), single->plan().NumRegions())
        << "t=" << t;
    ASSERT_EQ(cluster->plan().MinDelta(), single->plan().MinDelta())
        << "t=" << t;
    ASSERT_EQ(cluster->plan().MaxDelta(), single->plan().MaxDelta())
        << "t=" << t;
  }
  ASSERT_GT(cluster->plan_builds(), 2);
  EXPECT_EQ(cluster->plan_builds(), single->plan_builds());
  ExpectGridsBitwiseEqual(cluster->stats(), single->stats());
  EXPECT_GT(cluster->queue_dropped(), 0);  // the comparison saw real load

  // Believed positions agree for every node.
  for (NodeId id = 0; id < server_config.num_nodes; ++id) {
    const auto a = cluster->BelievedPositionAt(id, cluster->time());
    const auto b = single->tracker().PredictAt(id, single->time());
    ASSERT_EQ(a.has_value(), b.has_value()) << "id=" << id;
    if (a.has_value()) {
      ASSERT_EQ(*a, *b) << "id=" << id;
    }
  }
}

TEST_F(ServerClusterTest, SingleShardOverflowEventsMatchCqServer) {
  // Both servers emit the overflow event from the one ServerPipeline
  // ReceiveBatch, so an overloaded S=1 cluster records the CqServer's
  // kQueueOverflow sequence exactly: time, drops and queue depth.
  telemetry::MemoryEventSink single_events;
  telemetry::TelemetrySink single_sink(&single_events);
  telemetry::MemoryEventSink cluster_events;
  telemetry::TelemetrySink cluster_sink(&cluster_events);
  CqServerConfig server_config = BaseServerConfig();
  server_config.telemetry = &single_sink;
  auto single = CqServer::Create(server_config, &uniform_policy_,
                                 &*reduction_, &queries_);
  ASSERT_TRUE(single.ok());
  ServerClusterConfig cluster_config = ClusterConfig(1);
  cluster_config.server.telemetry = &cluster_sink;
  auto cluster = MustCreate(cluster_config);

  Rng rng(7);
  for (int t = 0; t < 20; ++t) {
    std::vector<ModelUpdate> batch =
        RandomBatch(rng, server_config.num_nodes, t);
    single->Receive(batch);
    cluster->Receive(std::move(batch));
    ASSERT_TRUE(single->Tick(1.0).ok());
    ASSERT_TRUE(cluster->Tick(1.0).ok());
  }
  const auto expect =
      single_events.Select(telemetry::EventKind::kQueueOverflow);
  const auto got = cluster_events.Select(telemetry::EventKind::kQueueOverflow);
  ASSERT_GT(expect.size(), 5u);  // the run really overflowed, repeatedly
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].name, expect[i].name) << "event " << i;
    EXPECT_EQ(got[i].time, expect[i].time) << "event " << i;
    EXPECT_EQ(got[i].value, expect[i].value) << "event " << i;
    EXPECT_EQ(got[i].extra, expect[i].extra) << "event " << i;
  }
}

TEST_F(ServerClusterTest, AnswerQuerySeesQueryAppendedAfterCreate) {
  // The registry may grow in place while the servers run. A registered
  // query appended after Create must be answered from the current registry
  // and strips: the cluster's AnswerQuery, its AnswerRange on the same rect
  // and the CqServer's answer agree, and are not empty.
  for (int32_t shards : {1, 4}) {
    QueryRegistry registry;
    registry.Add(Rect{100, 100, 500, 500});
    CqServerConfig server_config = BaseServerConfig();
    server_config.queue_capacity = 1000;  // lossless
    server_config.service_rate = 10000.0;
    auto single = CqServer::Create(server_config, &uniform_policy_,
                                   &*reduction_, &registry);
    ASSERT_TRUE(single.ok());
    ServerClusterConfig cluster_config = ClusterConfig(shards, 2);
    cluster_config.server = server_config;
    auto created = ServerCluster::Create(cluster_config, &uniform_policy_,
                                         &*reduction_, &registry);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<ServerCluster> cluster = *std::move(created);

    // Even ids along y = 800, odd ids along y = 300, spread over every
    // strip.
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < server_config.num_nodes; ++id) {
      const double y = id % 2 == 0 ? 800.0 : 300.0;
      batch.push_back(UpdateFor(id, {20.0 + 19.0 * id, y}, {1.0, 0.0}, 0.0));
    }
    single->Receive(batch);
    cluster->Receive(std::move(batch));
    ASSERT_TRUE(single->Tick(1.0).ok());
    ASSERT_TRUE(cluster->Tick(1.0).ok());
    ASSERT_EQ(cluster->queue_dropped(), 0);

    const Rect appended{300, 700, 1100, 900};
    const QueryId id = registry.Add(appended);
    auto expect = single->AnswerQuery(id);
    auto got = cluster->AnswerQuery(id);
    auto range = cluster->AnswerRange(appended, cluster->time());
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    std::sort(expect->begin(), expect->end());
    ASSERT_FALSE(expect->empty());
    EXPECT_EQ(*got, *expect) << "S=" << shards;
    EXPECT_EQ(*range, *expect) << "S=" << shards;
    EXPECT_FALSE(cluster->AnswerQuery(id + 1).ok());
  }
}

TEST_F(ServerClusterTest, ResultsIndependentOfThreadCount) {
  // Any shard count must produce bitwise identical results for any worker
  // pool width (routing, handoff, and merge are all shard-ordered).
  std::vector<std::unique_ptr<ServerCluster>> clusters;
  for (int32_t threads : {1, 2, 4}) {
    clusters.push_back(MustCreate(ClusterConfig(4, threads)));
  }
  Rng rng(123);
  for (int t = 0; t < 16; ++t) {
    const std::vector<ModelUpdate> batch = RandomBatch(rng, 80, t);
    for (auto& cluster : clusters) {
      std::vector<ModelUpdate> copy = batch;
      cluster->Receive(std::move(copy));
      ASSERT_TRUE(cluster->Tick(1.0).ok());
    }
    for (size_t c = 1; c < clusters.size(); ++c) {
      ASSERT_EQ(clusters[c]->queue_dropped(), clusters[0]->queue_dropped())
          << "t=" << t;
      ASSERT_EQ(clusters[c]->z(), clusters[0]->z()) << "t=" << t;
      ASSERT_EQ(clusters[c]->plan().MaxDelta(),
                clusters[0]->plan().MaxDelta())
          << "t=" << t;
    }
  }
  ASSERT_GT(clusters[0]->plan_builds(), 2);
  for (size_t c = 1; c < clusters.size(); ++c) {
    ExpectGridsBitwiseEqual(clusters[c]->stats(), clusters[0]->stats());
    ASSERT_EQ(clusters[c]->updates_applied(), clusters[0]->updates_applied());
  }
}

TEST_F(ServerClusterTest, HandoffMovesOwnershipAcrossShards) {
  auto config = ClusterConfig(2);
  config.server.num_nodes = 4;
  config.server.auto_throttle = false;
  config.server.fixed_z = 0.5;
  config.server.service_rate = 100.0;
  auto cluster = MustCreate(config);

  // Node 0 reports on the left half (shard 0)...
  cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 0.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const auto left = cluster->BelievedPositionAt(0, 1.0);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(*left, (Point{200.0, 800.0}));

  // ...then crosses to the right half (shard 1): the old shard must retract
  // its model so the node is tracked -- and counted -- exactly once.
  cluster->Receive({UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 2.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const auto right = cluster->BelievedPositionAt(0, 3.0);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(*right, (Point{1200.0, 800.0}));

  ASSERT_TRUE(cluster->Adapt().ok());
  EXPECT_DOUBLE_EQ(cluster->stats().TotalNodes(), 1.0);
  EXPECT_DOUBLE_EQ(cluster->shard_stats(0).TotalNodes(), 0.0);
  EXPECT_DOUBLE_EQ(cluster->shard_stats(1).TotalNodes(), 1.0);

  // The snapshot answer sees the node exactly once, at its new home.
  auto everywhere = cluster->AnswerRange(kWorld, cluster->time());
  ASSERT_TRUE(everywhere.ok());
  EXPECT_EQ(*everywhere, std::vector<NodeId>{0});
}

TEST_F(ServerClusterTest, HighestShardKeepsANodeAppliedTwiceInOneTick) {
  // Node 0 is owned by shard 1; in one tick both shard 0 (a stale report
  // from the left half) and shard 1 apply it. The highest-indexed applier,
  // also the previous owner, keeps its model; shard 0's is retracted.
  auto config = ClusterConfig(2);
  config.server.num_nodes = 4;
  config.server.auto_throttle = false;
  config.server.service_rate = 100.0;
  auto cluster = MustCreate(config);

  cluster->Receive({UpdateFor(0, {1200.0, 800.0}, {0.0, 0.0}, 0.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  ASSERT_EQ(cluster->owner_of(0), 1);

  cluster->Receive({UpdateFor(0, {200.0, 800.0}, {0.0, 0.0}, 1.0),
                    UpdateFor(0, {1300.0, 800.0}, {0.0, 0.0}, 1.5)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  EXPECT_EQ(cluster->owner_of(0), 1);
  EXPECT_FALSE(cluster->shard_tracker(0).HasModel(0));
  ASSERT_TRUE(cluster->shard_tracker(1).HasModel(0));
  const auto believed = cluster->BelievedPositionAt(0, cluster->time());
  ASSERT_TRUE(believed.has_value());
  EXPECT_EQ(*believed, (Point{1300.0, 800.0}));

  ASSERT_TRUE(cluster->Adapt().ok());
  EXPECT_DOUBLE_EQ(cluster->stats().TotalNodes(), 1.0);
  EXPECT_DOUBLE_EQ(cluster->shard_stats(0).TotalNodes(), 0.0);
}

TEST_F(ServerClusterTest, AnswerRangeMergesShardsAndFiltersOwnership) {
  auto config = ClusterConfig(4);
  config.server.num_nodes = 40;
  config.server.auto_throttle = false;
  config.server.fixed_z = 0.5;
  auto cluster = MustCreate(config);
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 40; ++id) {
    batch.push_back(
        UpdateFor(id, {40.0 * id + 20.0, 800.0}, {1.0, 0.0}, 0.0));
  }
  cluster->Receive(std::move(batch));
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  const Rect range{300.0, 700.0, 1100.0, 900.0};
  auto got = cluster->AnswerRange(range, cluster->time());
  ASSERT_TRUE(got.ok());
  std::vector<NodeId> want;
  for (NodeId id = 0; id < 40; ++id) {
    const auto p = cluster->BelievedPositionAt(id, cluster->time());
    if (p.has_value() && range.Contains(*p)) {
      want.push_back(id);
    }
  }
  EXPECT_EQ(*got, want);
  EXPECT_FALSE(want.empty());
  // Past snapshot times are rejected, like the single server.
  EXPECT_FALSE(cluster->AnswerRange(range, 0.0).ok());
  // And an index-less cluster refuses entirely.
  config.server.maintain_index = false;
  auto no_index = MustCreate(config);
  EXPECT_FALSE(no_index->AnswerRange(range, 0.0).ok());
}

TEST_F(ServerClusterTest, HistoryFollowsNodeAcrossShards) {
  auto config = ClusterConfig(2);
  config.server.num_nodes = 4;
  config.server.record_history = true;
  config.server.auto_throttle = false;
  config.server.fixed_z = 0.5;
  auto cluster = MustCreate(config);
  EXPECT_TRUE(cluster->records_history());

  // Left at t=0 moving right at 100 m/s; re-reports from the right half at
  // t=8 standing still.
  cluster->Receive({UpdateFor(0, {150.0, 150.0}, {100.0, 0.0}, 0.0)});
  ASSERT_TRUE(cluster->Tick(1.0).ok());
  cluster->Receive({UpdateFor(0, {950.0, 150.0}, {0.0, 0.0}, 8.0)});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster->Tick(1.0).ok());
  }

  // t=1: governed by the first model, held by shard 0.
  auto early = cluster->HistoricalPositionAt(0, 1.0);
  ASSERT_TRUE(early.has_value());
  EXPECT_EQ(*early, (Point{250.0, 150.0}));
  // t=9: governed by the second model, held by shard 1.
  auto late = cluster->HistoricalPositionAt(0, 9.0);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, (Point{950.0, 150.0}));

  auto in_first_query =
      cluster->AnswerHistoricalRange(queries_.Get(0).range, 1.0);
  ASSERT_TRUE(in_first_query.ok());
  EXPECT_EQ(*in_first_query, std::vector<NodeId>{0});
  auto later = cluster->AnswerHistoricalRange(queries_.Get(0).range, 9.0);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->empty());
  EXPECT_FALSE(
      cluster->AnswerHistoricalRange(queries_.Get(0).range, 1e9).ok());
  EXPECT_GT(cluster->history_bytes(), 0);

  auto no_history = MustCreate(ClusterConfig(2));
  EXPECT_FALSE(no_history->records_history());
  EXPECT_FALSE(
      no_history->AnswerHistoricalRange(queries_.Get(0).range, 0.0).ok());
  EXPECT_EQ(no_history->history_bytes(), 0);
}

TEST_F(ServerClusterTest, PerShardTelemetryAndSerialEvents) {
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  auto config = ClusterConfig(2);
  config.server.num_nodes = 40;
  config.server.queue_capacity = 10;
  config.server.service_rate = 4.0;
  config.server.telemetry = &sink;
  auto cluster = MustCreate(config);

  for (int t = 0; t < 5; ++t) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < 40; ++id) {
      batch.push_back(
          UpdateFor(id, {40.0 * id + 20.0, 800.0}, {1.0, 0.0}, t));
    }
    cluster->Receive(std::move(batch));
    ASSERT_TRUE(cluster->Tick(1.0).ok());
  }
  ASSERT_TRUE(cluster->Adapt().ok());

  const telemetry::MetricRegistry& metrics = sink.metrics();
  // Cluster-level counters equal the shard sums and the queue truth.
  EXPECT_EQ(metrics.FindCounter("lira.queue.arrivals")->value(),
            cluster->queue_arrivals());
  EXPECT_EQ(metrics.FindCounter("lira.queue.dropped")->value(),
            cluster->queue_dropped());
  EXPECT_GT(cluster->queue_dropped(), 0);
  EXPECT_EQ(metrics.FindCounter("lira.shard0.queue.arrivals")->value() +
                metrics.FindCounter("lira.shard1.queue.arrivals")->value(),
            cluster->queue_arrivals());
  // Per-shard node gauges reflect the post-adaptation split.
  EXPECT_DOUBLE_EQ(
      metrics.FindGauge("lira.shard0.stats.nodes")->value() +
          metrics.FindGauge("lira.shard1.stats.nodes")->value(),
      cluster->stats().TotalNodes());
  // Overflow events come from the (serial) coordinator only.
  const auto overflows = events.Select(telemetry::EventKind::kQueueOverflow);
  ASSERT_FALSE(overflows.empty());
  for (const auto& event : overflows) {
    EXPECT_EQ(event.name, "lira.queue.dropped");
  }
}

}  // namespace
}  // namespace lira
