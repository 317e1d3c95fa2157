// The quad tree a server keeps across adaptations (StatsStage::quad_tree)
// must equal a fresh QuadHierarchy::Build of the server's statistics grid,
// bit for bit, after every adaptation -- whatever mix of incremental and
// full refreshes got it there. Exercised on CqServer and ServerCluster at
// several thread and shard counts, with rebalancing, cross-shard handoffs,
// a mid-run query swap, sampled statistics and a moved server.

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/core/quad_hierarchy.h"
#include "lira/server/cq_server.h"
#include "lira/server/server_cluster.h"
#include "lira/telemetry/telemetry.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};
constexpr int32_t kNodes = 150;
constexpr int32_t kAlpha = 128;
constexpr const char* kRefreshedName = "lira.adapt.quad_nodes_refreshed";

class QuadRefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));
    queries_a_.Add(Rect{100, 100, 500, 500});
    queries_a_.Add(Rect{900, 900, 1300, 1300});
    queries_b_.Add(Rect{300, 700, 1100, 1000});
    LiraConfig lira;
    lira.l = 13;
    lira.locator_cells = 16;
    policy_ = std::make_unique<LiraPolicy>(lira);
  }

  CqServerConfig ServerConfig(double fraction) {
    CqServerConfig config;
    config.num_nodes = kNodes;
    config.world = kWorld;
    config.alpha = kAlpha;
    config.queue_capacity = 128;
    config.service_rate = 90.0;
    config.adaptation_period = 3.0;
    config.auto_throttle = true;
    config.stats_sample_fraction = fraction;
    config.telemetry = sink_.get();
    return config;
  }

  /// One tick of a random walk: each node moves up to 40 m and 60% report.
  std::vector<ModelUpdate> Step(Rng& rng, std::vector<Point>* pos, int t) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < kNodes; ++id) {
      Point& p = (*pos)[id];
      p.x += rng.Uniform(-40.0, 40.0);
      p.y += rng.Uniform(-40.0, 40.0);
      if (rng.Uniform(0.0, 1.0) < 0.4) continue;
      ModelUpdate u;
      u.node_id = id;
      u.model = LinearMotionModel{
          p, {rng.Uniform(-6.0, 6.0), rng.Uniform(-6.0, 6.0)}, t};
      batch.push_back(u);
    }
    return batch;
  }

  /// Compares the kept tree with a fresh build after an adaptation and
  /// returns the interior nodes the adaptation refreshed.
  int64_t CheckTree(const ServerPipeline& server, const std::string& where) {
    const QuadHierarchy& kept = server.quad_tree();
    const QuadHierarchy fresh = QuadHierarchy::Build(server.stats());
    EXPECT_EQ(kept.grid(), &server.stats()) << where;
    EXPECT_EQ(kept.num_levels(), fresh.num_levels()) << where;
    for (int32_t level = 0; level < fresh.leaf_level(); ++level) {
      const int32_t side = 1 << level;
      for (int32_t iy = 0; iy < side; ++iy) {
        for (int32_t ix = 0; ix < side; ++ix) {
          const RegionStats a = kept.Stats({level, ix, iy});
          const RegionStats b = fresh.Stats({level, ix, iy});
          if (std::memcmp(&a, &b, sizeof(RegionStats)) != 0) {
            ADD_FAILURE() << where << ": node (" << level << ", " << ix
                          << ", " << iy << ") differs from a full build";
            return -1;
          }
        }
      }
    }
    const int64_t total =
        sink_->metrics().FindCounter(kRefreshedName)->value();
    const int64_t refreshed = total - refreshed_total_;
    refreshed_total_ = total;
    return refreshed;
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  QueryRegistry queries_a_;
  QueryRegistry queries_b_;
  std::unique_ptr<LiraPolicy> policy_;
  std::unique_ptr<telemetry::TelemetrySink> sink_;
  int64_t refreshed_total_ = 0;
};

TEST_F(QuadRefreshTest, KeptTreeEqualsFullBuildAfterEveryAdaptation) {
  constexpr int64_t kInterior = (int64_t{kAlpha} * kAlpha - 1) / 3;
  for (const double fraction : {1.0, 0.5}) {
    for (const int32_t threads : {1, 2, 8}) {
      for (const int32_t shards : {0, 1, 4}) {
        const std::string where = "fraction=" + std::to_string(fraction) +
                                  " threads=" + std::to_string(threads) +
                                  " S=" + std::to_string(shards);
        sink_ = std::make_unique<telemetry::TelemetrySink>();
        refreshed_total_ = 0;
        ThreadPool pool(threads);
        CqServerConfig config = ServerConfig(fraction);
        std::optional<CqServer> single;
        std::unique_ptr<ServerCluster> cluster;
        if (shards == 0) {
          config.pool = &pool;
          auto created = CqServer::Create(config, policy_.get(),
                                          &*reduction_, &queries_a_);
          ASSERT_TRUE(created.ok()) << created.status().ToString();
          single.emplace(*std::move(created));
        } else {
          ServerClusterConfig cluster_config;
          cluster_config.server = config;
          cluster_config.shards = shards;
          cluster_config.threads = threads;
          cluster_config.rebalance_stride = 1;
          auto created = ServerCluster::Create(cluster_config, policy_.get(),
                                               &*reduction_, &queries_a_);
          ASSERT_TRUE(created.ok()) << created.status().ToString();
          cluster = *std::move(created);
        }

        Rng rng(static_cast<uint64_t>(7 * threads + shards));
        std::vector<Point> pos(kNodes);
        for (Point& p : pos) {
          p = {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)};
        }
        int32_t adaptations = 0;
        int32_t incremental = 0;
        for (int t = 0; t < 60; ++t) {
          if (t == 25 && single.has_value()) {
            // Move the server mid-run: the tree must follow its grid.
            CqServer moved = *std::move(single);
            single.reset();
            single.emplace(std::move(moved));
          }
          ServerPipeline& server =
              single.has_value() ? static_cast<ServerPipeline&>(*single)
                                 : *cluster;
          if (t == 30) {
            ASSERT_TRUE(server.InstallQueries(&queries_b_).ok());
          }
          const int64_t builds = server.plan_builds();
          server.Receive(Step(rng, &pos, t));
          ASSERT_TRUE(server.Tick(1.0).ok()) << where;
          if (server.plan_builds() == builds) {
            continue;
          }
          ++adaptations;
          const int64_t refreshed =
              CheckTree(server, where + " t=" + std::to_string(t));
          ASSERT_GE(refreshed, 0) << where;
          ASSERT_LE(refreshed, kInterior) << where;
          incremental += refreshed < kInterior ? 1 : 0;
        }
        EXPECT_GE(adaptations, 15) << where;
        if (shards == 0 && fraction == 1.0) {
          // The single exact server refreshes incrementally between the
          // full builds (first adaptation, query swap, moved server).
          EXPECT_GE(incremental, adaptations / 2) << where;
        } else {
          // Sampled statistics clear the grid and the coordinator merge
          // overwrites it: every refresh is a full build.
          EXPECT_EQ(incremental, 0) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lira
