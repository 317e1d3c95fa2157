// Rebalance-epoch correctness (DESIGN.md §12): with rebalance_stride on,
// the cluster re-splits its column strips mid-run and migrates node
// ownership -- and every externally visible answer must stay bitwise
// identical to an unsharded CqServer fed the same stream, including range
// queries that straddle strip boundaries, across query-set changes and
// across rebalance epochs; and the whole run must be reproducible for any
// worker thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lira/common/rng.h"
#include "lira/core/policy.h"
#include "lira/cq/query_registry.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/cq_server.h"
#include "lira/server/server_cluster.h"

namespace lira {
namespace {

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};
constexpr double kTick = 0.1;

class RebalanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto analytic = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
    ASSERT_TRUE(analytic.ok());
    auto pwl = PiecewiseLinearReduction::SampleFunction(
        5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
    ASSERT_TRUE(pwl.ok());
    reduction_.emplace(*std::move(pwl));
    // Registry A: spread queries, several straddling the initial S=4 strip
    // boundaries at x = 400 / 800 / 1200.
    registry_a_.Add(Rect{100, 100, 500, 500});
    registry_a_.Add(Rect{300, 600, 900, 900});
    registry_a_.Add(Rect{700, 0, 1300, 1600});
    registry_a_.Add(Rect{1100, 200, 1500, 700});
    registry_a_.Add(Rect{0, 0, 1600, 1600});
    // Registry B (installed mid-run): drops two of A's queries, keeps the
    // straddlers shifted onto the *post-rebalance* hot region, adds new.
    registry_b_.Add(Rect{350, 350, 650, 650});
    registry_b_.Add(Rect{450, 0, 560, 1600});
    registry_b_.Add(Rect{0, 700, 1600, 900});
    registry_b_.Add(Rect{500, 500, 501, 501});
  }

  /// Lossless server config: the queue and service rate are provisioned so
  /// no update is ever dropped, hence cluster and reference CqServer apply
  /// the identical update sequence and hold the identical belief state.
  CqServerConfig LosslessConfig(int32_t nodes) {
    CqServerConfig config;
    config.num_nodes = nodes;
    config.world = kWorld;
    config.alpha = 32;
    config.queue_capacity = static_cast<size_t>(nodes) * 4;
    config.service_rate = 1e9;
    config.adaptation_period = 1e9;  // adaptations are explicit below
    config.fixed_z = 0.5;
    config.maintain_index = true;
    return config;
  }

  /// The flash-crowd batch stream: uniform random walk for the first third,
  /// then 90% of nodes concentrate into x ∈ [400, 600) so the rebalancer
  /// has real skew to act on. Reports keep crossing strip boundaries.
  std::vector<std::vector<ModelUpdate>> MakeStream(int32_t nodes,
                                                   int32_t ticks,
                                                   uint64_t seed) {
    Rng rng(seed);
    std::vector<Point> pos(nodes);
    for (int32_t id = 0; id < nodes; ++id) {
      pos[id] = {rng.Uniform(0.0, 1600.0), rng.Uniform(0.0, 1600.0)};
    }
    std::vector<std::vector<ModelUpdate>> batches(ticks);
    for (int32_t t = 0; t < ticks; ++t) {
      if (t == ticks / 3) {
        for (int32_t id = 0; id < nodes; ++id) {
          if (id % 10 != 0) {
            pos[id] = {rng.Uniform(400.0, 600.0), rng.Uniform(0.0, 1600.0)};
          }
        }
      }
      for (int32_t id = 0; id < nodes; ++id) {
        pos[id].x += rng.Uniform(-10.0, 10.0);
        pos[id].y += rng.Uniform(-10.0, 10.0);
        if (rng.Uniform(0.0, 1.0) > 0.7) continue;
        ModelUpdate u;
        u.node_id = id;
        u.model = LinearMotionModel{
            pos[id],
            {rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)},
            t * kTick};
        batches[t].push_back(u);
      }
    }
    return batches;
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  UniformDeltaPolicy policy_;
  QueryRegistry registry_a_;
  QueryRegistry registry_b_;
};

TEST_F(RebalanceTest, BoundaryQueriesBitwiseMatchUnshardedAcrossEpochs) {
  const int32_t nodes = 240;
  const int32_t ticks = 120;
  const auto batches = MakeStream(nodes, ticks, 31);

  auto server = CqServer::Create(LosslessConfig(nodes), &policy_,
                                 &*reduction_, &registry_a_);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ServerClusterConfig cluster_config;
  cluster_config.server = LosslessConfig(nodes);
  cluster_config.shards = 4;
  cluster_config.threads = 2;
  cluster_config.rebalance_stride = 1;
  cluster_config.rebalance_max_moves = 2;
  auto cluster = ServerCluster::Create(cluster_config, &policy_,
                                       &*reduction_, &registry_a_);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  Rng probe_rng(55);
  const QueryRegistry* active = &registry_a_;
  bool swapped = false;
  int64_t epoch_at_swap = -1;
  std::vector<ModelUpdate> scratch;
  for (int32_t t = 0; t < ticks; ++t) {
    scratch = batches[t];
    server->ReceiveBatch(&scratch);
    scratch = batches[t];
    (*cluster)->ReceiveBatch(&scratch);
    ASSERT_TRUE(server->Tick(kTick).ok());
    ASSERT_TRUE((*cluster)->Tick(kTick).ok());
    if ((t + 1) % 10 != 0) continue;

    ASSERT_TRUE(server->Adapt().ok());
    ASSERT_TRUE((*cluster)->Adapt().ok());
    // Losslessness precondition for bitwise comparison.
    ASSERT_EQ((*cluster)->queue_dropped(), 0);
    ASSERT_EQ((*cluster)->updates_applied(), server->updates_applied());

    // Swap the query set mid-run, once the map has left epoch 0 -- the
    // acceptance property wants add/remove with a rebalance epoch between.
    if (!swapped && (*cluster)->map_epoch() >= 1) {
      epoch_at_swap = (*cluster)->map_epoch();
      ASSERT_TRUE(server->InstallQueries(&registry_b_).ok());
      ASSERT_TRUE((*cluster)->InstallQueries(&registry_b_).ok());
      active = &registry_b_;
      swapped = true;
    }

    // Every installed (possibly boundary-straddling) query: identical
    // membership through AnswerQuery's strip-clipped shard searches.
    for (QueryId q = 0; q < active->size(); ++q) {
      auto expect = server->AnswerQuery(q);
      auto got = (*cluster)->AnswerQuery(q);
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // The unsharded server answers in tree-traversal order; the cluster's
      // contract is ascending id. Same membership, canonicalized.
      std::sort(expect->begin(), expect->end());
      ASSERT_EQ(*got, *expect) << "query " << q << " tick " << t;
    }
    // Ad-hoc probes, half crafted to straddle the *current* epoch's strip
    // boundaries, evaluated now and half a tick into the future.
    for (int probe = 0; probe < 8; ++probe) {
      Rect r;
      if (probe % 2 == 0) {
        const int32_t k = 1 + probe % ((*cluster)->num_shards() - 1);
        const double boundary = (*cluster)->shard_map().ShardRect(k).min_x;
        r = Rect{boundary - probe_rng.Uniform(20.0, 300.0),
                 probe_rng.Uniform(0.0, 800.0),
                 boundary + probe_rng.Uniform(20.0, 300.0), 1600.0};
      } else {
        const double x0 = probe_rng.Uniform(0.0, 1200.0);
        const double y0 = probe_rng.Uniform(0.0, 1200.0);
        r = Rect{x0, y0, x0 + probe_rng.Uniform(50.0, 400.0),
                 y0 + probe_rng.Uniform(50.0, 400.0)};
      }
      const double when = (*cluster)->time() + (probe % 2) * 0.05;
      auto expect = server->AnswerRange(r, when);
      auto got = (*cluster)->AnswerRange(r, when);
      ASSERT_TRUE(expect.ok() && got.ok());
      std::sort(expect->begin(), expect->end());
      ASSERT_EQ(*got, *expect) << "probe " << probe << " tick " << t;
    }
  }
  // The scenario genuinely exercised the machinery: the map rebalanced at
  // least once before the query swap and kept evolving after it.
  ASSERT_TRUE(swapped);
  EXPECT_GE(epoch_at_swap, 1);
  EXPECT_GT((*cluster)->map_epoch(), epoch_at_swap);
  EXPECT_GT((*cluster)->nodes_migrated(), 0);
}

TEST_F(RebalanceTest, RebalancedRunIsThreadCountInvariant) {
  const int32_t nodes = 200;
  const int32_t ticks = 90;
  const auto batches = MakeStream(nodes, ticks, 77);

  struct Observed {
    std::vector<int64_t> counters;
    std::vector<std::vector<NodeId>> answers;
    std::vector<double> positions;
  };
  auto run = [&](int32_t threads) -> Observed {
    ServerClusterConfig config;
    config.server = LosslessConfig(nodes);
    config.shards = 5;
    config.threads = threads;
    config.rebalance_stride = 2;
    config.rebalance_max_moves = 3;
    auto cluster =
        ServerCluster::Create(config, &policy_, &*reduction_, &registry_a_);
    EXPECT_TRUE(cluster.ok());
    Observed observed;
    std::vector<ModelUpdate> scratch;
    for (int32_t t = 0; t < ticks; ++t) {
      scratch = batches[t];
      (*cluster)->ReceiveBatch(&scratch);
      EXPECT_TRUE((*cluster)->Tick(kTick).ok());
      if ((t + 1) % 15 == 0) {
        EXPECT_TRUE((*cluster)->Adapt().ok());
        observed.counters.push_back((*cluster)->map_epoch());
        observed.counters.push_back((*cluster)->nodes_migrated());
        observed.counters.push_back((*cluster)->updates_applied());
        for (int32_t k = 0; k < (*cluster)->num_shards(); ++k) {
          observed.counters.push_back((*cluster)->shard_map().ColumnBegin(k));
        }
        for (QueryId q = 0; q < registry_a_.size(); ++q) {
          auto answer = (*cluster)->AnswerQuery(q);
          EXPECT_TRUE(answer.ok());
          observed.answers.push_back(*std::move(answer));
        }
      }
    }
    for (int32_t id = 0; id < nodes; ++id) {
      const auto p = (*cluster)->BelievedPositionAt(id, (*cluster)->time());
      observed.positions.push_back(p ? p->x : -1.0);
      observed.positions.push_back(p ? p->y : -1.0);
    }
    return observed;
  };

  const Observed serial = run(1);
  const Observed parallel_lo = run(2);
  const Observed parallel_hi = run(8);
  EXPECT_EQ(serial.counters, parallel_lo.counters);
  EXPECT_EQ(serial.counters, parallel_hi.counters);
  EXPECT_EQ(serial.answers, parallel_lo.answers);
  EXPECT_EQ(serial.answers, parallel_hi.answers);
  EXPECT_EQ(serial.positions, parallel_lo.positions);
  EXPECT_EQ(serial.positions, parallel_hi.positions);
  // And the run actually rebalanced (epoch recorded after the last Adapt).
  EXPECT_GE(serial.counters[serial.counters.size() - 8], 1);
}

TEST_F(RebalanceTest, StrideZeroKeepsTheInitialMapForever) {
  const int32_t nodes = 120;
  const auto batches = MakeStream(nodes, 60, 13);
  ServerClusterConfig config;
  config.server = LosslessConfig(nodes);
  config.shards = 4;
  config.threads = 1;
  config.rebalance_stride = 0;  // default: rebalancing disabled
  auto cluster =
      ServerCluster::Create(config, &policy_, &*reduction_, &registry_a_);
  ASSERT_TRUE(cluster.ok());
  std::vector<ModelUpdate> scratch;
  for (size_t t = 0; t < batches.size(); ++t) {
    scratch = batches[t];
    (*cluster)->ReceiveBatch(&scratch);
    ASSERT_TRUE((*cluster)->Tick(kTick).ok());
    if ((t + 1) % 10 == 0) {
      ASSERT_TRUE((*cluster)->Adapt().ok());
    }
  }
  EXPECT_EQ((*cluster)->map_epoch(), 0);
  EXPECT_EQ((*cluster)->rebalances(), 0);
  EXPECT_EQ((*cluster)->nodes_migrated(), 0);
  for (int32_t k = 0; k < 4; ++k) {
    EXPECT_EQ((*cluster)->shard_map().ColumnBegin(k), k * 8);
  }
}

}  // namespace
}  // namespace lira
