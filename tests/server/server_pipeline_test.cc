// The control loop CqServer and ServerCluster share (ServerPipeline): span
// nesting on every trace lane, the coordinator flight samples of an S=1
// cluster against the single server's, and the ingest validation.

#include "lira/server/server_pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/rng.h"
#include "lira/server/cq_server.h"
#include "lira/server/server_cluster.h"
#include "lira/telemetry/flight_recorder.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"

namespace lira {
namespace {

using telemetry::FlightRecorder;
using telemetry::FlightSample;
using telemetry::SpanRecord;
using telemetry::TraceRecorder;

constexpr Rect kWorld{0.0, 0.0, 1600.0, 1600.0};
constexpr int32_t kNodes = 80;

class ServerPipelineTest : public ::testing::Test {
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

  /// Overloaded (the queue drops) with THROTLOOP on, so every adaptation
  /// phase has work to do.
  CqServerConfig BaseConfig() {
    CqServerConfig config;
    config.num_nodes = kNodes;
    config.world = kWorld;
    config.alpha = 16;
    config.queue_capacity = 64;
    config.service_rate = 30.0;
    config.adaptation_period = 4.0;
    config.auto_throttle = true;
    return config;
  }

  /// shards == 0 builds a CqServer, otherwise a ServerCluster with
  /// rebalancing on every adaptation.
  std::unique_ptr<ServerPipeline> MustCreate(const CqServerConfig& config,
                                             int32_t shards) {
    if (shards == 0) {
      auto server =
          CqServer::Create(config, &uniform_policy_, &*reduction_, &queries_);
      EXPECT_TRUE(server.ok()) << server.status().ToString();
      return std::make_unique<CqServer>(*std::move(server));
    }
    ServerClusterConfig cluster_config;
    cluster_config.server = config;
    cluster_config.shards = shards;
    cluster_config.threads = 2;
    cluster_config.rebalance_stride = 1;
    auto cluster = ServerCluster::Create(cluster_config, &uniform_policy_,
                                         &*reduction_, &queries_);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return *std::move(cluster);
  }

  /// One tick's random traffic; the same stream for every pipeline that
  /// is driven with the same seed.
  static std::vector<ModelUpdate> RandomBatch(Rng& rng, double t) {
    std::vector<ModelUpdate> batch;
    for (NodeId id = 0; id < kNodes; ++id) {
      if (rng.Uniform(0.0, 1.0) < 0.3) continue;
      ModelUpdate u;
      u.node_id = id;
      u.model = LinearMotionModel{
          {rng.Uniform(-40.0, 1640.0), rng.Uniform(-40.0, 1640.0)},
          {rng.Uniform(-8.0, 8.0), rng.Uniform(-8.0, 8.0)},
          t};
      batch.push_back(u);
    }
    return batch;
  }

  static void Drive(ServerPipeline* server, int32_t ticks) {
    Rng rng(77);
    for (int t = 0; t < ticks; ++t) {
      std::vector<ModelUpdate> batch = RandomBatch(rng, t);
      server->ReceiveBatch(&batch);
      ASSERT_TRUE(server->Tick(1.0).ok());
    }
  }

  std::optional<PiecewiseLinearReduction> reduction_;
  QueryRegistry queries_;
  UniformDeltaPolicy uniform_policy_;
};

/// Returns the first span on the lane that starts inside an open span and
/// ends after it (nullptr when every child closes inside its parent).
const SpanRecord* FirstEscapingChild(const std::vector<SpanRecord>& spans,
                                     const SpanRecord** parent) {
  std::vector<const SpanRecord*> sorted;
  for (const SpanRecord& span : spans) {
    sorted.push_back(&span);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_ns != b->start_ns
                         ? a->start_ns < b->start_ns
                         : a->duration_ns > b->duration_ns;
            });
  const auto end_of = [](const SpanRecord* s) {
    return s->start_ns + s->duration_ns;
  };
  std::vector<const SpanRecord*> open;
  for (const SpanRecord* span : sorted) {
    while (!open.empty() && end_of(open.back()) <= span->start_ns) {
      open.pop_back();
    }
    if (!open.empty() && end_of(span) > end_of(open.back())) {
      *parent = open.back();
      return span;
    }
    open.push_back(span);
  }
  return nullptr;
}

TEST_F(ServerPipelineTest, ChildSpansCloseInsideTheirParentOnEveryLane) {
  for (int32_t shards : {0, 1, 4}) {
    TraceRecorder recorder(/*lanes=*/shards + 1);
    CqServerConfig config = BaseConfig();
    config.trace = &recorder;
    auto server = MustCreate(config, shards);
    Drive(server.get(), 24);
    ASSERT_GE(server->plan_builds(), 5) << "shards=" << shards;

    size_t spans = 0;
    for (int32_t lane = 0; lane < recorder.num_lanes(); ++lane) {
      const std::vector<SpanRecord>& lane_spans =
          recorder.lane(lane)->spans();
      spans += lane_spans.size();
      EXPECT_FALSE(lane_spans.empty())
          << "shards=" << shards << " lane " << lane;
      const SpanRecord* parent = nullptr;
      const SpanRecord* child = FirstEscapingChild(lane_spans, &parent);
      EXPECT_EQ(child, nullptr)
          << "shards=" << shards << " lane " << lane << ": "
          << (child != nullptr ? child->name : "") << " escapes "
          << (parent != nullptr ? parent->name : "");
    }
    EXPECT_EQ(spans, recorder.TotalSpans());
  }
}

TEST_F(ServerPipelineTest, SingleShardCoordinatorSamplesEqualCqServer) {
  FlightRecorder single_flight(256, "single");
  FlightRecorder cluster_flight(256, "cluster");
  CqServerConfig config = BaseConfig();
  config.flight_recorder = &single_flight;
  auto single = MustCreate(config, 0);
  config.flight_recorder = &cluster_flight;
  auto cluster = MustCreate(config, 1);
  Drive(single.get(), 30);
  Drive(cluster.get(), 30);
  ASSERT_GE(single->plan_builds(), 7);

  const std::vector<FlightSample> expected = single_flight.Snapshot();
  std::vector<FlightSample> coordinator;
  for (const FlightSample& sample : cluster_flight.Snapshot()) {
    if (sample.shard == -1) {
      coordinator.push_back(sample);
    }
  }
  ASSERT_EQ(expected.size(), 30u);
  ASSERT_EQ(coordinator.size(), expected.size());
  int64_t drops = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const FlightSample& a = expected[i];
    const FlightSample& b = coordinator[i];
    EXPECT_EQ(a.tick, b.tick) << "sample " << i;
    EXPECT_EQ(a.time, b.time) << "sample " << i;
    EXPECT_EQ(a.shard, b.shard) << "sample " << i;
    EXPECT_EQ(a.queue_depth, b.queue_depth) << "sample " << i;
    EXPECT_EQ(a.queue_dropped, b.queue_dropped) << "sample " << i;
    EXPECT_EQ(a.queue_arrivals, b.queue_arrivals) << "sample " << i;
    EXPECT_EQ(a.z, b.z) << "sample " << i;
    EXPECT_EQ(a.lambda, b.lambda) << "sample " << i;
    EXPECT_EQ(a.utilization, b.utilization) << "sample " << i;
    EXPECT_EQ(a.nodes, b.nodes) << "sample " << i;
    EXPECT_EQ(a.plan_regions, b.plan_regions) << "sample " << i;
    EXPECT_EQ(a.plan_min_delta, b.plan_min_delta) << "sample " << i;
    EXPECT_EQ(a.plan_max_delta, b.plan_max_delta) << "sample " << i;
    drops = a.queue_dropped;
  }
  // The samples saw real load: drops, a THROTLOOP step and tracked nodes.
  EXPECT_GT(drops, 0);
  EXPECT_GT(expected.back().lambda, 0.0);
  EXPECT_GT(expected.back().nodes, 0);
}

ModelUpdate UpdateFor(NodeId id, Point p, Vec2 v, double t) {
  ModelUpdate u;
  u.node_id = id;
  u.model = LinearMotionModel{p, v, t};
  return u;
}

TEST_F(ServerPipelineTest, MalformedUpdatesAreRejectedNotCrashed) {
  // The two crash reproductions: a NaN velocity used to abort the next
  // Adapt() in GREEDYINCREMENT, and node_id 5000000 sent to a 50-node
  // server wrote past the tracker's columns (and the cluster's owner map).
  // A NaN origin would have reached the shard router's column cast.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (int32_t shards : {0, 4}) {
    telemetry::TelemetrySink sink;
    CqServerConfig config = BaseConfig();
    config.num_nodes = 50;
    config.telemetry = &sink;
    auto server = MustCreate(config, shards);

    server->Receive({UpdateFor(3, {100.0, 100.0}, {kNaN, 1.0}, 0.0)});
    ASSERT_TRUE(server->Tick(1.0).ok());
    ASSERT_TRUE(server->Adapt().ok()) << "shards=" << shards;
    server->Receive({UpdateFor(5000000, {100.0, 100.0}, {1.0, 1.0}, 1.0),
                     UpdateFor(4, {kNaN, 100.0}, {1.0, 1.0}, 1.0),
                     UpdateFor(7, {200.0, 300.0}, {1.0, 0.0}, 1.0)});
    ASSERT_TRUE(server->Tick(1.0).ok());
    ASSERT_TRUE(server->Adapt().ok()) << "shards=" << shards;

    EXPECT_EQ(server->rejected_node_id(), 1) << "shards=" << shards;
    EXPECT_EQ(server->rejected_non_finite(), 2) << "shards=" << shards;
    EXPECT_EQ(sink.metrics().FindCounter("lira.ingest.rejected.node_id")
                  ->value(),
              1);
    EXPECT_EQ(sink.metrics().FindCounter("lira.ingest.rejected.non_finite")
                  ->value(),
              2);
    // Only the valid update arrived and was applied.
    EXPECT_EQ(server->queue_arrivals(), 1) << "shards=" << shards;
    EXPECT_EQ(server->updates_applied(), 1) << "shards=" << shards;
    EXPECT_EQ(server->stats().TotalNodes(), 1.0) << "shards=" << shards;
    EXPECT_FALSE(server->BelievedPositionAt(3, server->time()).has_value());
    EXPECT_FALSE(server->BelievedPositionAt(4, server->time()).has_value());
    EXPECT_TRUE(server->BelievedPositionAt(7, server->time()).has_value());
  }
}

void ExpectSamePlan(const SheddingPlan& a, const SheddingPlan& b) {
  ASSERT_EQ(a.NumRegions(), b.NumRegions());
  for (int32_t r = 0; r < a.NumRegions(); ++r) {
    EXPECT_EQ(a.regions()[r].area, b.regions()[r].area) << "region " << r;
    EXPECT_EQ(a.regions()[r].delta, b.regions()[r].delta) << "region " << r;
  }
}

TEST_F(ServerPipelineTest, RejectionIsAnExactFilter) {
  // A run with malformed updates mixed into every batch must equal the run
  // that never saw them: same plan, z, queue accounting and believed
  // positions, tick by tick.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int32_t shards : {0, 4}) {
    auto clean = MustCreate(BaseConfig(), shards);
    auto dirty = MustCreate(BaseConfig(), shards);
    Rng traffic(31);
    Rng inject(32);
    int64_t injected_id = 0;
    int64_t injected_non_finite = 0;
    for (int t = 0; t < 30; ++t) {
      std::vector<ModelUpdate> batch = RandomBatch(traffic, t);
      std::vector<ModelUpdate> mixed;
      for (const ModelUpdate& update : batch) {
        if (inject.Uniform(0.0, 1.0) < 0.2) {
          ModelUpdate bad = update;
          switch (static_cast<int>(inject.Uniform(0.0, 6.0))) {
            case 0:
              bad.node_id = 5000000;
              ++injected_id;
              break;
            case 1:
              bad.node_id = inject.Uniform(0.0, 1.0) < 0.5 ? -1 : kNodes;
              ++injected_id;
              break;
            case 2:
              bad.model.velocity.x = kNaN;
              ++injected_non_finite;
              break;
            case 3:
              bad.model.origin.y = -kInf;
              ++injected_non_finite;
              break;
            case 4:
              bad.model.origin.x = kNaN;
              ++injected_non_finite;
              break;
            default:
              bad.model.t0 = kInf;
              ++injected_non_finite;
              break;
          }
          mixed.push_back(bad);
        }
        mixed.push_back(update);
      }
      clean->ReceiveBatch(&batch);
      dirty->ReceiveBatch(&mixed);
      ASSERT_TRUE(clean->Tick(1.0).ok());
      ASSERT_TRUE(dirty->Tick(1.0).ok());
      ASSERT_EQ(dirty->z(), clean->z()) << "shards=" << shards << " t=" << t;
      ASSERT_EQ(dirty->queue_arrivals(), clean->queue_arrivals());
      ASSERT_EQ(dirty->queue_dropped(), clean->queue_dropped());
      ASSERT_EQ(dirty->queue_size(), clean->queue_size());
      ASSERT_EQ(dirty->updates_applied(), clean->updates_applied());
      ExpectSamePlan(dirty->plan(), clean->plan());
    }
    ASSERT_GE(clean->plan_builds(), 7);
    EXPECT_GT(clean->queue_dropped(), 0);
    EXPECT_GT(injected_id, 0);
    EXPECT_GT(injected_non_finite, 0);
    EXPECT_EQ(dirty->rejected_node_id(), injected_id);
    EXPECT_EQ(dirty->rejected_non_finite(), injected_non_finite);
    EXPECT_EQ(clean->rejected_node_id() + clean->rejected_non_finite(), 0);
    for (NodeId id = 0; id < kNodes; ++id) {
      const auto a = dirty->BelievedPositionAt(id, dirty->time());
      const auto b = clean->BelievedPositionAt(id, clean->time());
      ASSERT_EQ(a.has_value(), b.has_value()) << "id=" << id;
      if (a.has_value()) {
        ASSERT_EQ(*a, *b) << "id=" << id;
      }
    }
  }
}

}  // namespace
}  // namespace lira
