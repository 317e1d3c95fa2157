#include "lira/server/ingest_stage.h"

#include <vector>

#include <gtest/gtest.h>

#include "lira/telemetry/telemetry.h"

namespace lira {
namespace {

ModelUpdate UpdateFor(NodeId id, double t) {
  ModelUpdate u;
  u.node_id = id;
  u.model = LinearMotionModel{{10.0, 10.0}, {0.0, 0.0}, t};
  return u;
}

std::vector<ModelUpdate> Batch(NodeId first, NodeId last, double t) {
  std::vector<ModelUpdate> batch;
  for (NodeId id = first; id < last; ++id) {
    batch.push_back(UpdateFor(id, t));
  }
  return batch;
}

TEST(IngestStageTest, CreateValidation) {
  IngestStageConfig config;
  EXPECT_TRUE(IngestStage::Create(config).ok());
  config.service_rate = 0.0;
  EXPECT_FALSE(IngestStage::Create(config).ok());
  config = IngestStageConfig{};
  config.queue_capacity = 0;
  EXPECT_FALSE(IngestStage::Create(config).ok());
}

TEST(IngestStageTest, ReceiveAdmitsUpToCapacityAndReportsDrops) {
  IngestStageConfig config;
  config.queue_capacity = 5;
  auto stage = IngestStage::Create(config);
  ASSERT_TRUE(stage.ok());
  auto batch = Batch(0, 20, 0.0);
  EXPECT_EQ(stage->Receive(&batch), 15);
  EXPECT_EQ(stage->queue().size(), 5u);
  EXPECT_EQ(stage->queue().total_arrivals(), 20);
  EXPECT_EQ(stage->queue().total_dropped(), 15);
}

TEST(IngestStageTest, ServiceCreditCarriesFractionsAcrossTicks) {
  IngestStageConfig config;
  config.queue_capacity = 100;
  config.service_rate = 2.5;
  auto stage = IngestStage::Create(config);
  ASSERT_TRUE(stage.ok());
  auto batch = Batch(0, 10, 0.0);
  stage->Receive(&batch);
  // 2.5 upd/s: 2, then 3 (0.5 credit carried), then 2, ...
  EXPECT_EQ(stage->Service(1.0).size(), 2u);
  EXPECT_EQ(stage->Service(1.0).size(), 3u);
  EXPECT_EQ(stage->Service(1.0).size(), 2u);
  EXPECT_EQ(stage->Service(1.0).size(), 3u);
  EXPECT_EQ(stage->queue().size(), 0u);
  EXPECT_TRUE(stage->Service(1.0).empty());
}

TEST(IngestStageTest, WindowResetSupportsThrotloopMeasurement) {
  IngestStageConfig config;
  config.queue_capacity = 8;
  auto stage = IngestStage::Create(config);
  ASSERT_TRUE(stage.ok());
  auto batch = Batch(0, 10, 0.0);
  stage->Receive(&batch);
  EXPECT_EQ(stage->queue().window_arrivals(), 10);
  EXPECT_EQ(stage->queue().window_dropped(), 2);
  stage->ResetWindow();
  EXPECT_EQ(stage->queue().window_arrivals(), 0);
  EXPECT_EQ(stage->queue().window_dropped(), 0);
  EXPECT_EQ(stage->queue().total_arrivals(), 10);
}

TEST(IngestStageTest, InstrumentsUseConfiguredPrefix) {
  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  IngestStageConfig config;
  config.queue_capacity = 4;
  config.metric_prefix = "lira.shard3";
  config.telemetry = &sink;
  auto stage = IngestStage::Create(config);
  ASSERT_TRUE(stage.ok());
  auto batch = Batch(0, 6, 1.0);
  stage->Receive(&batch);
  const telemetry::MetricRegistry& metrics = sink.metrics();
  EXPECT_EQ(metrics.FindCounter("lira.shard3.queue.arrivals")->value(), 6);
  EXPECT_EQ(metrics.FindCounter("lira.shard3.queue.dropped")->value(), 2);
  EXPECT_DOUBLE_EQ(metrics.FindGauge("lira.shard3.queue.depth")->value(),
                   4.0);
  // Drops are counted; the overflow event is the pipeline's to emit
  // (ServerPipeline::ReceiveBatch), never the stage's.
  EXPECT_TRUE(events.Select(telemetry::EventKind::kQueueOverflow).empty());
}

}  // namespace
}  // namespace lira
