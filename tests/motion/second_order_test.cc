#include "lira/motion/second_order.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "lira/mobility/traffic_model.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/update_reduction.h"
#include "lira/roadnet/map_generator.h"

namespace lira {
namespace {

PositionSample Sample(NodeId id, double t, Point p, Vec2 v) {
  PositionSample s;
  s.node_id = id;
  s.time = t;
  s.position = p;
  s.velocity = v;
  return s;
}

TEST(SecondOrderModelTest, QuadraticPrediction) {
  SecondOrderModel model;
  model.origin = {0.0, 0.0};
  model.velocity = {10.0, 0.0};
  model.acceleration = {2.0, -1.0};
  model.t0 = 5.0;
  EXPECT_EQ(model.PredictAt(5.0), (Point{0.0, 0.0}));
  // dt = 2: x = 10*2 + 0.5*2*4 = 24; y = 0.5*(-1)*4 = -2.
  EXPECT_EQ(model.PredictAt(7.0), (Point{24.0, -2.0}));
}

TEST(SecondOrderEncoderTest, FirstObservationEmits) {
  SecondOrderEncoder encoder(1);
  auto update = encoder.Observe(Sample(0, 0.0, {0, 0}, {1, 0}), 5.0);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(update->node_id, 0);
  EXPECT_EQ(encoder.updates_emitted(), 1);
}

TEST(SecondOrderEncoderTest, TracksConstantAccelerationSilently) {
  // Motion with constant acceleration: after the estimator warms up, the
  // quadratic model should track it with (almost) no further updates,
  // whereas the linear model would keep re-reporting.
  const double a = 1.0;  // m/s^2
  auto run_second_order = [&]() {
    SecondOrderEncoder encoder(1, /*accel_smoothing=*/1.0);
    int64_t count = 0;
    for (int t = 0; t <= 120; ++t) {
      const double x = 0.5 * a * t * t;
      auto u = encoder.Observe(Sample(0, t, {x, 0.0}, {a * t, 0.0}), 5.0);
      count += u.has_value() ? 1 : 0;
    }
    return count;
  };
  auto run_linear = [&]() {
    DeadReckoningEncoder encoder(1);
    int64_t count = 0;
    for (int t = 0; t <= 120; ++t) {
      const double x = 0.5 * a * t * t;
      auto u = encoder.Observe(Sample(0, t, {x, 0.0}, {a * t, 0.0}), 5.0);
      count += u.has_value() ? 1 : 0;
    }
    return count;
  };
  EXPECT_LT(run_second_order(), run_linear() / 2);
}

TEST(SecondOrderEncoderTest, EmitsOnDeviation) {
  SecondOrderEncoder encoder(1);
  encoder.Observe(Sample(0, 0.0, {0, 0}, {10, 0}), 5.0);
  // The node claims 10 m/s east but stands still: deviation grows 10 m/s.
  auto quiet = encoder.Observe(Sample(0, 0.4, {0, 0}, {10, 0}), 5.0);
  EXPECT_FALSE(quiet.has_value());
  auto loud = encoder.Observe(Sample(0, 1.0, {0, 0}, {10, 0}), 5.0);
  EXPECT_TRUE(loud.has_value());
}

TEST(SecondOrderTrackerTest, ApplyAndPredict) {
  SecondOrderTracker tracker(2);
  EXPECT_FALSE(tracker.PredictAt(0, 1.0).has_value());
  SecondOrderUpdate update;
  update.node_id = 0;
  update.model = {{0, 0}, {10, 0}, {2, 0}, 0.0};
  tracker.Apply(update);
  const auto p = tracker.PredictAt(0, 2.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (Point{24.0, 0.0}));
  EXPECT_FALSE(tracker.PredictAt(1, 2.0).has_value());
}

TEST(SecondOrderTest, EndToEndErrorBoundedByDelta) {
  // Closed loop on curved motion: encoder + tracker keep the believed
  // position within delta at observation times.
  const double delta = 6.0;
  SecondOrderEncoder encoder(1);
  SecondOrderTracker tracker(1);
  for (int t = 0; t <= 300; ++t) {
    const Point truth{200.0 * std::cos(t * 0.02), 200.0 * std::sin(t * 0.02)};
    const Vec2 vel{-4.0 * std::sin(t * 0.02), 4.0 * std::cos(t * 0.02)};
    auto update = encoder.Observe(Sample(0, t, truth, vel), delta);
    if (update.has_value()) {
      tracker.Apply(*update);
    }
    const auto believed = tracker.PredictAt(0, t);
    ASSERT_TRUE(believed.has_value());
    EXPECT_LE(Distance(*believed, truth), delta + 1e-9) << "t=" << t;
  }
}

TEST(SecondOrderTest, MeasuredRateOnRealTrace) {
  MapGeneratorConfig map_config;
  map_config.world_side = 6000.0;
  map_config.arterial_cells = 4;
  map_config.num_towns = 2;
  auto map = GenerateMap(map_config);
  ASSERT_TRUE(map.ok());
  TrafficModelConfig traffic;
  traffic.num_vehicles = 300;
  auto model = TrafficModel::Create(map->network, traffic);
  ASSERT_TRUE(model.ok());
  auto trace = Trace::Record(*model, 180, 1.0);
  ASSERT_TRUE(trace.ok());

  auto second_order = MeasureSecondOrderUpdateRate(*trace, 25.0);
  auto linear = MeasureUpdateRate(*trace, 25.0);
  ASSERT_TRUE(second_order.ok());
  ASSERT_TRUE(linear.ok());
  EXPECT_GT(*second_order, 0.0);
  // On noisy traffic the quadratic model must stay in the same ballpark as
  // the linear one (within 2x either way); the point is that the machinery
  // above the motion model is model-agnostic.
  EXPECT_LT(*second_order, 2.0 * *linear);
  EXPECT_GT(*second_order, 0.2 * *linear);
  // Validation.
  EXPECT_FALSE(MeasureSecondOrderUpdateRate(*trace, 0.0).ok());
  EXPECT_FALSE(MeasureSecondOrderUpdateRate(
                   *trace, std::numeric_limits<double>::quiet_NaN())
                   .ok());
}

}  // namespace
}  // namespace lira
