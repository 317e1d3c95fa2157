// Trace::Record (one pass: each vehicle advances and writes its state into
// the frame row) against the two-pass oracle (Tick everything, then sample
// every vehicle from the road network's geometry), bit for bit, for both
// mobility models.

#include "lira/mobility/trace.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "lira/mobility/traffic_model.h"
#include "lira/mobility/trip_model.h"
#include "lira/roadnet/map_generator.h"
#include "oracle/two_pass_recorder.h"

namespace lira {
namespace {

constexpr int32_t kFrames = 40;

const GeneratedMap& DefaultMap() {
  static const GeneratedMap* map = [] {
    auto generated = GenerateMap(MapGeneratorConfig{});
    EXPECT_TRUE(generated.ok());
    return new GeneratedMap(*std::move(generated));
  }();
  return *map;
}

void ExpectSameBits(const Trace& got, const Trace& want) {
  ASSERT_EQ(got.num_frames(), want.num_frames());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.dt(), want.dt());
  for (int32_t f = 0; f < want.num_frames(); ++f) {
    ASSERT_EQ(std::memcmp(got.FrameData(f), want.FrameData(f),
                          4 * sizeof(float) * want.num_nodes()),
              0)
        << "frame " << f;
  }
}

// (nodes, dt). dt = 30 s drives vehicles across several intersections per
// tick.
class TraceRecordTest
    : public ::testing::TestWithParam<std::tuple<int32_t, double>> {};

TEST_P(TraceRecordTest, RandomWalkMatchesTwoPassOracle) {
  const auto [nodes, dt] = GetParam();
  TrafficModelConfig config;
  config.num_vehicles = nodes;
  auto one_pass = TrafficModel::Create(DefaultMap().network, config);
  auto two_pass = TrafficModel::Create(DefaultMap().network, config);
  ASSERT_TRUE(one_pass.ok());
  ASSERT_TRUE(two_pass.ok());
  auto got = Trace::Record(*one_pass, kFrames, dt);
  auto want =
      oracle::RecordTwoPass(*two_pass, DefaultMap().network, kFrames, dt);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameBits(*got, *want);
  EXPECT_EQ(one_pass->CurrentTime(), two_pass->CurrentTime());
}

TEST_P(TraceRecordTest, TripsMatchTwoPassOracle) {
  const auto [nodes, dt] = GetParam();
  TripModelConfig config;
  config.num_vehicles = nodes;
  auto one_pass = TripTrafficModel::Create(DefaultMap().network, config);
  auto two_pass = TripTrafficModel::Create(DefaultMap().network, config);
  ASSERT_TRUE(one_pass.ok());
  ASSERT_TRUE(two_pass.ok());
  auto got = Trace::Record(*one_pass, kFrames, dt);
  auto want =
      oracle::RecordTwoPass(*two_pass, DefaultMap().network, kFrames, dt);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameBits(*got, *want);
  EXPECT_EQ(one_pass->trips_completed(), two_pass->trips_completed());
  if (nodes == 2000) {
    EXPECT_GT(one_pass->trips_completed(), 0);  // trips re-planned mid-trace
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndDt, TraceRecordTest,
    ::testing::Combine(::testing::Values(1, 17, 2000),
                       ::testing::Values(0.5, 1.0, 30.0)),
    [](const ::testing::TestParamInfo<TraceRecordTest::ParamType>& info) {
      const double dt = std::get<1>(info.param);
      return "n" + std::to_string(std::get<0>(info.param)) + "_dt" +
             std::to_string(static_cast<int>(dt)) +
             (dt != std::floor(dt) ? "_5" : "");
    });

TEST(TraceRecordValidationTest, RejectsNonFiniteDt) {
  TrafficModelConfig config;
  config.num_vehicles = 5;
  auto model = TrafficModel::Create(DefaultMap().network, config);
  ASSERT_TRUE(model.ok());
  for (double dt : {std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity(), -1.0}) {
    auto trace = Trace::Record(*model, 10, dt);
    EXPECT_FALSE(trace.ok()) << dt;
    EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument) << dt;
  }
  // Nothing was advanced by the rejected calls.
  EXPECT_EQ(model->CurrentTime(), 0.0);
}

}  // namespace
}  // namespace lira
