#include "lira/motion/update_reduction.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lira/mobility/traffic_model.h"
#include "lira/mobility/trip_model.h"
#include "lira/roadnet/map_generator.h"
#include "oracle/scalar_reduction_probes.h"

namespace lira {
namespace {

TEST(PiecewiseLinearReductionTest, FromKnotsNormalizesAndInterpolates) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 25.0,
                                               {2.0, 1.0, 0.5, 0.25, 0.125});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kappa(), 4);
  EXPECT_DOUBLE_EQ(f->segment_width(), 5.0);
  EXPECT_DOUBLE_EQ(f->Eval(5.0), 1.0);      // normalized to first knot
  EXPECT_DOUBLE_EQ(f->Eval(10.0), 0.5);
  EXPECT_DOUBLE_EQ(f->Eval(7.5), 0.75);     // interpolation
  EXPECT_DOUBLE_EQ(f->Eval(25.0), 0.0625);
}

TEST(PiecewiseLinearReductionTest, ClampsOutsideDomain) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 15.0, {1.0, 0.5, 0.25});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->Eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f->Eval(100.0), 0.25);
}

TEST(PiecewiseLinearReductionTest, EnforcesMonotoneNonIncrease) {
  auto f =
      PiecewiseLinearReduction::FromKnots(1.0, 4.0, {1.0, 0.6, 0.8, 0.5});
  ASSERT_TRUE(f.ok());
  // The wiggle at knot 2 is clamped down to 0.6.
  EXPECT_DOUBLE_EQ(f->Eval(3.0), 0.6);
  for (double d = 1.0; d < 4.0; d += 0.1) {
    EXPECT_GE(f->Eval(d), f->Eval(d + 0.1) - 1e-12);
  }
}

TEST(PiecewiseLinearReductionTest, RateIsRightSegmentSlope) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 15.0, {1.0, 0.4, 0.4});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->Rate(5.0), 0.12);   // (1.0-0.4)/5
  EXPECT_DOUBLE_EQ(f->Rate(7.0), 0.12);
  EXPECT_DOUBLE_EQ(f->Rate(10.0), 0.0);   // flat second segment
  EXPECT_DOUBLE_EQ(f->Rate(15.0), 0.0);
}

TEST(PiecewiseLinearReductionTest, InverseEvalFindsSmallestDelta) {
  auto f = PiecewiseLinearReduction::FromKnots(5.0, 25.0,
                                               {1.0, 0.5, 0.25, 0.2, 0.1});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->InverseEval(1.0), 5.0);
  EXPECT_DOUBLE_EQ(f->InverseEval(2.0), 5.0);    // target above f(delta_min)
  EXPECT_DOUBLE_EQ(f->InverseEval(0.5), 10.0);
  EXPECT_NEAR(f->InverseEval(0.75), 7.5, 1e-9);
  EXPECT_DOUBLE_EQ(f->InverseEval(0.05), 25.0);  // unreachable -> delta_max
  // Round-trip property: f(f^-1(y)) <= y for reachable y.
  for (double y : {0.9, 0.7, 0.45, 0.22, 0.15, 0.1}) {
    EXPECT_LE(f->Eval(f->InverseEval(y)), y + 1e-9);
  }
}

TEST(PiecewiseLinearReductionTest, RejectsBadInputs) {
  EXPECT_FALSE(PiecewiseLinearReduction::FromKnots(5.0, 5.0, {1.0, 0.5}).ok());
  EXPECT_FALSE(PiecewiseLinearReduction::FromKnots(0.0, 10.0, {1.0, 0.5}).ok());
  EXPECT_FALSE(PiecewiseLinearReduction::FromKnots(5.0, 10.0, {1.0}).ok());
  EXPECT_FALSE(
      PiecewiseLinearReduction::FromKnots(5.0, 10.0, {0.0, 0.0}).ok());
}

TEST(PiecewiseLinearReductionTest, SampleFunctionMatchesSource) {
  auto analytic = AnalyticReduction::Create(5.0, 100.0);
  ASSERT_TRUE(analytic.ok());
  auto pwl = PiecewiseLinearReduction::SampleFunction(
      5.0, 100.0, 95, [&](double d) { return analytic->Eval(d); });
  ASSERT_TRUE(pwl.ok());
  for (double d = 5.0; d <= 100.0; d += 2.5) {
    EXPECT_NEAR(pwl->Eval(d), analytic->Eval(d), 0.01) << "delta=" << d;
  }
}

TEST(AnalyticReductionTest, ShapeMatchesFigure1) {
  auto f = AnalyticReduction::Create(5.0, 100.0, 0.7, 1.0);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->Eval(5.0), 1.0);
  EXPECT_LT(f->Eval(100.0), 0.05);
  // Convex early drop: the first 15 m cut more than the next 80 m.
  EXPECT_GT(f->Eval(5.0) - f->Eval(20.0), f->Eval(20.0) - f->Eval(100.0));
  // Non-increasing everywhere.
  for (double d = 5.0; d < 100.0; d += 1.0) {
    EXPECT_GE(f->Eval(d), f->Eval(d + 1.0));
  }
}

TEST(AnalyticReductionTest, RateMatchesNumericalDerivative) {
  auto f = AnalyticReduction::Create(5.0, 100.0, 0.6, 1.2);
  ASSERT_TRUE(f.ok());
  for (double d : {6.0, 10.0, 30.0, 70.0, 95.0}) {
    const double h = 1e-5;
    const double numeric = (f->Eval(d - h) - f->Eval(d + h)) / (2 * h);
    EXPECT_NEAR(f->Rate(d), numeric, 1e-5) << "delta=" << d;
  }
}

TEST(AnalyticReductionTest, InverseEvalRoundTrip) {
  auto f = AnalyticReduction::Create(5.0, 100.0);
  ASSERT_TRUE(f.ok());
  for (double z : {0.9, 0.5, 0.25, 0.1}) {
    const double d = f->InverseEval(z);
    EXPECT_NEAR(f->Eval(d), z, 1e-6);
  }
  EXPECT_DOUBLE_EQ(f->InverseEval(1.5), 5.0);
  EXPECT_DOUBLE_EQ(f->InverseEval(0.0), 100.0);
}

TEST(AnalyticReductionTest, RejectsBadParameters) {
  EXPECT_FALSE(AnalyticReduction::Create(0.0, 100.0).ok());
  EXPECT_FALSE(AnalyticReduction::Create(10.0, 5.0).ok());
  EXPECT_FALSE(AnalyticReduction::Create(5.0, 100.0, 1.5).ok());
  EXPECT_FALSE(AnalyticReduction::Create(5.0, 100.0, 0.5, 0.0).ok());
}

class CalibrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MapGeneratorConfig map_config;
    map_config.world_side = 6000.0;
    map_config.arterial_cells = 4;
    map_config.num_towns = 2;
    auto map = GenerateMap(map_config);
    ASSERT_TRUE(map.ok());
    TrafficModelConfig traffic;
    traffic.num_vehicles = 400;
    auto model = TrafficModel::Create(map->network, traffic);
    ASSERT_TRUE(model.ok());
    auto trace = Trace::Record(*model, 240, 1.0);
    ASSERT_TRUE(trace.ok());
    trace_.emplace(*std::move(trace));
  }

  std::optional<Trace> trace_;
};

TEST_F(CalibrationTest, ProbesAreNormalizedAndDecreasing) {
  CalibrationConfig config;
  config.num_probes = 8;
  auto probes = MeasureReductionProbes(*trace_, config);
  ASSERT_TRUE(probes.ok());
  ASSERT_EQ(probes->size(), 8u);
  EXPECT_DOUBLE_EQ(probes->front().second, 1.0);
  EXPECT_DOUBLE_EQ(probes->front().first, 5.0);
  EXPECT_NEAR(probes->back().first, 100.0, 1e-9);
  // The measured curve decreases substantially across the domain.
  EXPECT_LT(probes->back().second, 0.5);
  for (size_t i = 1; i < probes->size(); ++i) {
    EXPECT_LE((*probes)[i].second, (*probes)[i - 1].second + 0.05);
  }
}

TEST_F(CalibrationTest, CalibratedPwlIsValidReductionFunction) {
  CalibrationConfig config;
  auto f = CalibrateReduction(*trace_, config);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kappa(), 95);
  EXPECT_DOUBLE_EQ(f->Eval(5.0), 1.0);
  for (double d = 5.0; d < 100.0; d += 1.0) {
    EXPECT_GE(f->Eval(d), f->Eval(d + 1.0) - 1e-12);
    EXPECT_GE(f->Rate(d), 0.0);
  }
}

TEST_F(CalibrationTest, MeasureUpdateRatePositiveAndDecreasing) {
  auto rate_min = MeasureUpdateRate(*trace_, 5.0);
  auto rate_max = MeasureUpdateRate(*trace_, 100.0);
  ASSERT_TRUE(rate_min.ok());
  ASSERT_TRUE(rate_max.ok());
  EXPECT_GT(*rate_min, 0.0);
  EXPECT_LT(*rate_max, *rate_min);
}

TEST_F(CalibrationTest, RejectsBadConfigs) {
  CalibrationConfig config;
  config.num_probes = 1;
  EXPECT_FALSE(MeasureReductionProbes(*trace_, config).ok());
  config = CalibrationConfig{};
  config.kappa = 0;
  EXPECT_FALSE(CalibrateReduction(*trace_, config).ok());
  config = CalibrationConfig{};
  config.delta_min = -1.0;
  EXPECT_FALSE(MeasureReductionProbes(*trace_, config).ok());
  EXPECT_FALSE(MeasureUpdateRate(*trace_, 0.0).ok());
}

TEST_F(CalibrationTest, RejectsNonFiniteUpdateRateDelta) {
  for (double delta : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -1.0}) {
    auto rate = MeasureUpdateRate(*trace_, delta);
    ASSERT_FALSE(rate.ok()) << "delta=" << delta;
    EXPECT_EQ(rate.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(CalibrationTest, RejectsNonFiniteThresholds) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto [lo, hi] : {std::pair{5.0, inf}, std::pair{nan, 100.0},
                        std::pair{5.0, nan}, std::pair{-inf, 100.0}}) {
    CalibrationConfig config;
    config.delta_min = lo;
    config.delta_max = hi;
    auto probes = MeasureReductionProbes(*trace_, config);
    ASSERT_FALSE(probes.ok());
    EXPECT_EQ(probes.status().code(), StatusCode::kInvalidArgument);
    auto calibration = CalibrateTrace(*trace_, config);
    ASSERT_FALSE(calibration.ok());
    EXPECT_EQ(calibration.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(CalibrateReduction(*trace_, config).ok());
  }
}

TEST(CalibrationValidationTest, ConfigIsCheckedBeforeTheTrace) {
  // Two parked nodes: the sweep would find no update at delta_min and
  // fail as degenerate, so only an up-front check reports the bad config.
  auto parked = Trace::FromFlatStates(3, 2, 1.0, std::vector<float>(24, 0.0f));
  ASSERT_TRUE(parked.ok());
  EXPECT_EQ(CalibrateTrace(*parked, CalibrationConfig{}).status().code(),
            StatusCode::kFailedPrecondition);
  CalibrationConfig config;
  config.kappa = 0;
  EXPECT_EQ(CalibrateTrace(*parked, config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CalibrateReduction(*parked, config).status().code(),
            StatusCode::kInvalidArgument);
  config = CalibrationConfig{};
  config.num_probes = 1;
  EXPECT_EQ(CalibrateTrace(*parked, config).status().code(),
            StatusCode::kInvalidArgument);
  // A one-frame trace is too short, but the bad threshold is reported.
  auto single = Trace::FromFlatStates(1, 2, 1.0, std::vector<float>(8, 0.0f));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(MeasureUpdateRate(*single, 5.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      MeasureUpdateRate(*single, std::numeric_limits<double>::quiet_NaN())
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The one-sweep calibration against the scalar per-threshold oracle, on
// random-walk and trip traces whose node counts straddle the sweep's chunk.
class CalibrationOracleTest
    : public ::testing::TestWithParam<std::tuple<bool, int32_t>> {
 protected:
  static constexpr int32_t kFrames = 200;

  static void SetUpTestSuite() {
    MapGeneratorConfig map_config;
    map_config.world_side = 6000.0;
    map_config.arterial_cells = 4;
    map_config.num_towns = 2;
    auto map = GenerateMap(map_config);
    ASSERT_TRUE(map.ok());
    map_ = new GeneratedMap(*std::move(map));
  }

  static void TearDownTestSuite() {
    delete map_;
    map_ = nullptr;
  }

  void SetUp() override {
    const auto [trips, nodes] = GetParam();
    StatusOr<Trace> trace = InternalError("unset");
    if (trips) {
      TripModelConfig traffic;
      traffic.num_vehicles = nodes;
      auto model = TripTrafficModel::Create(map_->network, traffic);
      ASSERT_TRUE(model.ok());
      trace = Trace::Record(*model, kFrames, 1.0);
    } else {
      TrafficModelConfig traffic;
      traffic.num_vehicles = nodes;
      auto model = TrafficModel::Create(map_->network, traffic);
      ASSERT_TRUE(model.ok());
      trace = Trace::Record(*model, kFrames, 1.0);
    }
    ASSERT_TRUE(trace.ok());
    trace_.emplace(*std::move(trace));
  }

  static GeneratedMap* map_;
  std::optional<Trace> trace_;
};

GeneratedMap* CalibrationOracleTest::map_ = nullptr;

TEST_P(CalibrationOracleTest, ProbesKnotsAndRatesMatchScalarPasses) {
  std::vector<double> rates;
  for (double delta : {5.0, 17.3, 100.0}) {
    auto rate = MeasureUpdateRate(*trace_, delta);
    ASSERT_TRUE(rate.ok());
    rates.push_back(oracle::ScalarUpdateRate(*trace_, delta));
    EXPECT_EQ(Bits(*rate), Bits(rates.back())) << "delta=" << delta;
  }
  ASSERT_GT(rates.front(), 0.0);
  for (int32_t num_probes : {2, 12, 16}) {
    SCOPED_TRACE("num_probes=" + std::to_string(num_probes));
    CalibrationConfig config;
    config.num_probes = num_probes;

    auto probes = MeasureReductionProbes(*trace_, config);
    ASSERT_TRUE(probes.ok());
    const auto expected = oracle::ScalarReductionProbes(*trace_, config);
    ASSERT_EQ(probes->size(), expected.size());
    for (size_t p = 0; p < expected.size(); ++p) {
      EXPECT_EQ(Bits((*probes)[p].first), Bits(expected[p].first)) << p;
      EXPECT_EQ(Bits((*probes)[p].second), Bits(expected[p].second)) << p;
    }

    auto calibration = CalibrateTrace(*trace_, config);
    ASSERT_TRUE(calibration.ok());
    auto reduction = CalibrateReduction(*trace_, config);
    ASSERT_TRUE(reduction.ok());
    auto oracle_reduction = oracle::ReductionFromProbes(config, expected);
    ASSERT_TRUE(oracle_reduction.ok());
    ASSERT_EQ(calibration->reduction.kappa(), oracle_reduction->kappa());
    for (int32_t k = 0; k <= oracle_reduction->kappa(); ++k) {
      const double d = config.delta_min + k * oracle_reduction->segment_width();
      EXPECT_EQ(Bits(calibration->reduction.Eval(d)),
                Bits(oracle_reduction->Eval(d)))
          << "knot " << k;
      EXPECT_EQ(Bits(reduction->Eval(d)), Bits(oracle_reduction->Eval(d)))
          << "knot " << k;
    }
    // rates[0] is the scalar rate at delta_min, the full load.
    EXPECT_EQ(Bits(calibration->full_update_rate), Bits(rates[0]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkEdges, CalibrationOracleTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, kCalibrationChunkNodes - 1,
                                         kCalibrationChunkNodes + 1,
                                         2 * kCalibrationChunkNodes + 452)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "Trips" : "RandomWalk") +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace lira
