#include "lira/sim/world.h"

#include <limits>

#include <gtest/gtest.h>

#include "lira/mobility/trace_io.h"
#include "lira/sim/experiment.h"
#include "lira/sim/simulation.h"

namespace lira {
namespace {

WorldConfig SmallConfig() {
  WorldConfig config = DefaultWorldConfig(/*num_nodes=*/300);
  config.map.world_side = 6000.0;
  config.map.arterial_cells = 4;
  config.map.num_towns = 2;
  config.trace_frames = 120;
  return config;
}

TEST(WorldTest, BuildsAllComponents) {
  auto world = BuildWorld(SmallConfig());
  ASSERT_TRUE(world.ok());
  EXPECT_EQ(world->num_nodes(), 300);
  EXPECT_EQ(world->trace.num_frames(), 120);
  EXPECT_EQ(world->queries.size(), 3);  // 0.01 * 300
  EXPECT_GT(world->full_update_rate, 0.0);
  EXPECT_DOUBLE_EQ(world->reduction.delta_min(), 5.0);
  EXPECT_DOUBLE_EQ(world->reduction.delta_max(), 100.0);
  EXPECT_DOUBLE_EQ(world->world_rect().width(), 6000.0);
}

TEST(WorldTest, QueriesInsideWorld) {
  auto world = BuildWorld(SmallConfig());
  ASSERT_TRUE(world.ok());
  for (const RangeQuery& q : world->queries.queries()) {
    EXPECT_GE(q.range.min_x, world->world_rect().min_x - 1e-9);
    EXPECT_LE(q.range.max_x, world->world_rect().max_x + 1e-9);
  }
}

TEST(WorldTest, DeterministicForSeed) {
  auto a = BuildWorld(SmallConfig());
  auto b = BuildWorld(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->full_update_rate, b->full_update_rate);
  EXPECT_EQ(a->trace.Position(50, 7), b->trace.Position(50, 7));
  EXPECT_EQ(a->queries.Get(0).range, b->queries.Get(0).range);
}

TEST(WorldTest, SeedChangesWorld) {
  auto a = BuildWorld(SmallConfig());
  WorldConfig other = SmallConfig();
  other.seed = 4242;
  auto b = BuildWorld(other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->trace.Position(50, 7) == b->trace.Position(50, 7));
}

TEST(WorldTest, QueryCountFollowsRatio) {
  WorldConfig config = SmallConfig();
  config.query_node_ratio = 0.1;
  auto world = BuildWorld(config);
  ASSERT_TRUE(world.ok());
  EXPECT_EQ(world->queries.size(), 30);
}

TEST(WorldTest, RejectsNegativeRatio) {
  WorldConfig config = SmallConfig();
  config.query_node_ratio = -0.5;
  EXPECT_FALSE(BuildWorld(config).ok());
}

TEST(WorldTest, RejectsNonFiniteValuesBeforeAnyWork) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNaN, kInf, -kInf}) {
    WorldConfig config = SmallConfig();
    config.dt = bad;
    auto world = BuildWorld(config);
    ASSERT_FALSE(world.ok()) << bad;
    EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument) << bad;

    config = SmallConfig();
    config.map.world_side = bad;
    world = BuildWorld(config);
    ASSERT_FALSE(world.ok()) << bad;
    EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument) << bad;

    config = SmallConfig();
    config.query_node_ratio = bad;
    world = BuildWorld(config);
    ASSERT_FALSE(world.ok()) << bad;
    EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  WorldConfig config = SmallConfig();
  config.trace_frames = 0;
  EXPECT_EQ(BuildWorld(config).status().code(), StatusCode::kInvalidArgument);
}

TEST(WorldTest, CalibratedReductionIsUsable) {
  auto world = BuildWorld(SmallConfig());
  ASSERT_TRUE(world.ok());
  const auto& f = world->reduction;
  EXPECT_DOUBLE_EQ(f.Eval(5.0), 1.0);
  EXPECT_LT(f.Eval(100.0), 0.6);
  EXPECT_GE(f.InverseEval(0.5), 5.0);
  EXPECT_LE(f.InverseEval(0.5), 100.0);
}

TEST(WorldFromTraceTest, ExternalTraceDrivesTheHarness) {
  // Round-trip a synthetic trace through CSV and rebuild the world around
  // the loaded copy; the result must be runnable and nearly identical to
  // the directly built world.
  WorldConfig config = SmallConfig();
  auto direct = BuildWorld(config);
  ASSERT_TRUE(direct.ok());
  const std::string path =
      std::string(::testing::TempDir()) + "/world_trace.csv";
  ASSERT_TRUE(SaveTraceCsv(direct->trace, path).ok());
  auto loaded = LoadTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  auto external = BuildWorldFromTrace(*std::move(loaded),
                                      direct->world_rect(), config);
  ASSERT_TRUE(external.ok());
  EXPECT_EQ(external->num_nodes(), direct->num_nodes());
  EXPECT_EQ(external->queries.size(), direct->queries.size());
  EXPECT_NEAR(external->full_update_rate, direct->full_update_rate,
              0.05 * direct->full_update_rate);
  EXPECT_TRUE(external->map.network.NumSegments() == 0);  // stub map

  SimulationConfig sim = DefaultSimulationConfig();
  sim.warmup_frames = 60;
  sim.alpha = 32;
  const LiraPolicy lira(LiraConfig{.l = 40});
  auto result = RunSimulation(*external, lira, sim);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->metrics.mean_containment_error, 0.0);
}

TEST(WorldFromTraceTest, Validation) {
  WorldConfig config = SmallConfig();
  auto direct = BuildWorld(config);
  ASSERT_TRUE(direct.ok());
  // World rect that excludes the trace.
  auto bad_rect = BuildWorldFromTrace(direct->trace, Rect{0, 0, 10, 10},
                                      config);
  EXPECT_FALSE(bad_rect.ok());
  auto degenerate =
      BuildWorldFromTrace(direct->trace, Rect{0, 0, 0, 100}, config);
  EXPECT_FALSE(degenerate.ok());
  config.query_node_ratio = -1.0;
  EXPECT_FALSE(
      BuildWorldFromTrace(direct->trace, direct->world_rect(), config).ok());
}

}  // namespace
}  // namespace lira
