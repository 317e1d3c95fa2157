#include "lira/roadnet/map_generator.h"

#include <limits>

#include <gtest/gtest.h>

namespace lira {
namespace {

TEST(MapGeneratorTest, DefaultConfigProducesConnectedNetwork) {
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE(map->network.Validate().ok());
  EXPECT_GT(map->network.NumIntersections(), 50);
  EXPECT_GT(map->network.NumSegments(), 100);
  EXPECT_EQ(static_cast<int32_t>(map->towns.size()), 5);
}

TEST(MapGeneratorTest, Deterministic) {
  const MapGeneratorConfig config;
  auto a = GenerateMap(config);
  auto b = GenerateMap(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->network.NumIntersections(), b->network.NumIntersections());
  ASSERT_EQ(a->network.NumSegments(), b->network.NumSegments());
  for (IntersectionId i = 0; i < a->network.NumIntersections(); ++i) {
    EXPECT_EQ(a->network.IntersectionPosition(i),
              b->network.IntersectionPosition(i));
  }
}

TEST(MapGeneratorTest, DifferentSeedsDiffer) {
  MapGeneratorConfig config;
  auto a = GenerateMap(config);
  config.seed = 1234;
  auto b = GenerateMap(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool differs =
      a->network.NumIntersections() != b->network.NumIntersections();
  if (!differs) {
    for (IntersectionId i = 0; i < a->network.NumIntersections(); ++i) {
      if (!(a->network.IntersectionPosition(i) ==
            b->network.IntersectionPosition(i))) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(MapGeneratorTest, AllIntersectionsInsideWorld) {
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  const Rect world = map->world;
  for (IntersectionId i = 0; i < map->network.NumIntersections(); ++i) {
    const Point p = map->network.IntersectionPosition(i);
    EXPECT_GE(p.x, world.min_x);
    EXPECT_LE(p.x, world.max_x);
    EXPECT_GE(p.y, world.min_y);
    EXPECT_LE(p.y, world.max_y);
  }
}

TEST(MapGeneratorTest, TownsAreInsideWorldAndContainCollectors) {
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  for (const Rect& town : map->towns) {
    EXPECT_GT(town.Area(), 0.0);
    EXPECT_GE(town.min_x, map->world.min_x - 1e-6);
    EXPECT_LE(town.max_x, map->world.max_x + 1e-6);
  }
  // Collector segments exist and lie (mostly) inside town rectangles.
  int collectors_in_towns = 0;
  int collectors = 0;
  for (SegmentId s = 0; s < map->network.NumSegments(); ++s) {
    const RoadSegment& seg = map->network.Segment(s);
    if (seg.road_class != RoadClass::kCollector) {
      continue;
    }
    ++collectors;
    const Point mid = map->network.PointOnSegment(s, seg.length / 2);
    for (const Rect& town : map->towns) {
      if (town.Contains(mid)) {
        ++collectors_in_towns;
        break;
      }
    }
  }
  EXPECT_GT(collectors, 0);
  EXPECT_EQ(collectors, collectors_in_towns);
}

TEST(MapGeneratorTest, HasAllThreeRoadClasses) {
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  int counts[kNumRoadClasses] = {0, 0, 0};
  for (SegmentId s = 0; s < map->network.NumSegments(); ++s) {
    ++counts[static_cast<int>(map->network.Segment(s).road_class)];
  }
  EXPECT_GT(counts[static_cast<int>(RoadClass::kExpressway)], 0);
  EXPECT_GT(counts[static_cast<int>(RoadClass::kArterial)], 0);
  EXPECT_GT(counts[static_cast<int>(RoadClass::kCollector)], 0);
}

TEST(MapGeneratorTest, RejectsInvalidConfigs) {
  MapGeneratorConfig config;
  config.world_side = -1.0;
  EXPECT_FALSE(GenerateMap(config).ok());
  config = MapGeneratorConfig{};
  config.arterial_cells = 1;
  EXPECT_FALSE(GenerateMap(config).ok());
  config = MapGeneratorConfig{};
  config.collector_spacing = 0.0;
  EXPECT_FALSE(GenerateMap(config).ok());
  config = MapGeneratorConfig{};
  config.num_towns = -2;
  EXPECT_FALSE(GenerateMap(config).ok());
}

TEST(MapGeneratorTest, RejectsNonFiniteSizesUpFront) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    MapGeneratorConfig config;
    config.world_side = bad;
    auto map = GenerateMap(config);
    EXPECT_FALSE(map.ok()) << bad;
    EXPECT_EQ(map.status().code(), StatusCode::kInvalidArgument) << bad;
    config = MapGeneratorConfig{};
    config.collector_spacing = bad;
    map = GenerateMap(config);
    EXPECT_FALSE(map.ok()) << bad;
    EXPECT_EQ(map.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(MapGeneratorTest, NoTownsStillConnected) {
  MapGeneratorConfig config;
  config.num_towns = 0;
  auto map = GenerateMap(config);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE(map->network.Validate().ok());
  EXPECT_TRUE(map->towns.empty());
}

TEST(MapGeneratorTest, SmallWorldWorks) {
  MapGeneratorConfig config;
  config.world_side = 2000.0;
  config.arterial_cells = 4;
  config.num_towns = 1;
  config.collector_spacing = 120.0;
  auto map = GenerateMap(config);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE(map->network.Validate().ok());
}

}  // namespace
}  // namespace lira
