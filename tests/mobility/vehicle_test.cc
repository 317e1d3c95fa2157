#include "lira/mobility/vehicle.h"

#include <cmath>

#include <gtest/gtest.h>

#include "lira/roadnet/map_generator.h"

namespace lira {
namespace {

RoadNetwork MakeSquare() {
  RoadNetwork net;
  net.AddIntersection({0.0, 0.0});
  net.AddIntersection({1000.0, 0.0});
  net.AddIntersection({1000.0, 1000.0});
  net.AddIntersection({0.0, 1000.0});
  EXPECT_TRUE(net.AddSegment(0, 1, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(1, 2, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(2, 3, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(3, 0, RoadClass::kArterial).ok());
  return net;
}

TEST(VehicleTest, StartsWherePlaced) {
  RoadNetwork net = MakeSquare();
  Vehicle v(net, /*segment=*/0, /*origin=*/0, /*offset=*/250.0,
            VehicleDynamics{}, Rng(1));
  const Point p = v.Position();
  EXPECT_NEAR(p.x, 250.0, 1e-9);
  EXPECT_NEAR(p.y, 0.0, 1e-9);
}

TEST(VehicleTest, OffsetMeasuredFromChosenOrigin) {
  RoadNetwork net = MakeSquare();
  Vehicle v(net, /*segment=*/0, /*origin=*/1, /*offset=*/250.0,
            VehicleDynamics{}, Rng(1));
  EXPECT_NEAR(v.Position().x, 750.0, 1e-9);
}

TEST(VehicleTest, SpeedStaysWithinDynamicBounds) {
  RoadNetwork net = MakeSquare();
  VehicleDynamics dyn;
  Vehicle v(net, 0, 0, 0.0, dyn, Rng(2));
  for (int i = 0; i < 2000; ++i) {
    v.Advance(net, 1.0);
    const double limit = net.Segment(v.segment()).speed_limit;
    EXPECT_GE(v.speed(), dyn.min_fraction * limit - 1e-9);
    EXPECT_LE(v.speed(), dyn.max_fraction * limit + 1e-9);
  }
}

TEST(VehicleTest, StaysOnTheRoadGraph) {
  RoadNetwork net = MakeSquare();
  Vehicle v(net, 0, 0, 0.0, VehicleDynamics{}, Rng(3));
  for (int i = 0; i < 2000; ++i) {
    v.Advance(net, 1.0);
    const Point p = v.Position();
    // On the square ring every point has x or y equal to 0 or 1000.
    const bool on_edge =
        std::abs(p.x) < 1e-6 || std::abs(p.x - 1000.0) < 1e-6 ||
        std::abs(p.y) < 1e-6 || std::abs(p.y - 1000.0) < 1e-6;
    EXPECT_TRUE(on_edge) << "off-road at " << p.x << "," << p.y;
  }
}

TEST(VehicleTest, MovementMatchesSpeedWithinTick) {
  RoadNetwork net = MakeSquare();
  Vehicle v(net, 0, 0, 100.0, VehicleDynamics{}, Rng(4));
  for (int i = 0; i < 200; ++i) {
    const Point before = v.Position();
    v.Advance(net, 1.0);
    const Point after = v.Position();
    // Displacement cannot exceed the post-update speed times dt by much
    // (path is piecewise straight; corners shorten the Euclidean step).
    EXPECT_LE(Distance(before, after), v.speed() * 1.0 + 1e-6 +
                                           0.5 * v.speed() /* speed change */);
  }
}

TEST(VehicleTest, VelocityIsTangentToSegment) {
  RoadNetwork net = MakeSquare();
  Vehicle v(net, 0, 0, 10.0, VehicleDynamics{}, Rng(5));
  v.Advance(net, 1.0);
  const Vec2 vel = v.Velocity();
  EXPECT_NEAR(Norm(vel), v.speed(), 1e-9);
}

TEST(VehicleTest, TurnsAroundAtDeadEnd) {
  RoadNetwork net;
  net.AddIntersection({0.0, 0.0});
  net.AddIntersection({100.0, 0.0});
  ASSERT_TRUE(net.AddSegment(0, 1, RoadClass::kCollector).ok());
  Vehicle v(net, 0, 0, 90.0, VehicleDynamics{}, Rng(6));
  for (int i = 0; i < 300; ++i) {
    v.Advance(net, 1.0);
    const Point p = v.Position();
    EXPECT_GE(p.x, -1e-9);
    EXPECT_LE(p.x, 100.0 + 1e-9);
  }
}

TEST(VehicleTest, DeterministicGivenSameRngStream) {
  RoadNetwork net = MakeSquare();
  Vehicle a(net, 0, 0, 10.0, VehicleDynamics{}, Rng(7));
  Vehicle b(net, 0, 0, 10.0, VehicleDynamics{}, Rng(7));
  for (int i = 0; i < 500; ++i) {
    a.Advance(net, 1.0);
    b.Advance(net, 1.0);
    EXPECT_EQ(a.Position(), b.Position());
    EXPECT_EQ(a.speed(), b.speed());
  }
}

TEST(VehicleTest, ExploresNetworkOverTime) {
  // On a generated map with towns, a random-walk vehicle should visit many
  // distinct segments.
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  Vehicle v(map->network, 0, map->network.Segment(0).from, 0.0,
            VehicleDynamics{}, Rng(8));
  int changes = 0;
  SegmentId last = v.segment();
  for (int i = 0; i < 3000; ++i) {
    v.Advance(map->network, 1.0);
    if (v.segment() != last) {
      ++changes;
      last = v.segment();
    }
  }
  EXPECT_GT(changes, 10);
}

}  // namespace
}  // namespace lira
