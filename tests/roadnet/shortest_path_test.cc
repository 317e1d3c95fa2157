#include "lira/roadnet/shortest_path.h"

#include <vector>

#include <gtest/gtest.h>

#include "lira/roadnet/map_generator.h"
#include "oracle/early_exit_route.h"

namespace lira {
namespace {

// A 1-D chain 0 -- 1 -- 2 -- 3 with one slow shortcut 0 -- 3.
RoadNetwork MakeChainWithShortcut() {
  RoadNetwork net;
  for (int i = 0; i < 4; ++i) {
    net.AddIntersection({i * 100.0, 0.0});
  }
  const IntersectionId detour = net.AddIntersection({150.0, 400.0});
  // Chain on fast arterials (16.5 m/s): 300 m -> ~18 s.
  EXPECT_TRUE(net.AddSegment(0, 1, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(1, 2, RoadClass::kArterial).ok());
  EXPECT_TRUE(net.AddSegment(2, 3, RoadClass::kArterial).ok());
  // Geometric detour via a far-away node on slow collectors.
  EXPECT_TRUE(net.AddSegment(0, detour, RoadClass::kCollector).ok());
  EXPECT_TRUE(net.AddSegment(detour, 3, RoadClass::kCollector).ok());
  return net;
}

TEST(ShortestPathTest, FindsTimeOptimalRoute) {
  RoadNetwork net = MakeChainWithShortcut();
  auto route = ShortestRoute(net, 0, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->origin, 0);
  ASSERT_EQ(route->segments.size(), 3u);
  EXPECT_EQ(route->segments[0], 0);
  EXPECT_EQ(route->segments[1], 1);
  EXPECT_EQ(route->segments[2], 2);
  EXPECT_NEAR(RouteTravelTime(net, *route),
              300.0 / DefaultSpeedLimit(RoadClass::kArterial), 1e-9);
}

TEST(ShortestPathTest, SelfRouteIsEmpty) {
  RoadNetwork net = MakeChainWithShortcut();
  auto route = ShortestRoute(net, 2, 2);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->segments.empty());
  EXPECT_DOUBLE_EQ(RouteTravelTime(net, *route), 0.0);
}

TEST(ShortestPathTest, UnreachableDestination) {
  RoadNetwork net = MakeChainWithShortcut();
  const IntersectionId island_a = net.AddIntersection({9000.0, 9000.0});
  const IntersectionId island_b = net.AddIntersection({9100.0, 9000.0});
  ASSERT_TRUE(net.AddSegment(island_a, island_b, RoadClass::kCollector).ok());
  auto route = ShortestRoute(net, 0, island_a);
  EXPECT_FALSE(route.ok());
  EXPECT_EQ(route.status().code(), StatusCode::kNotFound);
}

TEST(ShortestPathTest, RejectsOutOfRangeEndpoints) {
  RoadNetwork net = MakeChainWithShortcut();
  EXPECT_FALSE(ShortestRoute(net, -1, 0).ok());
  EXPECT_FALSE(ShortestRoute(net, 0, 999).ok());
}

TEST(ShortestPathTest, PrefersFastExpresswayOverShortCollector) {
  RoadNetwork net;
  const IntersectionId a = net.AddIntersection({0.0, 0.0});
  const IntersectionId b = net.AddIntersection({1000.0, 0.0});
  const IntersectionId via = net.AddIntersection({500.0, 200.0});
  // Direct but slow: 1000 m at 11 m/s = 90.9 s.
  ASSERT_TRUE(net.AddSegment(a, b, RoadClass::kCollector).ok());
  // Longer but fast: ~1077 m at 29 m/s = 37.1 s.
  ASSERT_TRUE(net.AddSegment(a, via, RoadClass::kExpressway).ok());
  ASSERT_TRUE(net.AddSegment(via, b, RoadClass::kExpressway).ok());
  auto route = ShortestRoute(net, a, b);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route->segments.size(), 2u);
}

TEST(ShortestPathTest, WorksOnGeneratedMap) {
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  const RoadNetwork& net = map->network;
  // Connected network: every sampled pair must be routable.
  const IntersectionId last = net.NumIntersections() - 1;
  for (IntersectionId from : {0, last / 2, last}) {
    auto route = ShortestRoute(net, from, last);
    ASSERT_TRUE(route.ok());
    if (from != last) {
      EXPECT_FALSE(route->segments.empty());
      EXPECT_GT(RouteTravelTime(net, *route), 0.0);
    }
  }
}

TEST(ShortestPathTest, RouteSegmentsFormAConnectedWalk) {
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  const RoadNetwork& net = map->network;
  auto route = ShortestRoute(net, 0, net.NumIntersections() - 1);
  ASSERT_TRUE(route.ok());
  IntersectionId at = route->origin;
  for (SegmentId seg : route->segments) {
    const RoadSegment& s = net.Segment(seg);
    ASSERT_TRUE(s.from == at || s.to == at);
    at = net.OtherEnd(seg, at);
  }
  EXPECT_EQ(at, net.NumIntersections() - 1);
}

// Every (from, to) pair of `net`: ShortestRoute and the route read off the
// source's tree both equal the early-exit Dijkstra's, segment for segment,
// and agree with it on which destinations are unreachable.
void ExpectEveryPairMatchesEarlyExitOracle(const RoadNetwork& net) {
  const IntersectionId n = net.NumIntersections();
  for (IntersectionId from = 0; from < n; ++from) {
    const std::vector<SegmentId> tree = ShortestPathTree(net, from);
    ASSERT_EQ(tree.size(), static_cast<size_t>(n));
    EXPECT_EQ(tree[from], kInvalidSegment);
    for (IntersectionId to = 0; to < n; ++to) {
      const auto want = oracle::EarlyExitShortestRoute(net, from, to);
      const auto got = RouteInTree(net, tree, from, to);
      ASSERT_EQ(got.status().code(), want.status().code())
          << from << " -> " << to;
      if (want.ok()) {
        ASSERT_EQ(got->origin, want->origin);
        ASSERT_EQ(got->segments, want->segments) << from << " -> " << to;
      }
      // ShortestRoute builds a whole tree per call, so on a large map it is
      // checked for one destination per source.
      if (n <= 64 || to == n - 1 - from) {
        const auto routed = ShortestRoute(net, from, to);
        ASSERT_EQ(routed.status().code(), want.status().code());
        if (want.ok()) {
          ASSERT_EQ(routed->segments, want->segments) << from << " -> " << to;
        }
      }
    }
  }
}

TEST(ShortestPathTest, EveryPairOnTheDefaultMapMatchesEarlyExitDijkstra) {
  auto map = GenerateMap(MapGeneratorConfig{});
  ASSERT_TRUE(map.ok());
  ExpectEveryPairMatchesEarlyExitOracle(map->network);
}

TEST(ShortestPathTest, TiesAndAnIslandMatchEarlyExitDijkstra) {
  // A 5 x 5 grid of equal 100 m collectors: most pairs have many routes of
  // exactly equal cost, so the (dist, id) frontier order decides. Plus a
  // two-node island no grid node can reach.
  RoadNetwork net;
  constexpr int kSide = 5;
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      net.AddIntersection({x * 100.0, y * 100.0});
    }
  }
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      const IntersectionId id = y * kSide + x;
      if (x + 1 < kSide) {
        ASSERT_TRUE(net.AddSegment(id, id + 1, RoadClass::kCollector).ok());
      }
      if (y + 1 < kSide) {
        ASSERT_TRUE(
            net.AddSegment(id, id + kSide, RoadClass::kCollector).ok());
      }
    }
  }
  const IntersectionId island_a = net.AddIntersection({9000.0, 9000.0});
  const IntersectionId island_b = net.AddIntersection({9100.0, 9000.0});
  ASSERT_TRUE(net.AddSegment(island_a, island_b, RoadClass::kCollector).ok());
  ExpectEveryPairMatchesEarlyExitOracle(net);
  auto tree = ShortestPathTree(net, 0);
  EXPECT_EQ(tree[island_a], kInvalidSegment);
  EXPECT_EQ(RouteInTree(net, tree, 0, island_b).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace lira
