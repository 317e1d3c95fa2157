// Dijkstra shortest paths over a RoadNetwork, by travel time.

#ifndef LIRA_ROADNET_SHORTEST_PATH_H_
#define LIRA_ROADNET_SHORTEST_PATH_H_

#include <vector>

#include "lira/common/status.h"
#include "lira/roadnet/road_network.h"

namespace lira {

/// A route: the segment ids to traverse in order. The route starts at
/// `origin` and follows each segment to its other end.
struct Route {
  IntersectionId origin = kInvalidIntersection;
  std::vector<SegmentId> segments;
};

/// The minimum-travel-time tree rooted at `from` (cost of a segment =
/// length / speed_limit): entry i is the segment that reaches intersection i
/// on its shortest route from `from`, kInvalidSegment for `from` itself and
/// for unreachable intersections. `from` must be a valid id.
///
/// Segment costs are strictly positive (AddSegment rejects zero length and
/// speed limits are positive), so an intersection's entry is final once it
/// leaves the frontier: walking the tree back from `to` gives, segment for
/// segment, the route a Dijkstra that stops at `to` would return. One tree
/// therefore answers every query from the same source.
std::vector<SegmentId> ShortestPathTree(const RoadNetwork& network,
                                        IntersectionId from);

/// The route from `from` to `to` read off `tree`, ShortestPathTree's
/// output for `from`. Returns NotFoundError when `to` is unreachable.
StatusOr<Route> RouteInTree(const RoadNetwork& network,
                            const std::vector<SegmentId>& tree,
                            IntersectionId from, IntersectionId to);

/// Computes the minimum-travel-time route from `from` to `to`. Returns
/// NotFoundError when `to` is unreachable. A route from a node to itself is
/// empty.
StatusOr<Route> ShortestRoute(const RoadNetwork& network, IntersectionId from,
                              IntersectionId to);

/// Travel time in seconds of a route over the network.
double RouteTravelTime(const RoadNetwork& network, const Route& route);

}  // namespace lira

#endif  // LIRA_ROADNET_SHORTEST_PATH_H_
