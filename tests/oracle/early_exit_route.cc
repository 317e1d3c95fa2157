#include "oracle/early_exit_route.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "lira/common/check.h"

namespace lira::oracle {

StatusOr<Route> EarlyExitShortestRoute(const RoadNetwork& network,
                                       IntersectionId from,
                                       IntersectionId to) {
  const int32_t n = network.NumIntersections();
  if (from < 0 || from >= n || to < 0 || to >= n) {
    return InvalidArgumentError("route endpoint out of range");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<SegmentId> via(n, kInvalidSegment);
  using QueueEntry = std::pair<double, IntersectionId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      frontier;
  dist[from] = 0.0;
  frontier.emplace(0.0, from);
  while (!frontier.empty()) {
    const auto [d, node] = frontier.top();
    frontier.pop();
    if (d > dist[node]) {
      continue;
    }
    if (node == to) {
      break;
    }
    for (SegmentId seg_id : network.IncidentSegments(node)) {
      const RoadSegment& seg = network.Segment(seg_id);
      const double cost = seg.length / seg.speed_limit;
      const IntersectionId next = network.OtherEnd(seg_id, node);
      if (dist[node] + cost < dist[next]) {
        dist[next] = dist[node] + cost;
        via[next] = seg_id;
        frontier.emplace(dist[next], next);
      }
    }
  }
  if (dist[to] == kInf) {
    return NotFoundError("destination unreachable");
  }
  Route route;
  route.origin = from;
  IntersectionId node = to;
  while (node != from) {
    const SegmentId seg_id = via[node];
    LIRA_CHECK(seg_id != kInvalidSegment);
    route.segments.push_back(seg_id);
    node = network.OtherEnd(seg_id, node);
  }
  std::reverse(route.segments.begin(), route.segments.end());
  return route;
}

}  // namespace lira::oracle
