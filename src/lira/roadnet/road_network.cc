#include "lira/roadnet/road_network.h"

#include <algorithm>
#include <string>
#include <vector>

#include "lira/common/check.h"

namespace lira {

IntersectionId RoadNetwork::AddIntersection(Point position) {
  positions_.push_back(position);
  incident_.emplace_back();
  return static_cast<IntersectionId>(positions_.size() - 1);
}

StatusOr<SegmentId> RoadNetwork::AddSegment(IntersectionId from,
                                            IntersectionId to,
                                            RoadClass road_class,
                                            double speed_limit,
                                            double volume_per_meter) {
  if (from < 0 || from >= NumIntersections() || to < 0 ||
      to >= NumIntersections()) {
    return InvalidArgumentError("segment endpoint id out of range");
  }
  if (from == to) {
    return InvalidArgumentError("segment endpoints must be distinct");
  }
  const double length = Distance(positions_[from], positions_[to]);
  if (length <= 0.0) {
    return InvalidArgumentError("segment has zero length");
  }
  RoadSegment seg;
  seg.from = from;
  seg.to = to;
  seg.road_class = road_class;
  seg.length = length;
  seg.speed_limit =
      speed_limit > 0.0 ? speed_limit : DefaultSpeedLimit(road_class);
  const double per_meter = volume_per_meter > 0.0
                               ? volume_per_meter
                               : DefaultVolumePerMeter(road_class);
  seg.volume = per_meter * length;
  segments_.push_back(seg);
  const auto id = static_cast<SegmentId>(segments_.size() - 1);
  incident_[from].push_back(id);
  incident_[to].push_back(id);
  return id;
}

Point RoadNetwork::PointOnSegment(SegmentId id, double offset) const {
  const RoadSegment& seg = Segment(id);
  const double t = std::clamp(offset / seg.length, 0.0, 1.0);
  const Point a = positions_[seg.from];
  const Point b = positions_[seg.to];
  return a + (b - a) * t;
}

Vec2 RoadNetwork::SegmentDirection(SegmentId id, IntersectionId origin) const {
  const RoadSegment& seg = Segment(id);
  const Point a = positions_[seg.from];
  const Point b = positions_[seg.to];
  Vec2 dir = (seg.from == origin) ? b - a : a - b;
  const double norm = Norm(dir);
  LIRA_DCHECK(norm > 0.0);
  return dir * (1.0 / norm);
}

Rect RoadNetwork::BoundingBox() const {
  if (positions_.empty()) {
    return Rect{};
  }
  Rect box{positions_[0].x, positions_[0].y, positions_[0].x, positions_[0].y};
  for (const Point& p : positions_) {
    box.min_x = std::min(box.min_x, p.x);
    box.min_y = std::min(box.min_y, p.y);
    box.max_x = std::max(box.max_x, p.x);
    box.max_y = std::max(box.max_y, p.y);
  }
  return box;
}

double RoadNetwork::TotalVolume() const {
  double total = 0.0;
  for (const RoadSegment& seg : segments_) {
    total += seg.volume;
  }
  return total;
}

int32_t RoadNetwork::ConnectedComponents() const {
  const int32_t n = NumIntersections();
  std::vector<bool> visited(n, false);
  std::vector<IntersectionId> stack;
  int32_t components = 0;
  for (IntersectionId start = 0; start < n; ++start) {
    if (visited[start]) {
      continue;
    }
    ++components;
    visited[start] = true;
    stack.push_back(start);
    while (!stack.empty()) {
      const IntersectionId node = stack.back();
      stack.pop_back();
      for (SegmentId seg_id : incident_[node]) {
        const IntersectionId next = OtherEnd(seg_id, node);
        if (!visited[next]) {
          visited[next] = true;
          stack.push_back(next);
        }
      }
    }
  }
  return components;
}

Status RoadNetwork::Validate() const {
  if (NumSegments() == 0) {
    return FailedPreconditionError("road network has no segments");
  }
  for (const RoadSegment& seg : segments_) {
    if (seg.length <= 0.0 || seg.speed_limit <= 0.0) {
      return InternalError("degenerate road segment");
    }
  }
  const int32_t components = ConnectedComponents();
  if (components != 1) {
    return FailedPreconditionError("road network has " +
                                   std::to_string(components) +
                                   " connected components, expected 1");
  }
  return OkStatus();
}

}  // namespace lira
