// In-memory road network: an undirected graph of intersections connected by
// straight road segments. Vehicles move along segments in either direction.

#ifndef LIRA_ROADNET_ROAD_NETWORK_H_
#define LIRA_ROADNET_ROAD_NETWORK_H_

#include <cstdint>
#include <vector>

#include "lira/common/check.h"
#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/roadnet/road_class.h"

namespace lira {

/// Identifies an intersection (node of the road graph).
using IntersectionId = int32_t;
/// Identifies a road segment (edge of the road graph).
using SegmentId = int32_t;

inline constexpr IntersectionId kInvalidIntersection = -1;
inline constexpr SegmentId kInvalidSegment = -1;

/// A straight road between two intersections.
struct RoadSegment {
  IntersectionId from = kInvalidIntersection;
  IntersectionId to = kInvalidIntersection;
  RoadClass road_class = RoadClass::kCollector;
  double length = 0.0;       ///< meters, derived from endpoint positions
  double speed_limit = 0.0;  ///< m/s
  /// Relative traffic volume of the whole segment (per-meter volume x
  /// length); used to weight initial vehicle placement and turn choices.
  double volume = 0.0;
};

/// Undirected road graph. Intersections and segments are identified by dense
/// ids assigned in insertion order.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  /// Adds an intersection at `position`; returns its id.
  IntersectionId AddIntersection(Point position);

  /// Adds a segment between two existing, distinct intersections. Length is
  /// computed from the endpoints; speed limit and volume default from the
  /// road class when the passed values are <= 0.
  StatusOr<SegmentId> AddSegment(IntersectionId from, IntersectionId to,
                                 RoadClass road_class,
                                 double speed_limit = 0.0,
                                 double volume_per_meter = 0.0);

  int32_t NumIntersections() const {
    return static_cast<int32_t>(positions_.size());
  }
  int32_t NumSegments() const { return static_cast<int32_t>(segments_.size()); }

  Point IntersectionPosition(IntersectionId id) const {
    LIRA_DCHECK(id >= 0 && id < NumIntersections());
    return positions_[id];
  }
  const RoadSegment& Segment(SegmentId id) const {
    LIRA_DCHECK(id >= 0 && id < NumSegments());
    return segments_[id];
  }

  /// Segments incident to an intersection.
  const std::vector<SegmentId>& IncidentSegments(IntersectionId id) const {
    LIRA_DCHECK(id >= 0 && id < NumIntersections());
    return incident_[id];
  }

  /// The intersection at the other end of `segment` as seen from `from`.
  IntersectionId OtherEnd(SegmentId segment, IntersectionId from) const {
    const RoadSegment& seg = Segment(segment);
    LIRA_DCHECK(seg.from == from || seg.to == from);
    return seg.from == from ? seg.to : seg.from;
  }

  /// Position at `offset` meters from the `from` endpoint along the segment
  /// (offset is clamped to [0, length]).
  Point PointOnSegment(SegmentId id, double offset) const;

  /// Unit direction vector of the segment from `origin` towards the other
  /// endpoint.
  Vec2 SegmentDirection(SegmentId id, IntersectionId origin) const;

  /// Axis-aligned bounding box of all intersections (zero rect when empty).
  Rect BoundingBox() const;

  /// Sum of segment volumes (the total placement weight).
  double TotalVolume() const;

  /// Number of connected components (1 for a usable network).
  int32_t ConnectedComponents() const;

  /// Checks structural invariants: at least one segment, all segments
  /// non-degenerate, graph connected.
  Status Validate() const;

 private:
  std::vector<Point> positions_;
  std::vector<RoadSegment> segments_;
  std::vector<std::vector<SegmentId>> incident_;
};

}  // namespace lira

#endif  // LIRA_ROADNET_ROAD_NETWORK_H_
