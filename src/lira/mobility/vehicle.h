// A single vehicle moving along the road network.
//
// Vehicles perform a volume-weighted random walk: at each intersection the
// next segment is chosen with probability proportional to its traffic
// volume (U-turns only at dead ends). Speed follows a mean-reverting noisy
// process around a per-segment target, so true motion deviates smoothly from
// any linear prediction -- the deviation process dead reckoning reacts to.

#ifndef LIRA_MOBILITY_VEHICLE_H_
#define LIRA_MOBILITY_VEHICLE_H_

#include <algorithm>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/rng.h"
#include "lira/roadnet/road_network.h"

namespace lira {

/// Tuning knobs of the vehicle speed process.
struct VehicleDynamics {
  /// Target speed is drawn as N(mean_fraction, sd_fraction) * speed_limit.
  double target_mean_fraction = 0.85;
  double target_sd_fraction = 0.12;
  /// Mean-reversion rate towards the target speed (1/s).
  double reversion_rate = 0.25;
  /// Per-sqrt-second speed noise, m/s.
  double speed_noise = 0.6;
  /// Probability per second of re-drawing the target speed (traffic events).
  double retarget_rate = 0.02;
  /// Lower bound on speed as a fraction of the limit.
  double min_fraction = 0.15;
  /// Upper bound on speed as a fraction of the limit.
  double max_fraction = 1.05;
};

/// Mutable state of one vehicle. Owned and advanced by TrafficModel.
///
/// The geometry of the current segment is copied onto the vehicle when it
/// enters the segment, so a tick that stays on one segment, and reading the
/// position and velocity, touch no RoadNetwork and call no hypot. The
/// cached values come from the same expressions RoadNetwork::PointOnSegment
/// and RoadNetwork::SegmentDirection evaluate, so they hold the same bits.
class Vehicle {
 public:
  /// Places the vehicle on `segment`, `offset` meters from the `origin`
  /// endpoint, with a freshly drawn target speed.
  Vehicle(const RoadNetwork& network, SegmentId segment, IntersectionId origin,
          double offset, const VehicleDynamics& dynamics, Rng rng);

  /// Advances the vehicle by dt seconds (crossing intersections as needed).
  void Advance(const RoadNetwork& network, double dt);

  /// Assigns a route, in travel order: at each upcoming intersection the
  /// vehicle follows the queued segments instead of random-walking; when
  /// the queue drains (or a queued segment is not incident to the junction
  /// reached) it falls back to the volume-weighted random walk. Used by the
  /// trip-based traffic model.
  void AssignRoute(std::vector<SegmentId> route);

  /// Remaining queued route segments.
  size_t RouteLength() const { return route_.size() - route_next_; }

  /// The intersection the vehicle is currently driving towards.
  IntersectionId HeadingNode(const RoadNetwork& network) const {
    return network.OtherEnd(segment_, origin_);
  }

  /// Current position in the world frame.
  Point Position() const {
    // offset_ is measured from origin_, the segment geometry from the
    // segment's `from` endpoint.
    const double from_offset = forward_ ? offset_ : length_ - offset_;
    const double t = std::clamp(from_offset / length_, 0.0, 1.0);
    return from_point_ + span_ * t;
  }

  /// Current velocity vector (m/s).
  Vec2 Velocity() const { return direction_ * speed_; }

  /// Writes the state as the floats {x, y, vx, vy} to out[0..3]: one entry
  /// of a Trace frame row.
  void WriteState(float* out) const {
    const Point p = Position();
    const Vec2 v = Velocity();
    out[0] = static_cast<float>(p.x);
    out[1] = static_cast<float>(p.y);
    out[2] = static_cast<float>(v.x);
    out[3] = static_cast<float>(v.y);
  }

  double speed() const { return speed_; }
  /// Meters travelled from origin() along segment().
  double offset() const { return offset_; }
  SegmentId segment() const { return segment_; }
  IntersectionId origin() const { return origin_; }

 private:
  void EnterSegment(const RoadNetwork& network, SegmentId segment,
                    IntersectionId origin);
  void DrawTargetSpeed();
  SegmentId ChooseNextSegment(const RoadNetwork& network,
                              IntersectionId at_node);

  SegmentId segment_;
  IntersectionId origin_;  ///< endpoint the vehicle entered the segment from
  bool forward_ = true;    ///< origin_ is the segment's `from` endpoint
  /// Queued route; route_[route_next_] is the next segment to take.
  std::vector<SegmentId> route_;
  size_t route_next_ = 0;
  double offset_ = 0.0;  ///< meters travelled from origin_ along segment_
  double speed_ = 0.0;
  double target_speed_ = 0.0;
  // Constants of segment_, set by EnterSegment.
  Point from_point_;    ///< the segment's `from` endpoint
  Vec2 span_;           ///< `to` endpoint minus `from` endpoint
  Vec2 direction_;      ///< unit direction of travel (from origin_)
  double length_ = 0.0;
  double speed_limit_ = 0.0;
  double min_speed_ = 0.0;  ///< dynamics_.min_fraction * speed_limit_
  double max_speed_ = 0.0;  ///< dynamics_.max_fraction * speed_limit_
  VehicleDynamics dynamics_;
  Rng rng_;
};

}  // namespace lira

#endif  // LIRA_MOBILITY_VEHICLE_H_
