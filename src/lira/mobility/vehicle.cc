#include "lira/mobility/vehicle.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "lira/common/check.h"

namespace lira {

Vehicle::Vehicle(const RoadNetwork& network, SegmentId segment,
                 IntersectionId origin, double offset,
                 const VehicleDynamics& dynamics, Rng rng)
    : dynamics_(dynamics), rng_(rng) {
  LIRA_CHECK(segment >= 0 && segment < network.NumSegments());
  const RoadSegment& seg = network.Segment(segment);
  LIRA_CHECK(origin == seg.from || origin == seg.to);
  EnterSegment(network, segment, origin);
  offset_ = std::clamp(offset, 0.0, length_);
  speed_ = target_speed_;
}

void Vehicle::DrawTargetSpeed() {
  const double target =
      rng_.Normal(dynamics_.target_mean_fraction * speed_limit_,
                  dynamics_.target_sd_fraction * speed_limit_);
  target_speed_ = std::clamp(target, min_speed_, max_speed_);
}

void Vehicle::AssignRoute(std::vector<SegmentId> route) {
  route_ = std::move(route);
  route_next_ = 0;
}

SegmentId Vehicle::ChooseNextSegment(const RoadNetwork& network,
                                     IntersectionId at_node) {
  if (route_next_ < route_.size()) {
    const SegmentId next = route_[route_next_];
    const RoadSegment& seg = network.Segment(next);
    if (seg.from == at_node || seg.to == at_node) {
      ++route_next_;
      return next;
    }
    // Stale route (shouldn't happen); random walk instead.
    route_.clear();
    route_next_ = 0;
  }
  const std::vector<SegmentId>& incident = network.IncidentSegments(at_node);
  LIRA_CHECK(!incident.empty());
  // Prefer not to U-turn; fall back to the incoming segment at dead ends.
  static thread_local std::vector<double> weights;
  static thread_local std::vector<SegmentId> candidates;
  weights.clear();
  candidates.clear();
  for (SegmentId seg_id : incident) {
    if (seg_id == segment_) {
      continue;
    }
    candidates.push_back(seg_id);
    weights.push_back(network.Segment(seg_id).volume);
  }
  if (candidates.empty()) {
    return segment_;  // dead end: turn around
  }
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  if (total <= 0.0) {
    return candidates[rng_.UniformInt(candidates.size())];
  }
  return candidates[rng_.WeightedIndex(weights)];
}

void Vehicle::EnterSegment(const RoadNetwork& network, SegmentId segment,
                           IntersectionId origin) {
  const RoadSegment& seg = network.Segment(segment);
  segment_ = segment;
  origin_ = origin;
  forward_ = origin == seg.from;
  offset_ = 0.0;
  from_point_ = network.IntersectionPosition(seg.from);
  span_ = network.IntersectionPosition(seg.to) - from_point_;
  direction_ = network.SegmentDirection(segment, origin);
  length_ = seg.length;
  speed_limit_ = seg.speed_limit;
  min_speed_ = dynamics_.min_fraction * speed_limit_;
  max_speed_ = dynamics_.max_fraction * speed_limit_;
  DrawTargetSpeed();
}

void Vehicle::Advance(const RoadNetwork& network, double dt) {
  LIRA_DCHECK(dt > 0.0);
  // Speed process: mean reversion + noise, occasional re-target.
  if (rng_.Bernoulli(dynamics_.retarget_rate * dt)) {
    DrawTargetSpeed();
  }
  speed_ += dynamics_.reversion_rate * (target_speed_ - speed_) * dt +
            rng_.Normal(0.0, dynamics_.speed_noise) * std::sqrt(dt);
  speed_ = std::clamp(speed_, min_speed_, max_speed_);

  double remaining = speed_ * dt;
  // Cross at most a bounded number of intersections per tick; with sane dt
  // this loop runs once or twice.
  for (int hop = 0; hop < 64 && remaining > 0.0; ++hop) {
    const double to_end = length_ - offset_;
    if (remaining < to_end) {
      offset_ += remaining;
      remaining = 0.0;
      break;
    }
    remaining -= to_end;
    const IntersectionId node = HeadingNode(network);
    const SegmentId next = ChooseNextSegment(network, node);
    EnterSegment(network, next, node);
    // Re-clamp speed for the new segment's limit.
    speed_ = std::clamp(speed_, min_speed_, max_speed_);
  }
}

}  // namespace lira
