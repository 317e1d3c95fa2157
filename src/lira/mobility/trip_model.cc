#include "lira/mobility/trip_model.h"

#include <utility>
#include <vector>

#include "lira/roadnet/shortest_path.h"

namespace lira {

StatusOr<TripTrafficModel> TripTrafficModel::Create(
    const RoadNetwork& network, const TripModelConfig& config) {
  if (config.num_vehicles <= 0) {
    return InvalidArgumentError("num_vehicles must be positive");
  }
  if (network.NumSegments() == 0) {
    return FailedPreconditionError("network has no segments");
  }
  Rng rng(config.seed);
  std::vector<double> segment_weights(network.NumSegments());
  for (SegmentId s = 0; s < network.NumSegments(); ++s) {
    segment_weights[s] = network.Segment(s).volume;
  }
  // Destination attractiveness of an intersection: incident volume.
  std::vector<double> destination_weights(network.NumIntersections(), 0.0);
  for (IntersectionId node = 0; node < network.NumIntersections(); ++node) {
    for (SegmentId s : network.IncidentSegments(node)) {
      destination_weights[node] += network.Segment(s).volume;
    }
  }
  std::vector<Vehicle> vehicles;
  vehicles.reserve(config.num_vehicles);
  for (int32_t i = 0; i < config.num_vehicles; ++i) {
    const auto seg_id =
        static_cast<SegmentId>(rng.WeightedIndex(segment_weights));
    const RoadSegment& seg = network.Segment(seg_id);
    const double offset = rng.Uniform(0.0, seg.length);
    const IntersectionId origin = rng.Bernoulli(0.5) ? seg.from : seg.to;
    vehicles.emplace_back(network, seg_id, origin, offset, config.dynamics,
                          rng.Fork(static_cast<uint64_t>(i)));
  }
  TripTrafficModel model(network, std::move(vehicles),
                         std::move(destination_weights), rng.Fork(~0ULL));
  for (Vehicle& vehicle : model.vehicles_) {
    model.PlanNewTrip(vehicle);
  }
  model.trips_completed_ = 0;  // initial assignments are not "completed"
  return model;
}

void TripTrafficModel::PlanNewTrip(Vehicle& vehicle) {
  const IntersectionId from = vehicle.HeadingNode(*network_);
  // Try a few destinations; a connected network makes the first one work.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const auto dest = static_cast<IntersectionId>(
        rng_.WeightedIndex(destination_weights_));
    if (dest == from) {
      continue;
    }
    std::vector<SegmentId>& tree = trees_[from];
    if (tree.empty()) {
      tree = ShortestPathTree(*network_, from);
    }
    auto route = RouteInTree(*network_, tree, from, dest);
    if (route.ok() && !route->segments.empty()) {
      vehicle.AssignRoute(std::move(route->segments));
      ++trips_completed_;
      return;
    }
  }
  // All attempts failed (disconnected or degenerate): random walk onwards.
  vehicle.AssignRoute({});
  ++trips_completed_;
}

void TripTrafficModel::Tick(double dt) {
  for (Vehicle& vehicle : vehicles_) {
    vehicle.Advance(*network_, dt);
    if (vehicle.RouteLength() == 0) {
      PlanNewTrip(vehicle);
    }
  }
  time_ += dt;
}

void TripTrafficModel::TickInto(double dt, float* row) {
  for (Vehicle& vehicle : vehicles_) {
    vehicle.Advance(*network_, dt);
    if (vehicle.RouteLength() == 0) {
      PlanNewTrip(vehicle);
    }
    vehicle.WriteState(row);
    row += 4;
  }
  time_ += dt;
}

PositionSample TripTrafficModel::Sample(NodeId id) const {
  LIRA_DCHECK(id >= 0 && id < NumVehicles());
  PositionSample sample;
  sample.node_id = id;
  sample.time = time_;
  sample.position = vehicles_[id].Position();
  sample.velocity = vehicles_[id].Velocity();
  return sample;
}

std::vector<PositionSample> TripTrafficModel::SampleAll() const {
  std::vector<PositionSample> samples;
  samples.reserve(vehicles_.size());
  for (NodeId id = 0; id < NumVehicles(); ++id) {
    samples.push_back(Sample(id));
  }
  return samples;
}

}  // namespace lira
