#include "lira/mobility/traffic_model.h"

#include <utility>
#include <vector>

namespace lira {

StatusOr<TrafficModel> TrafficModel::Create(const RoadNetwork& network,
                                            const TrafficModelConfig& config) {
  if (config.num_vehicles <= 0) {
    return InvalidArgumentError("num_vehicles must be positive");
  }
  if (network.NumSegments() == 0) {
    return FailedPreconditionError("network has no segments");
  }
  Rng rng(config.seed);
  std::vector<double> weights(network.NumSegments());
  for (SegmentId s = 0; s < network.NumSegments(); ++s) {
    weights[s] = network.Segment(s).volume;
  }
  std::vector<Vehicle> vehicles;
  vehicles.reserve(config.num_vehicles);
  for (int32_t i = 0; i < config.num_vehicles; ++i) {
    const auto seg_id = static_cast<SegmentId>(rng.WeightedIndex(weights));
    const RoadSegment& seg = network.Segment(seg_id);
    const double offset = rng.Uniform(0.0, seg.length);
    const IntersectionId origin = rng.Bernoulli(0.5) ? seg.from : seg.to;
    vehicles.emplace_back(network, seg_id, origin, offset, config.dynamics,
                          rng.Fork(static_cast<uint64_t>(i)));
  }
  return TrafficModel(network, std::move(vehicles));
}

void TrafficModel::Tick(double dt) {
  for (Vehicle& vehicle : vehicles_) {
    vehicle.Advance(*network_, dt);
  }
  time_ += dt;
}

void TrafficModel::TickInto(double dt, float* row) {
  for (Vehicle& vehicle : vehicles_) {
    vehicle.Advance(*network_, dt);
    vehicle.WriteState(row);
    row += 4;
  }
  time_ += dt;
}

PositionSample TrafficModel::Sample(NodeId id) const {
  LIRA_DCHECK(id >= 0 && id < NumVehicles());
  PositionSample sample;
  sample.node_id = id;
  sample.time = time_;
  sample.position = vehicles_[id].Position();
  sample.velocity = vehicles_[id].Velocity();
  return sample;
}

std::vector<PositionSample> TrafficModel::SampleAll() const {
  std::vector<PositionSample> samples;
  samples.reserve(vehicles_.size());
  for (NodeId id = 0; id < NumVehicles(); ++id) {
    samples.push_back(Sample(id));
  }
  return samples;
}

}  // namespace lira
