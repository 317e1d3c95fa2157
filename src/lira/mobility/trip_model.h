// Trip-based traffic: vehicles drive shortest-time routes to volume-
// weighted destinations and immediately start a new trip on arrival.
//
// This is the closer analogue of the paper's trace generation ("simulating
// the cars going on roads in accordance with the traffic volume data") than
// the default volume-weighted random walk; bench_ext_mobility shows that
// LIRA's advantage is robust to the mobility model choice.

#ifndef LIRA_MOBILITY_TRIP_MODEL_H_
#define LIRA_MOBILITY_TRIP_MODEL_H_

#include <cstdint>
#include <vector>

#include "lira/common/check.h"
#include "lira/common/rng.h"
#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/mobility/vehicle.h"
#include "lira/roadnet/road_network.h"

namespace lira {

struct TripModelConfig {
  int32_t num_vehicles = 4000;
  uint64_t seed = 11;
  VehicleDynamics dynamics;
};

/// Vehicle population on routed trips. Mirrors TrafficModel's interface, so
/// Trace::Record records either model.
///
/// Routes come from one shortest-path tree per source intersection, built
/// the first time a trip starts there and kept for the model's lifetime
/// (4 bytes per intersection per source used). A tree yields the same route
/// as a Dijkstra run for the one destination (see ShortestPathTree).
class TripTrafficModel {
 public:
  static StatusOr<TripTrafficModel> Create(const RoadNetwork& network,
                                           const TripModelConfig& config);

  /// Advances all vehicles; vehicles that exhausted their route get a new
  /// destination and a fresh shortest-time route.
  void Tick(double dt);

  /// Tick, writing each vehicle's state after its advance (and any new
  /// trip) to the Trace frame row `row`: floats {x, y, vx, vy} at
  /// row[4 * id].
  void TickInto(double dt, float* row);

  int32_t NumVehicles() const { return static_cast<int32_t>(vehicles_.size()); }
  double CurrentTime() const { return time_; }
  /// Vehicle `id` (its position, velocity, road state and route).
  const Vehicle& vehicle(NodeId id) const {
    LIRA_DCHECK(id >= 0 && id < NumVehicles());
    return vehicles_[id];
  }
  PositionSample Sample(NodeId id) const;
  std::vector<PositionSample> SampleAll() const;

  /// Trips completed so far (new-route assignments past the initial one).
  int64_t trips_completed() const { return trips_completed_; }

 private:
  TripTrafficModel(const RoadNetwork& network, std::vector<Vehicle> vehicles,
                   std::vector<double> destination_weights, Rng rng)
      : network_(&network),
        vehicles_(std::move(vehicles)),
        destination_weights_(std::move(destination_weights)),
        trees_(network.NumIntersections()),
        rng_(std::move(rng)) {}

  void PlanNewTrip(Vehicle& vehicle);

  const RoadNetwork* network_;
  std::vector<Vehicle> vehicles_;
  /// Per-intersection destination weight (sum of incident segment volumes).
  std::vector<double> destination_weights_;
  /// Shortest-path tree per source intersection; empty until first used.
  std::vector<std::vector<SegmentId>> trees_;
  Rng rng_ = Rng(0);
  double time_ = 0.0;
  int64_t trips_completed_ = 0;
};

}  // namespace lira

#endif  // LIRA_MOBILITY_TRIP_MODEL_H_
