// The two-pass trace recorder: per frame, Tick the whole model, then sample
// every vehicle by id from the road network's geometry
// (RoadNetwork::PointOnSegment and RoadNetwork::SegmentDirection). This is
// how Trace::Record worked before vehicles cached their segment geometry
// and wrote their state during the tick, kept as its bitwise oracle: a trip
// is planned after its vehicle's advance and planning never moves a
// vehicle, so the state written in the one pass is the state read in the
// second, and the cached geometry holds the bits the network computes.

#ifndef LIRA_TESTS_ORACLE_TWO_PASS_RECORDER_H_
#define LIRA_TESTS_ORACLE_TWO_PASS_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/mobility/trace.h"
#include "lira/mobility/vehicle.h"
#include "lira/roadnet/road_network.h"

namespace lira::oracle {

/// The state of `vehicle`, computed from `network` and four of its fields:
/// its segment, the endpoint it entered from, its offset and its speed.
inline PositionSample SampleFromNetwork(const RoadNetwork& network,
                                        const Vehicle& vehicle) {
  const RoadSegment& seg = network.Segment(vehicle.segment());
  const double from_offset = (vehicle.origin() == seg.from)
                                 ? vehicle.offset()
                                 : seg.length - vehicle.offset();
  PositionSample sample;
  sample.position = network.PointOnSegment(vehicle.segment(), from_offset);
  sample.velocity =
      network.SegmentDirection(vehicle.segment(), vehicle.origin()) *
      vehicle.speed();
  return sample;
}

/// Records `num_frames` ticks of `dt` seconds from `model` (TrafficModel or
/// TripTrafficModel over `network`) by Tick followed by SampleFromNetwork
/// for every id.
template <typename Model>
StatusOr<Trace> RecordTwoPass(Model& model, const RoadNetwork& network,
                              int32_t num_frames, double dt) {
  const int32_t num_nodes = model.NumVehicles();
  std::vector<float> flat;
  flat.reserve(4 * static_cast<size_t>(num_frames) *
               static_cast<size_t>(num_nodes));
  for (int32_t f = 0; f < num_frames; ++f) {
    model.Tick(dt);
    for (NodeId id = 0; id < num_nodes; ++id) {
      const PositionSample s = SampleFromNetwork(network, model.vehicle(id));
      flat.push_back(static_cast<float>(s.position.x));
      flat.push_back(static_cast<float>(s.position.y));
      flat.push_back(static_cast<float>(s.velocity.x));
      flat.push_back(static_cast<float>(s.velocity.y));
    }
  }
  return Trace::FromFlatStates(num_frames, num_nodes, dt, flat);
}

}  // namespace lira::oracle

#endif  // LIRA_TESTS_ORACLE_TWO_PASS_RECORDER_H_
