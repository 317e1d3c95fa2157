// WorldBuilder: assembles one reproducible experimental world -- road map,
// recorded vehicle trace, query workload, and the calibrated update-
// reduction function -- from a single configuration (paper Section 4.2).

#ifndef LIRA_SIM_WORLD_H_
#define LIRA_SIM_WORLD_H_

#include <cstdint>

#include "lira/common/status.h"
#include "lira/cq/query_registry.h"
#include "lira/cq/workload.h"
#include "lira/mobility/trace.h"
#include "lira/motion/update_reduction.h"
#include "lira/roadnet/map_generator.h"

namespace lira {

/// Which vehicle behavior drives the trace.
enum class MobilityModel {
  kRandomWalk = 0,  ///< volume-weighted random walk (default, fast)
  kTrips = 1,       ///< shortest-time routed trips to weighted destinations
};

struct WorldConfig {
  MapGeneratorConfig map;
  /// Number of mobile nodes (cars).
  int32_t num_nodes = 4000;
  MobilityModel mobility = MobilityModel::kRandomWalk;
  /// Trace length in frames and seconds per frame.
  int32_t trace_frames = 600;
  double dt = 1.0;
  /// Queries-to-nodes ratio m/n (paper default 0.01); the query count is
  /// round(ratio * num_nodes).
  double query_node_ratio = 0.01;
  double query_side_length = 1000.0;
  QueryDistribution query_distribution = QueryDistribution::kProportional;
  CalibrationConfig calibration;
  uint64_t seed = 42;
};

/// A fully built world shared by all policies of one experiment.
struct World {
  GeneratedMap map;
  Trace trace;
  QueryRegistry queries;
  PiecewiseLinearReduction reduction;
  /// Measured update rate (updates/second) at delta_min -- the full load.
  double full_update_rate = 0.0;

  int32_t num_nodes() const { return trace.num_nodes(); }
  const Rect& world_rect() const { return map.world; }
};

/// Builds the world: generates the map, records the trace, calibrates f and
/// the full update rate in one sweep over it (CalibrateTrace), and places
/// the query workload (biased by the node density of the first trace frame).
StatusOr<World> BuildWorld(const WorldConfig& config);

/// Builds a world around an externally supplied trace (e.g. loaded with
/// LoadTraceCsv from a real-map trace generator): calibrates f and the full
/// update rate on it, and places the query workload. The
/// config's map/mobility/trace fields are ignored; `world_rect` must
/// enclose the trace. The returned world has an empty road network.
StatusOr<World> BuildWorldFromTrace(Trace trace, const Rect& world_rect,
                                    const WorldConfig& config);

}  // namespace lira

#endif  // LIRA_SIM_WORLD_H_
