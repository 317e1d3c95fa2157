// The benchmark's own replica of a whole run, driven through each layer's
// public functions so every call can be timed from outside:
//
//   BuildWorldByLayer -- BuildWorld's steps (map, trace record, f(Delta)
//                        calibration, full-rate probe, query placement);
//   RunDriverLoop     -- RunSimulation's frame loop (trace unpack, plan
//                        lookup, dead-reckoning encode, reference oracle,
//                        ingest, tick/adaptation, accuracy sampling).
//
// With a TraceRecorder both record one span per layer call. Lane 0 is the
// calling thread (shared with the server's coordinator spans), lanes
// 1..S belong to the cluster's shards, and lane S + 1 + c to chunk c of the
// driver's own ParallelFor passes. Without a recorder the calls are the
// same and only the spans are skipped. Either way the results must equal
// BuildWorld / RunSimulation bit for bit; main.cc checks that.

#ifndef E2EBENCH_DRIVER_H_
#define E2EBENCH_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"

namespace e2e {

/// Driver spans regrouped as regions: their wall time is shared among the
/// worker-lane spans recorded inside them.
inline constexpr const char* kNodePass = "sim.node_pass";
inline constexpr const char* kSamplePass = "sim.sample_pass";

/// Trace lanes a driver loop with this config needs.
int32_t LanesFor(const lira::SimulationConfig& config);
/// First lane of the driver's worker chunks.
inline int32_t FirstWorkerLane(const lira::SimulationConfig& config) {
  return config.shards + 1;
}

lira::StatusOr<lira::World> BuildWorldByLayer(
    const lira::WorldConfig& config, lira::telemetry::TraceRecorder* trace);

/// Bitwise comparison of two worlds (trace states, f(Delta) at every knot,
/// full update rate, query rectangles). `why` names the first difference.
bool SameWorld(const lira::World& a, const lira::World& b, std::string* why);

struct LoopRun {
  lira::SimulationResult result;
  /// Throttlers of every region of the final plan.
  std::vector<double> final_deltas;
  /// Wall time of each frame / tick, nanoseconds. A tick that ran an
  /// adaptation goes to adapt_ns, every other to tick_ns.
  std::vector<int64_t> frame_ns;
  std::vector<int64_t> tick_ns;
  std::vector<int64_t> adapt_ns;
  /// Recorder clock at loop start / end (0 without a recorder).
  int64_t loop_start_ns = 0;
  int64_t loop_end_ns = 0;
  /// Loop wall time on the driver's own steady clock, independent of the
  /// recorder: the layer times are checked against it.
  int64_t loop_wall_ns = 0;
  int64_t samples = 0;
  int64_t deltas_applied = 0;
  int64_t queries_touched = 0;
  int32_t num_queries = 0;
};

/// RunSimulation's frame loop for `config` (which must leave history,
/// health export and the config's own telemetry/trace/flight pointers
/// off). `trace` and `telemetry` (both nullable) are handed to the server as
/// CqServerConfig::trace / ::telemetry, and the driver adds its own spans to
/// `trace`, which needs LanesFor(config) lanes.
lira::StatusOr<LoopRun> RunDriverLoop(
    const lira::World& world, const lira::LoadSheddingPolicy& policy,
    const lira::SimulationConfig& config,
    lira::telemetry::TraceRecorder* trace,
    lira::telemetry::TelemetrySink* telemetry);

}  // namespace e2e

#endif  // E2EBENCH_DRIVER_H_
