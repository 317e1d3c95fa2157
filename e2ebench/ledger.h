// Turns the spans of a traced run into per-layer times.
//
// Driver spans are named "<layer>.<op>" after the repository module the
// call enters (roadnet, mobility, motion, cq, core, server, sim). Every
// other span comes from inside the program (the server's stage spans).
//
// Exclusive loop time per layer: each top-level driver span on lane 0 is
// charged to its layer, except the two ParallelFor passes, whose wall time
// is shared out among the worker-lane spans inside them (a layer gets its
// summed worker time divided by the number of lanes that ran). The core
// phases of an adaptation (quad build, GRIDREDUCE, GREEDYINCREMENT), which
// the program times with its lira.adapt.* timers inside server calls, move
// from server to core. The part of a pass no worker spent in a span (waking
// the workers, waiting for the slowest chunk) is the harness's own
// ParallelFor cost and is charged to sim. Whatever lane 0 spends outside
// any driver span is unaccounted.

#ifndef E2EBENCH_LEDGER_H_
#define E2EBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>

#include "lira/telemetry/trace.h"

namespace e2e {

struct Ledger {
  /// Exclusive seconds per layer inside the loop window.
  std::map<std::string, double> layer_self_s;
  double unaccounted_s = 0.0;
  /// Pass time no worker spent in a span, per lane; included in sim.
  double pass_idle_s = 0.0;
  double loop_s = 0.0;
  /// Inclusive seconds per driver span name, summed over lanes.
  std::map<std::string, double> driver_s;
  /// Self seconds per program span name (minus program spans nested in it
  /// on the same lane), summed over lanes.
  std::map<std::string, double> program_self_s;
  /// Driver span durations on lane 0 (only the top-level calls), by name,
  /// seconds; used for set-up.
  std::map<std::string, double> setup_s;
};

/// True for the benchmark's own span names.
bool IsDriverSpan(const char* name);

/// `loop_start_ns`/`loop_end_ns` bound the frame loop on the recorder's
/// clock; spans before it are set-up. `first_worker_lane` is the driver's
/// chunk-lane base; `core_adapt_s` the lira.adapt.* core phase seconds.
Ledger BuildLedger(const lira::telemetry::TraceRecorder& trace,
                   int64_t loop_start_ns, int64_t loop_end_ns,
                   int32_t first_worker_lane, double core_adapt_s);

}  // namespace e2e

#endif  // E2EBENCH_LEDGER_H_
