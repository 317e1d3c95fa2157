// The per-threshold scalar calibration: one full pass over the trace per
// probe threshold, one DeadReckoningEncoder::Observe call per sample. This
// is how f(Delta) was measured before the one-sweep calibration, kept as
// its bitwise oracle: update counts are integers and the span encoder is
// bitwise equal to scalar Observe, so both paths hold the same bits.

#ifndef LIRA_TESTS_ORACLE_SCALAR_REDUCTION_PROBES_H_
#define LIRA_TESTS_ORACLE_SCALAR_REDUCTION_PROBES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "lira/mobility/trace.h"
#include "lira/motion/update_reduction.h"

namespace lira::oracle {

/// Updates emitted over frames 1.. of `trace` at threshold `delta`; frame 0
/// initializes every node's reference model and is not counted.
int64_t ScalarUpdateCount(const Trace& trace, double delta);

/// MeasureUpdateRate by one scalar pass. Requires >= 2 frames.
double ScalarUpdateRate(const Trace& trace, double delta);

/// MeasureReductionProbes by one scalar pass per probe threshold. Requires
/// a valid config, >= 2 frames and updates at delta_min.
std::vector<std::pair<double, double>> ScalarReductionProbes(
    const Trace& trace, const CalibrationConfig& config);

/// CalibrateReduction's PWL model of `probes` (ScalarReductionProbes'
/// output): the probe curve linearly interpolated onto the knot grid.
StatusOr<PiecewiseLinearReduction> ReductionFromProbes(
    const CalibrationConfig& config,
    const std::vector<std::pair<double, double>>& probes);

}  // namespace lira::oracle

#endif  // LIRA_TESTS_ORACLE_SCALAR_REDUCTION_PROBES_H_
