#include "oracle/scalar_reduction_probes.h"

#include <cmath>

#include "lira/motion/dead_reckoning.h"

namespace lira::oracle {

int64_t ScalarUpdateCount(const Trace& trace, double delta) {
  DeadReckoningEncoder encoder(trace.num_nodes());
  for (NodeId id = 0; id < trace.num_nodes(); ++id) {
    encoder.Observe(trace.Sample(0, id), delta);
  }
  const int64_t initial = encoder.updates_emitted();
  for (int32_t f = 1; f < trace.num_frames(); ++f) {
    for (NodeId id = 0; id < trace.num_nodes(); ++id) {
      encoder.Observe(trace.Sample(f, id), delta);
    }
  }
  return encoder.updates_emitted() - initial;
}

double ScalarUpdateRate(const Trace& trace, double delta) {
  const double seconds = (trace.num_frames() - 1) * trace.dt();
  return static_cast<double>(ScalarUpdateCount(trace, delta)) / seconds;
}

std::vector<std::pair<double, double>> ScalarReductionProbes(
    const Trace& trace, const CalibrationConfig& config) {
  std::vector<std::pair<double, double>> probes;
  probes.reserve(config.num_probes);
  const double ratio = config.delta_max / config.delta_min;
  double base_count = 0.0;
  for (int32_t p = 0; p < config.num_probes; ++p) {
    const double delta =
        config.delta_min *
        std::pow(ratio, static_cast<double>(p) / (config.num_probes - 1));
    const auto count = static_cast<double>(ScalarUpdateCount(trace, delta));
    if (p == 0) {
      base_count = count;
    }
    probes.emplace_back(delta, count / base_count);
  }
  return probes;
}

StatusOr<PiecewiseLinearReduction> ReductionFromProbes(
    const CalibrationConfig& config,
    const std::vector<std::pair<double, double>>& pts) {
  auto interp = [&pts](double d) {
    if (d <= pts.front().first) {
      return pts.front().second;
    }
    if (d >= pts.back().first) {
      return pts.back().second;
    }
    for (size_t i = 1; i < pts.size(); ++i) {
      if (d <= pts[i].first) {
        const double t =
            (d - pts[i - 1].first) / (pts[i].first - pts[i - 1].first);
        return pts[i - 1].second + t * (pts[i].second - pts[i - 1].second);
      }
    }
    return pts.back().second;
  };
  return PiecewiseLinearReduction::SampleFunction(
      config.delta_min, config.delta_max, config.kappa, interp);
}

}  // namespace lira::oracle
