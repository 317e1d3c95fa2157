// Figure 1: reduction in the number of location updates received with
// different inaccuracy thresholds.
//
// Measures f(Delta) on the synthetic trace by running the dead-reckoning
// encoder at geometrically spaced probe thresholds, exactly as the paper
// calibrated its curve, and prints the probes next to the kappa-segment PWL
// model that LIRA's optimizer consumes. Expected shape: steep convex drop
// near delta_min = 5 m flattening into a linear tail towards
// delta_max = 100 m; the bench exits 1 when the shape check fails.

#include <cstdio>

#include "bench/bench_util.h"
#include "lira/motion/update_reduction.h"

int main() {
  using namespace lira;
  World world = bench::MustBuildWorld();
  bench::PrintWorldBanner(world,
                          "=== Figure 1: update reduction factor f(Delta) ===");

  CalibrationConfig config;
  config.num_probes = 16;
  auto probes = MeasureReductionProbes(world.trace, config);
  if (!probes.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 probes.status().ToString().c_str());
    return 1;
  }

  TablePrinter table({"Delta (m)", "f(Delta)", "PWL model", "upd/s"});
  table.PrintHeader();
  for (const auto& [delta, f_measured] : *probes) {
    table.PrintRow({TablePrinter::Num(delta, 4),
                    TablePrinter::Num(f_measured, 4),
                    TablePrinter::Num(world.reduction.Eval(delta), 4),
                    TablePrinter::Num(f_measured * world.full_update_rate, 4)});
  }

  // The paper's qualitative claims about the curve.
  const double early_drop =
      world.reduction.Eval(5.0) - world.reduction.Eval(20.0);
  const double late_drop =
      world.reduction.Eval(20.0) - world.reduction.Eval(100.0);
  const bool shape_ok = early_drop > late_drop;
  std::printf(
      "\nshape check: drop over [5,20] m = %.3f vs drop over [20,100] m = "
      "%.3f (paper: early drop dominates) -> %s\n",
      early_drop, late_drop, shape_ok ? "OK" : "MISMATCH");
  std::printf("PWL model: kappa=%d segments of %.2f m\n",
              world.reduction.kappa(), world.reduction.segment_width());
  return shape_ok ? 0 : 1;
}
