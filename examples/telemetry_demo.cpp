// Telemetry demo: runs LIRA with THROTLOOP against an under-provisioned
// server, captures the full telemetry stream in memory, and renders the
// adaptation story as text -- the z-convergence / queue-depth timeline the
// paper's Section 3.4 describes, plus a digest of the per-stage plan-build
// spans and adaptation events.
//
//   telemetry_demo [nodes] [capacity_fraction]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lira/core/policy.h"
#include "lira/sim/experiment.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"
#include "lira/telemetry/telemetry.h"

namespace {

using lira::telemetry::Event;
using lira::telemetry::EventKind;

/// Mean of the samples falling into each of `columns` equal time buckets
/// (NaN-free: buckets without samples repeat the previous value).
std::vector<double> Bucketize(const std::vector<Event>& samples,
                              double t_end, int columns) {
  std::vector<double> sums(columns, 0.0);
  std::vector<int> counts(columns, 0);
  for (const Event& e : samples) {
    int bucket = static_cast<int>(e.time / t_end * columns);
    bucket = std::clamp(bucket, 0, columns - 1);
    sums[bucket] += e.value;
    ++counts[bucket];
  }
  std::vector<double> out(columns, 0.0);
  double last = samples.empty() ? 0.0 : samples.front().value;
  for (int i = 0; i < columns; ++i) {
    if (counts[i] > 0) {
      last = sums[i] / counts[i];
    }
    out[i] = last;
  }
  return out;
}

void PrintBar(const char* label, double t, double value, double scale,
              int width, const char* suffix) {
  const int filled = value <= 0.0 || scale <= 0.0
                         ? 0
                         : std::clamp(static_cast<int>(value / scale * width),
                                      0, width);
  std::string bar(static_cast<size_t>(filled), '#');
  bar.resize(static_cast<size_t>(width), ' ');
  std::printf("  %6.0fs  %s=%7.3f |%s|%s\n", t, label, value, bar.c_str(),
              suffix);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lira;
  const int32_t nodes = argc > 1 ? std::atoi(argv[1]) : 1200;
  const double capacity_fraction = argc > 2 ? std::atof(argv[2]) : 0.45;

  auto world = BuildWorld(DefaultWorldConfig(nodes));
  if (!world.ok()) {
    std::fprintf(stderr, "BuildWorld: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  LiraPolicy policy(DefaultLiraConfig());
  SimulationConfig sim = DefaultSimulationConfig();
  sim.auto_throttle = true;
  sim.service_rate_override = capacity_fraction * world->full_update_rate;

  telemetry::MemoryEventSink events;
  telemetry::TelemetrySink sink(&events);
  sim.telemetry = &sink;
  sim.telemetry_stride = 5;

  auto result = RunSimulation(*world, policy, sim);
  if (!result.ok()) {
    std::fprintf(stderr, "RunSimulation: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const auto z_samples = events.Select(EventKind::kGauge, "lira.throtloop.z");
  const auto depth_samples =
      events.Select(EventKind::kGauge, "lira.queue.depth");
  const double t_end = z_samples.empty() ? 1.0 : z_samples.back().time;

  std::printf(
      "THROTLOOP convergence: %d nodes, capacity = %.0f%% of full load "
      "(mu = %.0f upd/s)\n\n",
      world->num_nodes(), capacity_fraction * 100.0,
      sim.service_rate_override);

  constexpr int kRows = 18;
  constexpr int kBarWidth = 30;
  const auto z_rows = Bucketize(z_samples, t_end, kRows);
  const auto depth_rows = Bucketize(depth_samples, t_end, kRows);
  const double depth_scale = std::max(
      1.0, *std::max_element(depth_rows.begin(), depth_rows.end()));
  std::printf("  throttle fraction z (|...| spans [0, 1])\n");
  for (int i = 0; i < kRows; ++i) {
    PrintBar("z", (i + 0.5) * t_end / kRows, z_rows[i], 1.0, kBarWidth, "");
  }
  std::printf("\n  server input-queue depth (|...| spans [0, %.0f])\n",
              depth_scale);
  for (int i = 0; i < kRows; ++i) {
    PrintBar("depth", (i + 0.5) * t_end / kRows, depth_rows[i], depth_scale,
             kBarWidth, "");
  }

  const telemetry::MetricRegistry& metrics = sink.metrics();
  const telemetry::Histogram* total =
      metrics.FindHistogram("lira.adapt.total_seconds");
  const telemetry::Histogram* reduce =
      metrics.FindHistogram("lira.adapt.gridreduce_seconds");
  const telemetry::Histogram* greedy =
      metrics.FindHistogram("lira.adapt.greedy_seconds");
  const telemetry::Counter* splits =
      metrics.FindCounter("lira.gridreduce.drilldowns");
  std::printf("\nadaptation loop (%zu adaptations):\n",
              events.Select(EventKind::kPlanRebuilt).size());
  if (total != nullptr) {
    std::printf("  total        p50=%.2f ms  p95=%.2f ms  max=%.2f ms\n",
                total->P50() * 1e3, total->P95() * 1e3, total->max() * 1e3);
  }
  if (reduce != nullptr && greedy != nullptr) {
    std::printf("  GRIDREDUCE   p50=%.2f ms   GREEDYINCREMENT p50=%.2f ms\n",
                reduce->P50() * 1e3, greedy->P50() * 1e3);
  }
  if (splits != nullptr) {
    std::printf("  drill-downs  %lld total\n",
                static_cast<long long>(splits->value()));
  }
  std::printf(
      "  z changes    %zu events; final z=%.3f (measured update fraction "
      "%.3f)\n",
      events.Select(EventKind::kZChanged).size(), result->final_z,
      result->measured_update_fraction);
  std::printf("  queue        %zu overflow events, %lld updates dropped\n",
              events.Select(EventKind::kQueueOverflow).size(),
              static_cast<long long>(result->updates_dropped));
  std::printf("\n%lld telemetry events captured in memory\n",
              static_cast<long long>(sink.events_emitted()));
  return 0;
}
