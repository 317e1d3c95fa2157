// lira_e2e: whole-run LIRA benchmark (world build, frame loop, adaptation).
//
//   lira_e2e --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out PATH] [--git DESC]
//   lira_e2e --selftest
//
// --nodes N --frames F shrink the world below the benchmark's 20000 x 600;
// only the self-test uses them.
//
// --trace 0 times BuildWorld and RunSimulation through their public entry
// points with tracing off, on three worlds drawn from the seed, and prints
// the end-to-end metrics. --trace 1 drives the same run layer by layer
// (driver.h), records a span around every call, checks that it reproduces
// BuildWorld and RunSimulation bit for bit, and prints the per-layer
// metrics (ledger.h); --trace-out writes the spans as a Chrome trace.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it (prefixed "# ") carry provenance, the state hash, and
// each metric with its spread and sample count. run.py builds and runs it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "driver.h"
#include "ledger.h"
#include "lira/core/policy.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"
#include "workload.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// Worlds per untraced run: set-up is timed this many times and the
/// quality metrics are averaged over them.
constexpr int32_t kWorldsPerRun = 3;
/// The traced loop's exclusive layer times must cover its wall time, taken
/// on the driver's own clock, within this fraction.
constexpr double kAccountingTolerance = 0.05;
/// RunSimulation calls on world 0 of an untraced run, at least: the repeat
/// must equal the first call bit for bit.
constexpr int32_t kMinRepeats = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool selftest = false;
  int32_t nodes = 20000;
  int32_t frames = 600;
  std::string trace_out;
  std::string git = "unknown";
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

std::vector<double> ScaledNs(const std::vector<int64_t>& ns, double scale) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (int64_t v : ns) {
    out.push_back(static_cast<double>(v) * scale);
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered metric list; printed once as "# " lines and once in the JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) {
      Fail(name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, unit, value, note});
  }
  /// A timing: median of the samples, with quartiles and count alongside.
  void AddTiming(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit) {
    char note[160];
    std::snprintf(note, sizeof(note), "q1=%.6g q3=%.6g n=%zu",
                  Quantile(samples, 0.25), Quantile(samples, 0.75),
                  samples.size());
    Add(name, Median(samples), unit, note);
  }
  void Fail(const std::string& why) {
    ++checks_failed_;
    std::printf("# check failed: %s\n", why.c_str());
  }
  int64_t checks_failed() const { return checks_failed_; }
  /// A unit of work (one world, or one traced run) fails when any check
  /// inside it fails; `attempted`/`failed` count units.
  void BeginUnit() {
    ++attempted_;
    unit_start_ = checks_failed_;
  }
  void EndUnit() { failed_ += checks_failed_ > unit_start_ ? 1 : 0; }

  void Print() const {
    for (const Entry& m : metrics_) {
      std::printf("# %-32s %.10g %s%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                checks_failed_ == 0 ? "true" : "false",
                std::max<int64_t>(1, attempted_),
                std::max<int64_t>(failed_, checks_failed_ > 0 ? 1 : 0));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
    std::string note;
  };
  std::vector<Entry> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_failed_ = 0;
  int64_t unit_start_ = 0;
};

void PrintProvenance(const Args& args, const Workload& w) {
  std::printf(
      "# provenance: {\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, "
      "\"build_type\": %s, \"git\": %s, \"workload\": %s, \"seed\": %" PRIu64
      ", \"threads\": %d, \"shards\": %d, \"nodes\": %d, \"frames\": %d, "
      "\"traced\": %s}\n",
      JsonString(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      JsonString(std::string("g++ ") + __VERSION__).c_str(),
      JsonString(E2E_BUILD_TYPE).c_str(), JsonString(args.git).c_str(),
      JsonString(w.name).c_str(), args.seed, w.sim.threads, w.sim.shards,
      w.world.num_nodes, w.world.trace_frames,
      args.traced ? "true" : "false");
}

/// Checks every run's result must pass, traced or not.
void CheckResult(const lira::SimulationResult& r, const lira::World& world,
                 const Workload& w, Report* report) {
  std::string why;
  if (!PlanRangeOk(r.final_plan_min_delta, r.final_plan_max_delta,
                   world.reduction.delta_min(), world.reduction.delta_max(),
                   w.lira.fairness_threshold, &why)) {
    report->Fail(why);
  }
  if (r.updates_sent <= 0 || r.updates_applied <= 0 ||
      r.updates_applied + r.updates_dropped > r.updates_sent) {
    report->Fail("update accounting is inconsistent");
  }
  if (r.metrics.num_samples <= 0 ||
      !(r.metrics.mean_containment_error >= 0.0)) {
    report->Fail("no accuracy samples");
  }
}

/// Builds world `k` and runs RunSimulation on it until `deadline` seconds
/// after `start`, and at least `min_runs` times, appending the wall times.
/// Returns the first run's result; repeats must equal it bit for bit.
std::optional<lira::SimulationResult> MeasureWorld(
    const Workload& w, uint64_t seed, int32_t k, int32_t min_runs,
    const lira::LoadSheddingPolicy& policy, Clock::time_point start,
    double deadline, std::vector<double>* setup_s, std::vector<double>* sim_s,
    Report* report) {
  const Clock::time_point build_start = Clock::now();
  auto world = lira::BuildWorld(WorldFor(w, seed, k));
  if (!world.ok()) {
    report->Fail("BuildWorld: " + world.status().ToString());
    return std::nullopt;
  }
  setup_s->push_back(SecondsSince(build_start));
  const lira::SimulationConfig sim = SimFor(w, seed, k, *world);
  std::optional<lira::SimulationResult> first;
  int32_t runs = 0;
  do {
    const Clock::time_point sim_start = Clock::now();
    auto result = lira::RunSimulation(*world, policy, sim);
    const double elapsed = SecondsSince(sim_start);
    if (!result.ok()) {
      report->Fail("RunSimulation: " + result.status().ToString());
      break;
    }
    sim_s->push_back(elapsed);
    ++runs;
    std::string why;
    if (!first.has_value()) {
      first = *result;
      CheckResult(*first, *world, w, report);
    } else if (!SameResult(*first, *result, &why)) {
      report->Fail("repeated RunSimulation is not deterministic: " + why);
    }
  } while (runs < min_runs || SecondsSince(start) < deadline);
  std::printf("# world %d: %d RunSimulation calls\n", k, runs);
  return first;
}

int RunUntraced(const Args& args, const Workload& w) {
  Report report;
  StateHash hash;
  auto policy = lira::MakePolicy("Lira", w.lira);
  if (!policy.ok()) {
    std::fprintf(stderr, "policy: %s\n", policy.status().ToString().c_str());
    return 1;
  }
  std::vector<double> setup_s;
  std::vector<double> sim_s;
  double containment = 0.0;
  double position = 0.0;
  int64_t offered = 0;
  int64_t applied = 0;
  int32_t worlds_ok = 0;
  const Clock::time_point start = Clock::now();
  for (int32_t k = 0; k < kWorldsPerRun; ++k) {
    report.BeginUnit();
    const double deadline = args.seconds * (k + 1) / kWorldsPerRun;
    const std::optional<lira::SimulationResult> result =
        MeasureWorld(w, args.seed, k, k == 0 ? kMinRepeats : 1, **policy,
                     start, deadline, &setup_s, &sim_s, &report);
    report.EndUnit();
    if (!result.has_value()) {
      continue;
    }
    hash.Add(*result);
    offered += result->updates_sent;
    applied += result->updates_applied;
    containment += result->metrics.mean_containment_error;
    position += result->metrics.mean_position_error;
    ++worlds_ok;
  }

  const double frames = w.world.trace_frames;
  std::vector<double> fps;
  for (double s : sim_s) {
    fps.push_back(frames / s);
  }
  report.AddTiming("setup_s", setup_s, "s");
  report.AddTiming("sim_frames_per_s", fps, "frames/s");
  report.Add("run_s", Median(setup_s) + Median(sim_s), "s",
             "median setup_s + median RunSimulation wall time");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("containment_error",
             worlds_ok > 0 ? containment / worlds_ok : 0.0, "ratio",
             "mean E^C over the run's worlds");
  report.Add("position_error_m", worlds_ok > 0 ? position / worlds_ok : 0.0,
             "m", "mean E^P over the run's worlds");
  // A run that failed a check counts as all of its updates failed.
  report.Add("update_apply_ratio",
             offered > 0 && report.checks_failed() == 0
                 ? static_cast<double>(applied) / offered
                 : 0.0,
             "ratio", "updates applied / updates offered");
  PrintProvenance(args, w);
  std::printf("# state_hash: %016" PRIx64 "\n", hash.value());
  report.Print();
  return 0;
}

double HistogramSum(const lira::telemetry::TelemetrySink& sink,
                    const char* name) {
  const lira::telemetry::Histogram* h = sink.metrics().FindHistogram(name);
  return h != nullptr ? h->mean() * static_cast<double>(h->count()) : 0.0;
}

/// |sum of the layers' exclusive loop times - loop wall time| / wall time,
/// with the wall time from the driver's clock rather than the recorder's.
/// Loop work outside every driver span and overlapping spans make it grow.
double CoverageError(const Ledger& ledger, const LoopRun& loop) {
  const double wall_s = static_cast<double>(loop.loop_wall_ns) * 1e-9;
  double layers_s = 0.0;
  for (const auto& [layer, seconds] : ledger.layer_self_s) {
    layers_s += seconds;
  }
  return wall_s > 0.0 ? std::abs(layers_s - wall_s) / wall_s : 1.0;
}

struct TracedOutcome {
  std::optional<LoopRun> loop;
  Ledger ledger;
  double coverage_error = 1.0;
  double untraced_sim_s = 0.0;
  double core_adapt_s = 0.0;
  lira::telemetry::TelemetrySink sink;
};

/// One traced run: world by layer (checked against BuildWorld), untraced
/// RunSimulation baseline, traced driver loop (checked against it).
void RunTracedOnce(const Workload& w, uint64_t seed, double seconds,
                   lira::telemetry::TraceRecorder* trace,
                   TracedOutcome* out, Report* report, StateHash* hash) {
  const Clock::time_point start = Clock::now();
  auto policy = lira::MakePolicy("Lira", w.lira);
  if (!policy.ok()) {
    report->Fail("policy: " + policy.status().ToString());
    return;
  }
  const lira::WorldConfig world_config = WorldFor(w, seed, 0);
  std::optional<lira::World> world;
  {
    auto reference = lira::BuildWorld(world_config);
    auto built = BuildWorldByLayer(world_config, trace);
    if (!reference.ok() || !built.ok()) {
      report->Fail("world build failed");
      return;
    }
    std::string why;
    if (!SameWorld(*reference, *built, &why)) {
      report->Fail("layer-driven world differs from BuildWorld: " + why);
    }
    world.emplace(*std::move(built));
  }
  const lira::SimulationConfig sim = SimFor(w, seed, 0, *world);

  std::optional<lira::SimulationResult> base;
  std::vector<double> base_s;
  do {
    const Clock::time_point sim_start = Clock::now();
    auto result = lira::RunSimulation(*world, **policy, sim);
    base_s.push_back(SecondsSince(sim_start));
    if (!result.ok()) {
      report->Fail("RunSimulation: " + result.status().ToString());
      return;
    }
    if (!base.has_value()) {
      base = *result;
      CheckResult(*base, *world, w, report);
      hash->Add(*base);
    }
  } while (SecondsSince(start) < seconds * 0.6 && base_s.size() < 3);
  out->untraced_sim_s = Median(base_s);

  auto loop = RunDriverLoop(*world, **policy, sim, trace, &out->sink);
  if (!loop.ok()) {
    report->Fail("driver loop: " + loop.status().ToString());
    return;
  }
  std::string why;
  if (!SameResult(*base, loop->result, &why)) {
    report->Fail("driver loop differs from RunSimulation: " + why);
  }
  for (double delta : loop->final_deltas) {
    hash->AddValue(delta);
  }
  if (!PlanOk(loop->final_deltas, world->reduction.delta_min(),
              world->reduction.delta_max(), w.lira.fairness_threshold,
              &why)) {
    report->Fail("final plan: " + why);
  }
  out->core_adapt_s =
      HistogramSum(out->sink, "lira.adapt.quad_build_seconds") +
      HistogramSum(out->sink, "lira.adapt.gridreduce_seconds") +
      HistogramSum(out->sink, "lira.adapt.greedy_seconds");
  if (trace != nullptr) {
    out->ledger = BuildLedger(*trace, loop->loop_start_ns, loop->loop_end_ns,
                              FirstWorkerLane(sim), out->core_adapt_s);
    out->coverage_error = CoverageError(out->ledger, *loop);
    if (!(out->coverage_error <= kAccountingTolerance)) {
      report->Fail("layer times cover the loop wall time only within " +
                   std::to_string(out->coverage_error));
    }
  }
  out->loop = *std::move(loop);
}

int RunTraced(const Args& args, const Workload& w) {
  Report report;
  StateHash hash;
  lira::telemetry::TraceRecorder trace(LanesFor(w.sim));
  TracedOutcome out;
  report.BeginUnit();
  RunTracedOnce(w, args.seed, args.seconds, &trace, &out, &report, &hash);
  if (!args.trace_out.empty()) {
    const lira::Status written = trace.WriteChromeTrace(args.trace_out);
    if (!written.ok()) {
      report.Fail("trace export: " + written.ToString());
    } else {
      std::printf("# chrome trace: %s (%zu spans)\n", args.trace_out.c_str(),
                  trace.TotalSpans());
    }
  }
  report.EndUnit();

  const Ledger& l = out.ledger;
  const auto setup = [&](const char* name) {
    const auto it = l.setup_s.find(name);
    return it != l.setup_s.end() ? it->second : 0.0;
  };
  const auto driver = [&](const char* name) {
    const auto it = l.driver_s.find(name);
    return it != l.driver_s.end() ? it->second : 0.0;
  };
  const auto program = [&](const char* name) {
    const auto it = l.program_self_s.find(name);
    return it != l.program_self_s.end() ? it->second : 0.0;
  };
  const auto layer = [&](const char* name) {
    const auto it = l.layer_self_s.find(name);
    return it != l.layer_self_s.end() ? it->second : 0.0;
  };
  const LoopRun empty;
  const LoopRun& run = out.loop.has_value() ? *out.loop : empty;
  const lira::SimulationResult& r = run.result;

  // Set-up, one layer call each.
  report.Add("roadnet.map_s", setup("roadnet.map"), "s");
  report.Add("mobility.record_s", setup("mobility.record"), "s");
  report.Add("mobility.trace_mb",
             16.0 * w.world.num_nodes * w.world.trace_frames / 1e6, "MB");
  report.Add("motion.calibrate_s", setup("motion.calibrate"), "s");
  report.Add("motion.update_rate_s", setup("motion.update_rate"), "s");
  report.Add("cq.generate_s", setup("cq.generate"), "s");
  // Exclusive loop time per layer.
  for (const char* name : {"mobility", "motion", "core", "cq", "server",
                           "sim"}) {
    report.Add(std::string(name) + ".loop_self_s", layer(name), "s");
  }
  report.Add("sim.unaccounted_share",
             l.loop_s > 0.0 ? l.unaccounted_s / l.loop_s : 0.0, "ratio");
  report.Add("sim.pass_idle_s", l.pass_idle_s, "s");
  std::printf("# layer coverage error: %.6f (tolerance %.2f)\n",
              out.coverage_error, kAccountingTolerance);
  // Node side.
  report.Add("mobility.unpack_s", driver("mobility.unpack"), "s");
  report.Add("motion.encode_s", driver("motion.encode"), "s");
  report.Add("core.plan_lookup_s", driver("core.plan_lookup"), "s");
  report.Add("motion.updates_emitted", static_cast<double>(r.updates_sent),
             "count");
  // Query evaluation.
  report.Add("cq.apply_sample_s", driver("cq.apply_sample"), "s");
  report.Add("cq.evaluate_s", driver("cq.evaluate"), "s");
  report.Add("cq.samples", static_cast<double>(run.samples), "count");
  report.Add("cq.deltas_applied", static_cast<double>(run.deltas_applied),
             "count");
  // (node, query) pairs the incremental walk examined, as a share of the
  // pairs a full rescan of every sample would compare.
  const double all_pairs = static_cast<double>(run.num_queries) *
                           w.world.num_nodes * static_cast<double>(run.samples);
  report.Add("cq.touched_ratio",
             all_pairs > 0.0 ? static_cast<double>(run.queries_touched) /
                                   all_pairs
                             : 0.0,
             "ratio");
  // Server, timed from outside.
  const std::vector<double> tick_us = ScaledNs(run.tick_ns, 1e-3);
  const std::vector<double> adapt_ms = ScaledNs(run.adapt_ns, 1e-6);
  report.Add("server.receive_s", driver("server.receive"), "s");
  report.Add("server.tick_s", driver("server.tick"), "s");
  report.Add("server.tick_p50_us", Quantile(tick_us, 0.5), "us");
  report.Add("server.tick_p98_us", Quantile(tick_us, 0.98), "us");
  report.Add("server.adapt_s", driver("server.adapt"), "s");
  report.Add("server.adapts", static_cast<double>(adapt_ms.size()), "count");
  report.Add("server.adapt_p50_ms", Quantile(adapt_ms, 0.5), "ms");
  report.Add("server.adapt_p90_ms", Quantile(adapt_ms, 0.9), "ms");
  report.Add("server.fill_believed_s", driver("server.fill_believed"), "s");
  report.Add("server.updates_offered", static_cast<double>(r.updates_sent),
             "count");
  report.Add("server.updates_dropped", static_cast<double>(r.updates_dropped),
             "count");
  report.Add("server.updates_applied", static_cast<double>(r.updates_applied),
             "count");
  report.Add("server.final_z", r.final_z, "ratio");
  // Server and core stages, from the program's own spans and timers. A
  // cluster-only stage is folded into the stage it extends, so every time
  // is measured on every workload: routing into admission, handoffs into
  // tracker apply, the shard merge into the stats rebuild, and rebalancing
  // into the adaptation's control step.
  report.Add("server.ingest_admit_s",
             program("ingest.route") + program("ingest.receive"), "s");
  report.Add("server.ingest_service_s", program("ingest.service"), "s");
  report.Add("server.tracker_apply_s",
             program("tracker.apply") + program("tracker.handoffs"), "s");
  report.Add("server.stats_rebuild_s",
             program("stats.rebuild") + program("stats.merge"), "s");
  report.Add("server.stats_query_rebuild_s", program("stats.query_rebuild"),
             "s");
  report.Add("server.adapt_control_s",
             program("optimizer.throttle") + program("cluster.rebalance"),
             "s");
  report.Add("server.optimizer_plan_build_s",
             program("optimizer.plan_build") - out.core_adapt_s, "s");
  report.Add("core.quad_build_s",
             HistogramSum(out.sink, "lira.adapt.quad_build_seconds"), "s");
  report.Add("core.gridreduce_s",
             HistogramSum(out.sink, "lira.adapt.gridreduce_seconds"), "s");
  report.Add("core.greedy_s",
             HistogramSum(out.sink, "lira.adapt.greedy_seconds"), "s");
  // Harness.
  const std::vector<double> frame_ms = ScaledNs(run.frame_ns, 1e-6);
  report.Add("sim.reference_s", driver("sim.reference"), "s");
  report.Add("sim.loop_s", static_cast<double>(run.loop_wall_ns) * 1e-9,
             "s");
  report.Add("sim.frame_p50_ms", Quantile(frame_ms, 0.5), "ms");
  report.Add("sim.frame_p98_ms", Quantile(frame_ms, 0.98), "ms");
  report.Add("sim.trace_overhead_ratio",
             out.untraced_sim_s > 0.0
                 ? static_cast<double>(run.loop_wall_ns) * 1e-9 /
                       out.untraced_sim_s
                 : 0.0,
             "ratio");
  PrintProvenance(args, w);
  std::printf("# state_hash: %016" PRIx64 "\n", hash.value());
  report.Print();
  return 0;
}

/// Reduced-scale check that the driver loop and layer-driven world build
/// equal BuildWorld + RunSimulation, for S = 0 and S = 4 at 1 and 2
/// threads, with and without tracing.
int RunSelfTest(const Args& args) {
  struct Case {
    const char* workload;
    int32_t threads;
  };
  const Case cases[] = {{"steady_20k", 1},
                        {"adapt_1024", 2},
                        {"sharded_overload", 1},
                        {"sharded_overload", 2}};
  int failures = 0;
  std::optional<lira::SimulationResult> sharded_result;
  for (const Case& c : cases) {
    auto w = MakeWorkload(c.workload, args.nodes, args.frames);
    if (!w.ok()) {
      std::printf("FAIL %s: %s\n", c.workload, w.status().ToString().c_str());
      ++failures;
      continue;
    }
    w->sim.threads = c.threads;
    Report report;
    StateHash hash;
    lira::telemetry::TraceRecorder trace(LanesFor(w->sim));
    TracedOutcome out;
    RunTracedOnce(*w, args.seed, 0.0, &trace, &out, &report, &hash);
    // Untraced driver loop too: the spans must not change the result.
    auto policy = lira::MakePolicy("Lira", w->lira);
    auto world = lira::BuildWorld(WorldFor(*w, args.seed, 0));
    if (policy.ok() && world.ok() && out.loop.has_value()) {
      const lira::SimulationConfig sim = SimFor(*w, args.seed, 0, *world);
      auto plain = RunDriverLoop(*world, **policy, sim, nullptr, nullptr);
      std::string why;
      if (!plain.ok()) {
        report.Fail("untraced driver loop: " + plain.status().ToString());
      } else if (!SameResult(out.loop->result, plain->result, &why)) {
        report.Fail("untraced driver loop differs: " + why);
      }
      if (w->sim.shards > 0) {
        // Same answer at every thread count.
        if (!sharded_result.has_value()) {
          sharded_result = out.loop->result;
        } else if (!SameResult(*sharded_result, out.loop->result, &why)) {
          report.Fail("sharded result depends on the thread count: " + why);
        }
      }
    } else {
      report.Fail("self-test setup failed");
    }
    const bool ok = report.checks_failed() == 0 && out.loop.has_value();
    failures += ok ? 0 : 1;
    std::printf("%s %s threads=%d shards=%d state_hash=%016" PRIx64
                " coverage_error=%.4f unaccounted_share=%.4f\n",
                ok ? "PASS" : "FAIL", c.workload, c.threads, w->sim.shards,
                hash.value(), out.coverage_error,
                out.ledger.loop_s > 0.0
                    ? out.ledger.unaccounted_s / out.ledger.loop_s
                    : 0.0);
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lira_e2e: %s\nusage: lira_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--nodes N] [--frames F] "
               "[--trace-out PATH] [--git DESC]\n       lira_e2e --selftest "
               "[--nodes N] [--frames F] [--seed N]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool seen_nodes = false;
  bool seen_frames = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.traced = std::strcmp(value, "1") == 0;
      if (!args.traced && std::strcmp(value, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--nodes") {
      args.nodes = static_cast<int32_t>(std::strtol(value, &end, 10));
      seen_nodes = true;
    } else if (flag == "--frames") {
      args.frames = static_cast<int32_t>(std::strtol(value, &end, 10));
      seen_frames = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--git") {
      args.git = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.selftest) {
    args.nodes = seen_nodes ? args.nodes : 2000;
    args.frames = seen_frames ? args.frames : 240;
  } else if (args.workload.empty() || !(args.seconds > 0.0)) {
    Usage("--workload and a positive --seconds are required");
  }
  return args;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::ParseArgs(argc, argv);
  if (args.selftest) {
    return e2e::RunSelfTest(args);
  }
  auto workload = e2e::MakeWorkload(args.workload, args.nodes, args.frames);
  if (!workload.ok()) {
    std::fprintf(stderr, "lira_e2e: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  return args.traced ? e2e::RunTraced(args, *workload)
                     : e2e::RunUntraced(args, *workload);
}
