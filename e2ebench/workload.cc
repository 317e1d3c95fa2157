#include "workload.h"

#include <algorithm>
#include <bit>

#include "lira/sim/experiment.h"

namespace e2e {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t DerivedSeed(uint64_t seed, int32_t index, uint64_t stream) {
  return SplitMix64(SplitMix64(seed) ^
                    SplitMix64((static_cast<uint64_t>(index) << 8) | stream));
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

lira::StatusOr<Workload> MakeWorkload(const std::string& name, int32_t nodes,
                                      int32_t frames) {
  if (nodes < 100 || frames < 40) {
    return lira::InvalidArgumentError("need >= 100 nodes and >= 40 frames");
  }
  Workload w;
  w.name = name;
  w.world = lira::DefaultWorldConfig(nodes);
  w.world.trace_frames = frames;
  w.lira = lira::DefaultLiraConfig();
  w.sim = lira::DefaultSimulationConfig();
  w.sim.warmup_frames = std::min(w.sim.warmup_frames, frames / 2);
  w.sim.z = 0.5;
  if (name == "steady_20k") {
    // The paper's default operating point.
    w.sim.threads = 1;
    w.queue_equals_nodes = true;
  } else if (name == "adapt_1024") {
    // High end of Figure 14, adapting every 5 s.
    w.sim.alpha = 1024;
    w.lira.l = 1000;
    w.sim.adaptation_period = 5.0;
    w.sim.threads = 1;
    w.queue_equals_nodes = true;
  } else if (name == "sharded_overload") {
    // Four rebalanced shards under THROTLOOP at half the full rate, with
    // the default B = 500 (125 per shard).
    w.world.mobility = lira::MobilityModel::kTrips;
    w.sim.alpha = 1024;
    w.lira.l = 1000;
    w.sim.shards = 4;
    w.sim.rebalance_stride = 1;
    w.sim.threads = 2;
    w.sim.auto_throttle = true;
    w.service_fraction = 0.5;
  } else {
    return lira::InvalidArgumentError("unknown workload: " + name);
  }
  return w;
}

lira::WorldConfig WorldFor(const Workload& workload, uint64_t seed,
                           int32_t index) {
  lira::WorldConfig config = workload.world;
  config.seed = DerivedSeed(seed, index, 1);
  return config;
}

lira::SimulationConfig SimFor(const Workload& workload, uint64_t seed,
                              int32_t index, const lira::World& world) {
  lira::SimulationConfig config = workload.sim;
  config.seed = DerivedSeed(seed, index, 2);
  if (workload.queue_equals_nodes) {
    config.queue_capacity = static_cast<size_t>(world.num_nodes());
  }
  if (workload.service_fraction > 0.0) {
    config.service_rate_override =
        workload.service_fraction * world.full_update_rate;
  }
  return config;
}

bool SameResult(const lira::SimulationResult& a,
                const lira::SimulationResult& b, std::string* why) {
  const auto differs = [why](const char* field) {
    *why = std::string("results differ in ") + field;
    return false;
  };
  const lira::ErrorMetrics& ma = a.metrics;
  const lira::ErrorMetrics& mb = b.metrics;
  if (!SameBits(ma.mean_containment_error, mb.mean_containment_error)) {
    return differs("E^C");
  }
  if (!SameBits(ma.mean_position_error, mb.mean_position_error)) {
    return differs("E^P");
  }
  if (!SameBits(ma.containment_error_stddev, mb.containment_error_stddev) ||
      !SameBits(ma.containment_error_cov, mb.containment_error_cov) ||
      !SameBits(ma.position_error_stddev, mb.position_error_stddev)) {
    return differs("error deviations");
  }
  if (ma.num_samples != mb.num_samples || ma.num_queries != mb.num_queries) {
    return differs("sample counts");
  }
  if (!SameBits(a.final_z, b.final_z)) {
    return differs("final z");
  }
  if (a.updates_sent != b.updates_sent) {
    return differs("updates sent");
  }
  if (a.updates_dropped != b.updates_dropped) {
    return differs("updates dropped");
  }
  if (a.updates_applied != b.updates_applied) {
    return differs("updates applied");
  }
  if (a.plan_builds != b.plan_builds) {
    return differs("plan builds");
  }
  if (a.final_plan_regions != b.final_plan_regions ||
      !SameBits(a.final_plan_min_delta, b.final_plan_min_delta) ||
      !SameBits(a.final_plan_max_delta, b.final_plan_max_delta)) {
    return differs("final plan shape");
  }
  if (!SameBits(a.measured_update_fraction, b.measured_update_fraction)) {
    return differs("measured update fraction");
  }
  return true;
}

bool PlanRangeOk(double min_delta, double max_delta, double delta_min,
                 double delta_max, double fairness, std::string* why) {
  constexpr double kSlack = 1e-9;
  if (!(min_delta >= delta_min - kSlack) ||
      !(max_delta <= delta_max + kSlack)) {
    *why = "plan throttler outside [delta_min, delta_max]";
    return false;
  }
  if (!(max_delta - min_delta <= fairness + kSlack)) {
    *why = "plan violates the fairness threshold";
    return false;
  }
  return true;
}

bool PlanOk(const std::vector<double>& deltas, double delta_min,
            double delta_max, double fairness, std::string* why) {
  if (deltas.empty()) {
    *why = "empty plan";
    return false;
  }
  const auto [lo, hi] = std::minmax_element(deltas.begin(), deltas.end());
  return PlanRangeOk(*lo, *hi, delta_min, delta_max, fairness, why);
}

void StateHash::AddBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
  }
}

void StateHash::Add(const lira::SimulationResult& r) {
  const lira::ErrorMetrics& m = r.metrics;
  AddValue(m.mean_containment_error);
  AddValue(m.mean_position_error);
  AddValue(m.containment_error_stddev);
  AddValue(m.containment_error_cov);
  AddValue(m.position_error_stddev);
  AddValue(m.num_samples);
  AddValue(m.num_queries);
  AddValue(r.final_z);
  AddValue(r.updates_sent);
  AddValue(r.updates_dropped);
  AddValue(r.updates_applied);
  AddValue(r.plan_builds);
  AddValue(r.final_plan_regions);
  AddValue(r.final_plan_min_delta);
  AddValue(r.final_plan_max_delta);
  AddValue(r.measured_update_fraction);
}

}  // namespace e2e
