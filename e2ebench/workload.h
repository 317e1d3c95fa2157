// Workload definitions and result checks shared by the benchmark modes.
//
// Every workload runs Lira with 1 km proportional queries at m/n = 0.01 on
// the default 14 km map. The benchmark seed picks the trace, the query
// placement and the server seed; the map stays the default one.

#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/sim/simulation.h"
#include "lira/sim/world.h"

namespace e2e {

struct Workload {
  std::string name;
  lira::WorldConfig world;
  lira::LiraConfig lira;
  lira::SimulationConfig sim;
  /// B = n: the queue holds one frame's batch from every node.
  bool queue_equals_nodes = false;
  /// > 0: THROTLOOP workloads serve this fraction of the full update rate.
  double service_fraction = 0.0;
};

/// The named workload at `nodes` x `frames` (20000 x 600 in the benchmark;
/// smaller in the self-test).
lira::StatusOr<Workload> MakeWorkload(const std::string& name, int32_t nodes,
                                      int32_t frames);

/// World `index` of a run with benchmark seed `seed`: the same pair always
/// gives the same world.
lira::WorldConfig WorldFor(const Workload& workload, uint64_t seed,
                           int32_t index);

/// The simulation settings for a built world (B = n and the THROTLOOP
/// service rate depend on it).
lira::SimulationConfig SimFor(const Workload& workload, uint64_t seed,
                              int32_t index, const lira::World& world);

/// True when every deterministic field of the two results is bitwise equal
/// (everything but the plan-build wall times). `why` names the first
/// difference.
bool SameResult(const lira::SimulationResult& a,
                const lira::SimulationResult& b, std::string* why);

/// Budget and fairness checks on the final plan's range: every Delta_i in
/// [delta_min, delta_max] and max - min <= the fairness threshold.
bool PlanRangeOk(double min_delta, double max_delta, double delta_min,
                 double delta_max, double fairness, std::string* why);
/// As PlanRangeOk over the throttlers of every region of a plan.
bool PlanOk(const std::vector<double>& deltas, double delta_min,
            double delta_max, double fairness, std::string* why);

/// FNV-1a over the bits of a result's deterministic fields.
class StateHash {
 public:
  void Add(const lira::SimulationResult& result);
  void AddBytes(const void* data, size_t size);
  template <typename T>
  void AddValue(const T& value) {
    AddBytes(&value, sizeof(value));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
