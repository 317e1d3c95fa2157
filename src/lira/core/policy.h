// Load-shedding policies: LIRA and the paper's three baselines behind one
// interface (Section 4.2):
//
//   * RandomDropPolicy  -- every node at delta_min; excess updates dropped
//                          at the server's input FIFO.
//   * UniformDeltaPolicy-- one global threshold with f(Delta) <= z.
//   * LiraGridPolicy    -- even l-partitioning + GREEDYINCREMENT.
//   * LiraPolicy        -- full (alpha, l)-partitioning via GRIDREDUCE +
//                          GREEDYINCREMENT.
//
// A policy consumes the server-maintained statistics grid plus the current
// throttle fraction and produces a SheddingPlan for dissemination.

#ifndef LIRA_CORE_POLICY_H_
#define LIRA_CORE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/core/quad_hierarchy.h"
#include "lira/core/shedding_plan.h"
#include "lira/core/statistics_grid.h"
#include "lira/motion/update_reduction.h"
#include "lira/telemetry/telemetry.h"

namespace lira {

/// Everything a policy may consult when (re)building its plan. The
/// statistics grid must already contain both node and query statistics.
struct PolicyContext {
  const StatisticsGrid* stats = nullptr;
  const UpdateReductionFunction* reduction = nullptr;
  /// Throttle fraction for the upcoming period.
  double z = 1.0;
  /// Optional instrumentation: per-stage plan-build spans and GRIDREDUCE
  /// drill-down events are recorded here, stamped with `now`.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Server time attached to telemetry records.
  double now = 0.0;
  /// Optional worker pool (not owned) used by LiraPolicy for the quad-tree
  /// build and the GRIDREDUCE drill-down waves. Plans are bitwise identical
  /// with or without it (see QuadHierarchy::Build and GridReduceConfig).
  ThreadPool* pool = nullptr;
  /// Optional kept quad tree (not owned), bound to the grid `stats` points
  /// at (QuadHierarchy::Bind). LiraPolicy refreshes it in place, consuming
  /// the grid's dirty set; without one it builds a fresh tree. Plans are
  /// bitwise identical either way. The other policies ignore it.
  QuadHierarchy* quad = nullptr;
};

/// Interface of a load-shedding policy.
class LoadSheddingPolicy {
 public:
  virtual ~LoadSheddingPolicy() = default;

  virtual std::string_view name() const = 0;

  /// True when the policy sheds at the server's input queue instead of at
  /// the sources (only Random Drop).
  virtual bool SheddingAtServer() const { return false; }

  virtual StatusOr<SheddingPlan> BuildPlan(const PolicyContext& ctx) const = 0;
};

/// Shared knobs of the region-aware policies (paper Table 2 defaults).
struct LiraConfig {
  /// Number of shedding regions l (l mod 3 == 1 for LiraPolicy).
  int32_t l = 250;
  /// Increment c_delta, meters.
  double c_delta = 1.0;
  /// Fairness threshold Delta_fair, meters.
  double fairness_threshold = 50.0;
  /// Apply the speed factor s_i / s_hat in the update budget.
  bool use_speed_factor = true;
  /// Resolution of the plan's point-lookup grid.
  int32_t locator_cells = 32;
};

class RandomDropPolicy final : public LoadSheddingPolicy {
 public:
  std::string_view name() const override { return "RandomDrop"; }
  bool SheddingAtServer() const override { return true; }
  StatusOr<SheddingPlan> BuildPlan(const PolicyContext& ctx) const override;
};

class UniformDeltaPolicy final : public LoadSheddingPolicy {
 public:
  std::string_view name() const override { return "UniformDelta"; }
  StatusOr<SheddingPlan> BuildPlan(const PolicyContext& ctx) const override;
};

class LiraGridPolicy final : public LoadSheddingPolicy {
 public:
  explicit LiraGridPolicy(const LiraConfig& config) : config_(config) {}
  std::string_view name() const override { return "Lira-Grid"; }
  StatusOr<SheddingPlan> BuildPlan(const PolicyContext& ctx) const override;

 private:
  LiraConfig config_;
};

class LiraPolicy final : public LoadSheddingPolicy {
 public:
  explicit LiraPolicy(const LiraConfig& config) : config_(config) {}
  std::string_view name() const override { return "Lira"; }
  StatusOr<SheddingPlan> BuildPlan(const PolicyContext& ctx) const override;

 private:
  LiraConfig config_;
};

/// Convenience factory by name ("Lira", "Lira-Grid", "UniformDelta",
/// "RandomDrop").
StatusOr<std::unique_ptr<LoadSheddingPolicy>> MakePolicy(
    std::string_view name, const LiraConfig& config);

}  // namespace lira

#endif  // LIRA_CORE_POLICY_H_
