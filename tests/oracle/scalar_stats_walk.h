// The scalar incremental statistics walk: one PredictAt + BelievedSpeed
// per node id, relocating the node's grid contribution only when its cell
// or quantized speed changed. This is the per-node loop StatsStage ran
// before its columnar rebuild, kept as the bitwise oracle for it: grids
// are integer accumulators, so the walk, the columnar rebuild (serial or
// pooled) and a from-scratch repopulation all hold the same bits.

#ifndef LIRA_TESTS_ORACLE_SCALAR_STATS_WALK_H_
#define LIRA_TESTS_ORACLE_SCALAR_STATS_WALK_H_

#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/core/statistics_grid.h"
#include "lira/mobility/position.h"
#include "lira/motion/dead_reckoning.h"

namespace lira::oracle {

class ScalarStatsWalk {
 public:
  static StatusOr<ScalarStatsWalk> Create(const Rect& world, int32_t alpha,
                                          int32_t num_nodes);

  /// Relocates every id's contribution in ascending id order; returns the
  /// cells dirtied.
  int64_t RebuildAll(const PositionTracker& tracker, double now);

  /// One node's relocation step; returns the cells dirtied (0..2).
  int64_t Relocate(const PositionTracker& tracker, NodeId id, double now);

  /// Retracts a node's contribution (the cross-shard handoff).
  void Forget(NodeId id);

  const StatisticsGrid& grid() const { return grid_; }
  StatisticsGrid* mutable_grid() { return &grid_; }

 private:
  ScalarStatsWalk(const Rect& world, StatisticsGrid grid, int32_t num_nodes);

  Rect world_;
  StatisticsGrid grid_;
  /// Each node's last contribution: flat cell (-1 = none) and speed.
  std::vector<int32_t> cell_of_;
  std::vector<double> speed_of_;
};

/// The first flat cell (iy * alpha + ix) whose node statistics (count or
/// mean speed) differ in any bit between the two grids, -1 when they are
/// bitwise equal. Grids of different resolution mismatch at cell 0.
int32_t FirstNodeStatsMismatch(const StatisticsGrid& a,
                               const StatisticsGrid& b);

}  // namespace lira::oracle

#endif  // LIRA_TESTS_ORACLE_SCALAR_STATS_WALK_H_
