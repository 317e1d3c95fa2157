#include "oracle/scalar_stats_walk.h"

#include <cstring>
#include <utility>

namespace lira::oracle {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

ScalarStatsWalk::ScalarStatsWalk(const Rect& world, StatisticsGrid grid,
                                 int32_t num_nodes)
    : world_(world),
      grid_(std::move(grid)),
      cell_of_(num_nodes, -1),
      speed_of_(num_nodes, 0.0) {}

StatusOr<ScalarStatsWalk> ScalarStatsWalk::Create(const Rect& world,
                                                  int32_t alpha,
                                                  int32_t num_nodes) {
  if (num_nodes <= 0) {
    return InvalidArgumentError("num_nodes must be positive");
  }
  auto grid = StatisticsGrid::Create(world, alpha);
  if (!grid.ok()) {
    return grid.status();
  }
  return ScalarStatsWalk(world, *std::move(grid), num_nodes);
}

int64_t ScalarStatsWalk::RebuildAll(const PositionTracker& tracker,
                                    double now) {
  int64_t dirtied = 0;
  for (NodeId id = 0; id < tracker.num_nodes(); ++id) {
    dirtied += Relocate(tracker, id, now);
  }
  return dirtied;
}

int64_t ScalarStatsWalk::Relocate(const PositionTracker& tracker, NodeId id,
                                  double now) {
  const auto position = tracker.PredictAt(id, now);
  int32_t new_cell = -1;
  double new_speed = 0.0;
  if (position.has_value()) {
    const Point where = world_.Clamp(*position);
    new_cell = grid_.CellIndexOf(where);
    new_speed = tracker.BelievedSpeed(id);
  }
  const int32_t old_cell = cell_of_[id];
  if (old_cell == new_cell &&
      (new_cell < 0 || StatisticsGrid::QuantizeSpeed(speed_of_[id]) ==
                           StatisticsGrid::QuantizeSpeed(new_speed))) {
    return 0;
  }
  int64_t dirtied = 0;
  if (old_cell >= 0) {
    grid_.RemoveNodeQAt(old_cell, StatisticsGrid::QuantizeSpeed(speed_of_[id]));
    ++dirtied;
  }
  if (new_cell >= 0) {
    grid_.AddNodeQAt(new_cell, StatisticsGrid::QuantizeSpeed(new_speed));
    if (new_cell != old_cell) {
      ++dirtied;
    }
  }
  cell_of_[id] = new_cell;
  speed_of_[id] = new_speed;
  return dirtied;
}

void ScalarStatsWalk::Forget(NodeId id) {
  if (cell_of_[id] >= 0) {
    grid_.RemoveNodeQAt(cell_of_[id],
                        StatisticsGrid::QuantizeSpeed(speed_of_[id]));
    cell_of_[id] = -1;
    speed_of_[id] = 0.0;
  }
}

int32_t FirstNodeStatsMismatch(const StatisticsGrid& a,
                               const StatisticsGrid& b) {
  if (a.alpha() != b.alpha()) {
    return 0;
  }
  for (int32_t iy = 0; iy < a.alpha(); ++iy) {
    for (int32_t ix = 0; ix < a.alpha(); ++ix) {
      if (!SameBits(a.NodeCount(ix, iy), b.NodeCount(ix, iy)) ||
          !SameBits(a.MeanSpeed(ix, iy), b.MeanSpeed(ix, iy))) {
        return iy * a.alpha() + ix;
      }
    }
  }
  return -1;
}

}  // namespace lira::oracle
