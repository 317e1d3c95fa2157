#include "lira/core/statistics_grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "lira/common/check.h"
#include "lira/common/kernels.h"

namespace lira {
namespace {

bool IsPowerOfTwo(int32_t v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

StatisticsGrid::StatisticsGrid(const Rect& world, int32_t alpha)
    : world_(world),
      alpha_(alpha),
      cell_w_(world.width() / alpha),
      cell_h_(world.height() / alpha),
      node_acc_(2 * static_cast<size_t>(alpha) * alpha, 0),
      query_count_(static_cast<size_t>(alpha) * alpha, 0.0) {}

StatusOr<StatisticsGrid> StatisticsGrid::Create(const Rect& world,
                                                int32_t alpha) {
  if (world.width() <= 0.0 || world.height() <= 0.0) {
    return InvalidArgumentError("world rectangle must be non-degenerate");
  }
  if (!IsPowerOfTwo(alpha)) {
    return InvalidArgumentError("alpha must be a positive power of two");
  }
  return StatisticsGrid(world, alpha);
}

int32_t StatisticsGrid::RecommendedAlpha(int32_t l, double x) {
  LIRA_CHECK(l >= 1);
  LIRA_CHECK(x > 0.0);
  const double target = x * std::sqrt(static_cast<double>(l));
  const auto exponent = static_cast<int32_t>(std::floor(std::log2(target)));
  return 1 << std::max(exponent, 0);
}

Rect StatisticsGrid::CellRect(int32_t ix, int32_t iy) const {
  LIRA_DCHECK(ix >= 0 && ix < alpha_ && iy >= 0 && iy < alpha_);
  return Rect{world_.min_x + ix * cell_w_, world_.min_y + iy * cell_h_,
              world_.min_x + (ix + 1) * cell_w_,
              world_.min_y + (iy + 1) * cell_h_};
}

int64_t StatisticsGrid::QuantizeSpeed(double speed) {
  return static_cast<int64_t>(std::llround(speed * kSpeedScale));
}

void StatisticsGrid::ClearNodes() {
  std::fill(node_acc_.begin(), node_acc_.end(), int64_t{0});
  total_node_count_ = 0;
  total_speed_q_ = 0;
  MarkAllDirty();
}

void StatisticsGrid::ClearQueries() {
  std::fill(query_count_.begin(), query_count_.end(), 0.0);
  total_queries_ = 0.0;
  total_queries_valid_ = true;
  MarkAllDirty();
}

void StatisticsGrid::ClearDirty() {
  if (all_dirty_) {
    dirty_bits_.assign((query_count_.size() + 63) / 64, 0);
  } else {
    for (const int32_t cell : dirty_cells_) {
      dirty_bits_[static_cast<size_t>(cell) >> 6] = 0;
    }
  }
  dirty_cells_.clear();
  all_dirty_ = false;
}

void StatisticsGrid::LocateCell(Point p, int32_t* ix, int32_t* iy) const {
  p = world_.Clamp(p);
  *ix = std::clamp(static_cast<int32_t>((p.x - world_.min_x) / cell_w_), 0,
                   alpha_ - 1);
  *iy = std::clamp(static_cast<int32_t>((p.y - world_.min_y) / cell_h_), 0,
                   alpha_ - 1);
}

int32_t StatisticsGrid::CellIndexOf(Point p) const {
  int32_t ix;
  int32_t iy;
  LocateCell(p, &ix, &iy);
  return static_cast<int32_t>(CellIndex(ix, iy));
}

void StatisticsGrid::AddNode(Point position, double speed) {
  AddNodeQAt(CellIndexOf(position), QuantizeSpeed(speed));
}

void StatisticsGrid::AddNodeQAt(int32_t cell, int64_t q) {
  LIRA_DCHECK(cell >= 0 &&
              cell < static_cast<int32_t>(node_acc_.size() / 2));
  MarkDirty(cell);
  int64_t* const acc = node_acc_.data() + 2 * static_cast<size_t>(cell);
  acc[0] += 1;
  acc[1] += q;
  total_node_count_ += 1;
  total_speed_q_ += q;
}

void StatisticsGrid::RemoveNodeQAt(int32_t cell, int64_t q) {
  LIRA_DCHECK(cell >= 0 &&
              cell < static_cast<int32_t>(node_acc_.size() / 2));
  MarkDirty(cell);
  // Unmatched removals clamp at zero; the totals subtract only what was
  // actually applied so they always equal the per-cell sums.
  int64_t* const acc = node_acc_.data() + 2 * static_cast<size_t>(cell);
  const int64_t count_delta = std::min<int64_t>(1, acc[0]);
  const int64_t speed_delta = std::min(q, acc[1]);
  acc[0] -= count_delta;
  acc[1] -= speed_delta;
  total_node_count_ -= count_delta;
  total_speed_q_ -= speed_delta;
}

void StatisticsGrid::ApplyNodeDelta(int32_t cell, int64_t count_delta,
                                    int64_t speed_q_delta) {
  LIRA_DCHECK(cell >= 0 &&
              cell < static_cast<int32_t>(node_acc_.size() / 2));
  MarkDirty(cell);
  int64_t* const acc = node_acc_.data() + 2 * static_cast<size_t>(cell);
  acc[0] += count_delta;
  acc[1] += speed_q_delta;
  total_node_count_ += count_delta;
  total_speed_q_ += speed_q_delta;
}

Status StatisticsGrid::Merge(const StatisticsGrid& other) {
  if (alpha_ != other.alpha_ || world_.min_x != other.world_.min_x ||
      world_.min_y != other.world_.min_y ||
      world_.max_x != other.world_.max_x ||
      world_.max_y != other.world_.max_y) {
    return InvalidArgumentError(
        "cannot merge statistics grids with different worlds or resolutions");
  }
  // Interleaved count/speed lanes sum lane-wise in one pass.
  for (size_t i = 0; i < node_acc_.size(); ++i) {
    node_acc_[i] += other.node_acc_[i];
  }
  for (size_t i = 0; i < query_count_.size(); ++i) {
    if (other.query_count_[i] != 0.0) {
      query_count_[i] += other.query_count_[i];
    }
  }
  total_node_count_ += other.total_node_count_;
  total_speed_q_ += other.total_speed_q_;
  total_queries_valid_ = false;
  MarkAllDirty();
  return OkStatus();
}

Status StatisticsGrid::AssignNodeSum(
    const std::vector<const StatisticsGrid*>& parts, ThreadPool* pool) {
  for (const StatisticsGrid* part : parts) {
    if (alpha_ != part->alpha_ || world_.min_x != part->world_.min_x ||
        world_.min_y != part->world_.min_y ||
        world_.max_x != part->world_.max_x ||
        world_.max_y != part->world_.max_y) {
      return InvalidArgumentError(
          "cannot merge statistics grids with different worlds or "
          "resolutions");
    }
  }
  // Chunk by cell; each cell spans two interleaved int64 lanes, and every
  // lane is an independent integer sum, so AddI64 over the doubled range is
  // bitwise identical to summing counts and speeds separately.
  const auto cells = static_cast<int64_t>(node_acc_.size() / 2);
  const auto body = [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
    const size_t lane0 = 2 * static_cast<size_t>(begin);
    const size_t lanes = 2 * static_cast<size_t>(end - begin);
    if (parts.empty()) {
      std::memset(node_acc_.data() + lane0, 0, lanes * sizeof(int64_t));
      return;
    }
    std::memcpy(node_acc_.data() + lane0, parts[0]->node_acc_.data() + lane0,
                lanes * sizeof(int64_t));
    for (size_t p = 1; p < parts.size(); ++p) {
      kernels::AddI64(static_cast<int64_t>(lanes),
                      parts[p]->node_acc_.data() + lane0,
                      node_acc_.data() + lane0);
    }
  };
  // Chunks of whole rows keep lanes cache-line aligned; any chunking is
  // bitwise equivalent (disjoint lanes, integer sums).
  const int64_t grain = std::max<int64_t>(alpha_, 1024);
  if (pool != nullptr && pool->num_threads() > 1 && cells > grain) {
    pool->ParallelFor(0, cells, grain, body);
  } else {
    body(0, 0, cells);
  }
  // The running totals are already integer sums per part.
  total_node_count_ = 0;
  total_speed_q_ = 0;
  for (const StatisticsGrid* part : parts) {
    total_node_count_ += part->total_node_count_;
    total_speed_q_ += part->total_speed_q_;
  }
  MarkAllDirty();
  return OkStatus();
}

void StatisticsGrid::AddQueries(const QueryRegistry& registry,
                                double margin) {
  AddQueriesRange(registry, 0, registry.size(), margin);
}

void StatisticsGrid::AddQueriesRange(const QueryRegistry& registry,
                                     int32_t begin, int32_t end,
                                     double margin) {
  LIRA_CHECK(margin >= 0.0);
  LIRA_CHECK(begin >= 0 && begin <= end && end <= registry.size());
  const auto queries = registry.queries();
  for (int32_t qi = begin; qi < end; ++qi) {
    RangeQuery q = queries[qi];
    q.range.min_x -= margin;
    q.range.min_y -= margin;
    q.range.max_x += margin;
    q.range.max_y += margin;
    const Rect clipped = q.range.Intersection(world_);
    if (clipped.Area() <= 0.0 || q.range.Area() <= 0.0) {
      continue;
    }
    auto cx0 = static_cast<int32_t>((clipped.min_x - world_.min_x) / cell_w_);
    auto cy0 = static_cast<int32_t>((clipped.min_y - world_.min_y) / cell_h_);
    auto cx1 = static_cast<int32_t>((clipped.max_x - world_.min_x) / cell_w_);
    auto cy1 = static_cast<int32_t>((clipped.max_y - world_.min_y) / cell_h_);
    cx0 = std::clamp(cx0, 0, alpha_ - 1);
    cy0 = std::clamp(cy0, 0, alpha_ - 1);
    cx1 = std::clamp(cx1, 0, alpha_ - 1);
    cy1 = std::clamp(cy1, 0, alpha_ - 1);
    const double inv_area = 1.0 / q.range.Area();
    for (int32_t iy = cy0; iy <= cy1; ++iy) {
      for (int32_t ix = cx0; ix <= cx1; ++ix) {
        const double overlap = CellRect(ix, iy).Intersection(q.range).Area();
        if (overlap > 0.0) {
          query_count_[CellIndex(ix, iy)] += overlap * inv_area;
        }
      }
    }
  }
  total_queries_valid_ = false;
  MarkAllDirty();
}

bool StatisticsGrid::QueryCountsEqual(const StatisticsGrid& other) const {
  return query_count_.size() == other.query_count_.size() &&
         std::memcmp(query_count_.data(), other.query_count_.data(),
                     query_count_.size() * sizeof(double)) == 0;
}

double StatisticsGrid::NodeCount(int32_t ix, int32_t iy) const {
  return static_cast<double>(node_acc_[2 * CellIndex(ix, iy)]);
}

double StatisticsGrid::QueryCount(int32_t ix, int32_t iy) const {
  return query_count_[CellIndex(ix, iy)];
}

double StatisticsGrid::MeanSpeed(int32_t ix, int32_t iy) const {
  const size_t idx = CellIndex(ix, iy);
  const int64_t count = node_acc_[2 * idx];
  return count > 0 ? SpeedSumAt(idx) / static_cast<double>(count) : 0.0;
}

void StatisticsGrid::LocateCells(int64_t n, const double* px, const double* py,
                                 const uint8_t* known, int32_t* cell) const {
  kernels::ClampSpec spec;
  spec.lo_x = world_.min_x;
  spec.lo_y = world_.min_y;
  spec.hi_x = world_.clamp_hi_x();
  spec.hi_y = world_.clamp_hi_y();
  kernels::LocateCells(n, px, py, known, spec, cell_w_, cell_h_, alpha_, cell);
}

void StatisticsGrid::CellStatsSpan(int32_t ix, int32_t iy, int32_t count,
                                   RegionStats* out) const {
  LIRA_DCHECK(ix >= 0 && count >= 0 && ix + count <= alpha_);
  LIRA_DCHECK(iy >= 0 && iy < alpha_);
  const size_t first = CellIndex(ix, iy);
  const int64_t* __restrict acc = node_acc_.data() + 2 * first;
  const double* __restrict queries = query_count_.data() + first;
  for (int32_t i = 0; i < count; ++i) {
    const int64_t cell_count = acc[2 * i];
    const int64_t speed_q = acc[2 * i + 1];
    out[i].n = static_cast<double>(cell_count);
    out[i].m = queries[i];
    // CellStats' expression verbatim (SpeedSumAt then the guarded divide).
    out[i].s = cell_count > 0 ? (static_cast<double>(speed_q) / kSpeedScale) /
                                    static_cast<double>(cell_count)
                              : 0.0;
  }
}

RegionStats StatisticsGrid::AggregateRect(const Rect& rect) const {
  RegionStats stats;
  const Rect clipped = rect.Intersection(world_);
  if (clipped.Area() <= 0.0) {
    return stats;
  }
  auto cx0 = static_cast<int32_t>((clipped.min_x - world_.min_x) / cell_w_);
  auto cy0 = static_cast<int32_t>((clipped.min_y - world_.min_y) / cell_h_);
  auto cx1 = static_cast<int32_t>((clipped.max_x - world_.min_x) / cell_w_);
  auto cy1 = static_cast<int32_t>((clipped.max_y - world_.min_y) / cell_h_);
  cx0 = std::clamp(cx0, 0, alpha_ - 1);
  cy0 = std::clamp(cy0, 0, alpha_ - 1);
  cx1 = std::clamp(cx1, 0, alpha_ - 1);
  cy1 = std::clamp(cy1, 0, alpha_ - 1);
  double speed_sum = 0.0;
  const double cell_area = cell_w_ * cell_h_;
  // The cell/rect overlap is separable in x and y, so the per-column overlap
  // widths are hoisted out of the row loop instead of intersecting a fresh
  // CellRect per cell. ox * oy reproduces Intersection(...).Area() exactly.
  constexpr int32_t kStackCols = 256;
  const int32_t ncols = cx1 - cx0 + 1;
  double ox_stack[kStackCols];
  std::vector<double> ox_heap;
  double* ox = ox_stack;
  if (ncols > kStackCols) {
    ox_heap.resize(ncols);
    ox = ox_heap.data();
  }
  for (int32_t ix = cx0; ix <= cx1; ++ix) {
    const double lo = std::max(world_.min_x + ix * cell_w_, rect.min_x);
    const double hi = std::min(world_.min_x + (ix + 1) * cell_w_, rect.max_x);
    ox[ix - cx0] = std::max(0.0, hi - lo);
  }
  for (int32_t iy = cy0; iy <= cy1; ++iy) {
    const double lo = std::max(world_.min_y + iy * cell_h_, rect.min_y);
    const double hi = std::min(world_.min_y + (iy + 1) * cell_h_, rect.max_y);
    const double oy = std::max(0.0, hi - lo);
    if (oy <= 0.0) {
      continue;
    }
    for (int32_t ix = cx0; ix <= cx1; ++ix) {
      const double fraction = ox[ix - cx0] * oy / cell_area;
      if (fraction <= 0.0) {
        continue;
      }
      const size_t idx = CellIndex(ix, iy);
      stats.n += static_cast<double>(node_acc_[2 * idx]) * fraction;
      stats.m += query_count_[idx] * fraction;
      speed_sum += SpeedSumAt(idx) * fraction;
    }
  }
  stats.s = stats.n > 0.0 ? speed_sum / stats.n : 0.0;
  return stats;
}

void StatisticsGrid::ColumnNodeCounts(std::vector<int64_t>* out) const {
  out->assign(alpha_, 0);
  for (int32_t iy = 0; iy < alpha_; ++iy) {
    const int64_t* row = node_acc_.data() + 2 * CellIndex(0, iy);
    for (int32_t ix = 0; ix < alpha_; ++ix) {
      (*out)[ix] += row[2 * ix];
    }
  }
}

double StatisticsGrid::TotalNodes() const {
  return static_cast<double>(total_node_count_);
}

double StatisticsGrid::TotalQueries() const {
  if (!total_queries_valid_) {
    double total = 0.0;
    for (double v : query_count_) {
      total += v;
    }
    total_queries_ = total;
    total_queries_valid_ = true;
  }
  return total_queries_;
}

double StatisticsGrid::OverallMeanSpeed() const {
  return total_node_count_ > 0
             ? (static_cast<double>(total_speed_q_) / kSpeedScale) /
                   static_cast<double>(total_node_count_)
             : 0.0;
}

}  // namespace lira
