// The statistics grid (paper Section 3.2.1): an alpha x alpha evenly spaced
// grid over the monitored space storing, per cell, the number of mobile
// nodes n_{i,j}, the fractional number of queries m_{i,j}, and the average
// node speed s_{i,j}. It is the only data structure the LIRA load shedder
// maintains.
//
// Node statistics are held in integer accumulators (counts, plus speeds in
// 2^-20 m/s fixed point) so that incremental maintenance is *exact*: any
// interleaving of AddNodeQAt/RemoveNodeQAt pairs leaves the grid bitwise
// identical to a from-scratch rebuild of the same observations, which is
// what lets the CQ server delta-maintain the grid across adaptations
// instead of clearing and repopulating it (DESIGN.md section 8).
//
// The grid also records which cells changed since its dirty set was last
// cleared, so a kept quad tree refreshes only their ancestors
// (QuadHierarchy::Refresh).

#ifndef LIRA_CORE_STATISTICS_GRID_H_
#define LIRA_CORE_STATISTICS_GRID_H_

#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/cq/query_registry.h"
#include "lira/core/region_stats.h"

namespace lira {

/// Per-cell node / query / speed statistics. Node statistics can be rebuilt
/// from scratch (the grid-index-piggyback mode of the paper) or maintained
/// incrementally per position update (constant time per update).
class StatisticsGrid {
 public:
  /// `alpha` is the number of cells per side; the paper requires a power of
  /// two so a complete quad-tree can be built on top.
  static StatusOr<StatisticsGrid> Create(const Rect& world, int32_t alpha);

  /// Paper Section 3.2.5: alpha = 2^floor(log2(x * sqrt(l))), default
  /// x = 10 ("around 100 times difference in area").
  static int32_t RecommendedAlpha(int32_t l, double x = 10.0);

  int32_t alpha() const { return alpha_; }
  const Rect& world() const { return world_; }
  /// Geographic extent of cell (ix, iy); cells tile the world exactly.
  Rect CellRect(int32_t ix, int32_t iy) const;

  /// Flat index (iy * alpha + ix) of the cell containing the (clamped)
  /// point -- the key used by AddNodeQAt/RemoveNodeQAt delta maintenance.
  int32_t CellIndexOf(Point p) const;

  /// Speeds are accumulated in units of 2^-20 m/s (~1e-6 m/s resolution,
  /// far below any physically meaningful speed difference). Integer
  /// accumulation is associative and exactly reversible, so incremental
  /// add/remove leaves the grid bitwise identical to a from-scratch rebuild.
  static constexpr double kSpeedScale = 1048576.0;  // 2^20

  /// Fixed-point representation of a speed as accumulated by the grid
  /// (llround(speed * kSpeedScale)). Two speeds with equal quantization
  /// contribute identically, so a maintainer may skip the remove/add pair
  /// when QuantizeSpeed is unchanged.
  static int64_t QuantizeSpeed(double speed);

  /// Clears node statistics (n and s); query statistics are kept.
  void ClearNodes();
  /// Clears query statistics (m).
  void ClearQueries();

  /// The dirty set: the cells whose statistics may have changed since the
  /// last ClearDirty. Every per-cell mutator (AddNode, AddNodeQAt,
  /// RemoveNodeQAt, ApplyNodeDelta) appends its cell once; the bulk
  /// operations (ClearNodes, ClearQueries, AddQueries*, Merge,
  /// AssignNodeSum) touch every cell and mark the grid all-dirty instead,
  /// and so does a list that outgrows
  /// 1 / kDirtyShareDivisor of the cells. A sparse quad refresh of scattered
  /// cells costs as much as a full build near 1/10 of the cells at
  /// alpha = 1024 (BM_QuadHierarchyRefresh), so past 1/16 the full build
  /// is the cheaper bet. A new grid is all-dirty; while all-dirty the
  /// mutators record nothing.
  static constexpr int32_t kDirtyShareDivisor = 16;
  bool all_dirty() const { return all_dirty_; }
  /// The dirty cells' flat indices, in first-touch order; meaningful only
  /// while !all_dirty().
  const std::vector<int32_t>& dirty_cells() const { return dirty_cells_; }
  void MarkAllDirty() {
    all_dirty_ = true;
    dirty_cells_.clear();
  }
  /// Empties the dirty set: whatever consumed it is now current.
  void ClearDirty();

  /// Adds one node observation at `position` moving at `speed` m/s:
  /// AddNodeQAt(CellIndexOf(position), QuantizeSpeed(speed)).
  void AddNode(Point position, double speed);

  /// Adds / removes one node observation at a flat cell index (from
  /// CellIndexOf) with its speed already quantized (q ==
  /// QuantizeSpeed(speed)) -- the delta-maintenance hot path, which caches
  /// each node's cell and quantized speed and relocates only the
  /// observations that changed. An unmatched removal clamps the cell at
  /// zero, and the totals subtract only what was actually removed.
  void AddNodeQAt(int32_t cell, int64_t q);
  void RemoveNodeQAt(int32_t cell, int64_t q);

  /// Applies a signed integer node-statistics delta to one cell (and the
  /// grid totals). Deltas from any partition of a set of AddNodeQAt /
  /// RemoveNodeQAt pairs may be applied in any order: integer addition is
  /// commutative and associative, so the final accumulators are bitwise
  /// identical to performing the pairs directly, even when a cell's count
  /// is transiently negative mid-application. Callers must only submit
  /// deltas whose removals match previously present contributions (the
  /// delta-relocation path by construction does); unmatched removals are
  /// NOT clamped the way RemoveNodeQAt clamps.
  void ApplyNodeDelta(int32_t cell, int64_t count_delta, int64_t speed_q_delta);

  /// Adds every accumulator of `other` into this grid (same world and
  /// alpha required). Node statistics are integer accumulators, so merging
  /// disjoint partitions of an observation set is bitwise identical to
  /// populating one grid with all observations -- the property the
  /// ServerCluster coordinator relies on when it combines per-shard grids.
  /// Fractional query counts are added cell-wise as well; callers that need
  /// bitwise-reproducible query statistics count queries into exactly one
  /// of the merged grids (FP addition is not associative across orderings).
  Status Merge(const StatisticsGrid& other);

  /// Overwrites this grid's *node* accumulators (n, s and their totals) with
  /// the cell-wise sum of `parts`, leaving query counts untouched -- the
  /// coordinator's parallel replacement for ClearNodes() + a serial Merge()
  /// per shard. The flat cell range is partitioned into contiguous chunks
  /// (ParallelFor when `pool` is non-null); each chunk copies the first
  /// part's lanes and accumulates the rest with the vectorized AddI64
  /// kernel. Integer addition is associative, so every chunking and every
  /// accumulation shape is bitwise identical to the serial merge loop.
  /// All parts must share this grid's world and alpha.
  Status AssignNodeSum(const std::vector<const StatisticsGrid*>& parts,
                       ThreadPool* pool);

  /// Adds the registry's queries with fractional counting: each query adds
  /// area(q ∩ cell) / area(q) to every overlapped cell's m.
  ///
  /// `margin` (meters) expands every query rectangle on all sides before
  /// counting. A mobile node within Delta of a query border can wrongly
  /// enter/leave the result, so regions within the attainable inaccuracy of
  /// a query border should not be treated as query-free; a margin of about
  /// the maximum throttler keeps the optimizer from pressing high-Delta
  /// regions flush against query boundaries.
  void AddQueries(const QueryRegistry& registry, double margin = 0.0);

  /// As AddQueries for the registry sub-range [begin, end) only. The full
  /// count is a sum of per-query cell contributions accumulated in
  /// registration order, so counting [0, k) and later appending [k, size)
  /// is bitwise identical to one AddQueries pass over the whole registry --
  /// the append-only delta path StatsStage::RebuildQueries uses when the
  /// registry merely grew.
  void AddQueriesRange(const QueryRegistry& registry, int32_t begin,
                       int32_t end, double margin = 0.0);

  /// Bitwise equality of the fractional query counts (debug verification of
  /// the delta-maintained path against a full rescan).
  bool QueryCountsEqual(const StatisticsGrid& other) const;

  /// Per-cell accessors.
  double NodeCount(int32_t ix, int32_t iy) const;
  double QueryCount(int32_t ix, int32_t iy) const;
  double MeanSpeed(int32_t ix, int32_t iy) const;
  /// All three at once: n, m, and MeanSpeed's guarded divide verbatim. Inline
  /// because the quad tree's deepest level reads four cells per node.
  RegionStats CellStats(int32_t ix, int32_t iy) const {
    const size_t idx = CellIndex(ix, iy);
    const int64_t count = node_acc_[2 * idx];
    RegionStats stats;
    stats.n = static_cast<double>(count);
    stats.m = query_count_[idx];
    stats.s = count > 0 ? SpeedSumAt(idx) / static_cast<double>(count) : 0.0;
    return stats;
  }

  /// Bulk CellIndexOf over structure-of-arrays point lanes: cell[i] =
  /// CellIndexOf({px[i], py[i]}), or -1 where known[i] == 0 (known ==
  /// nullptr means every lane is valid). Dispatches to the vectorized
  /// LocateCells kernel, which reproduces LocateCell bit-for-bit.
  void LocateCells(int64_t n, const double* px, const double* py,
                   const uint8_t* known, int32_t* cell) const;

  /// Prefetch hint for a cell's node accumulators (no numeric effect). The
  /// delta-relocation loop knows its upcoming cells from the bulk-located
  /// lane array, so it issues these a few lanes ahead to hide the
  /// read-modify-write latency of effectively random cell accesses.
  void PrefetchCellAcc(int32_t cell) const {
    __builtin_prefetch(node_acc_.data() + 2 * static_cast<size_t>(cell), 1, 1);
  }

  /// Writes the statistics of cells (ix .. ix + count - 1, iy) into
  /// out[0..count): bitwise equal to CellStats per cell, but one walk over
  /// the raw accumulator row that the compiler vectorizes -- the quad tree's
  /// dense path, where a full build reads every cell.
  void CellStatsSpan(int32_t ix, int32_t iy, int32_t count,
                     RegionStats* out) const;

  /// Aggregated statistics of an arbitrary rectangle. Cells partially
  /// covered contribute proportionally to the covered area fraction (their
  /// contents are assumed uniformly spread). Used by the even
  /// l-partitioning baseline and by tests.
  RegionStats AggregateRect(const Rect& rect) const;

  /// Fills `out` (resized to alpha) with the exact integer node count of
  /// each grid column (sum of the column's cells). These are the load
  /// figures the cluster coordinator feeds ShardMap::Rebalance -- integers
  /// so every thread count derives the identical split.
  void ColumnNodeCounts(std::vector<int64_t>* out) const;

  /// Totals over the whole grid. Node totals are running sums maintained by
  /// Add/Remove (O(1)); the query total is cached lazily after AddQueries.
  double TotalNodes() const;
  double TotalQueries() const;
  /// Node-weighted mean speed over the grid (the paper's s-hat).
  double OverallMeanSpeed() const;

 private:
  StatisticsGrid(const Rect& world, int32_t alpha);

  size_t CellIndex(int32_t ix, int32_t iy) const {
    return static_cast<size_t>(iy) * alpha_ + ix;
  }
  /// Cell containing a (clamped) point.
  void LocateCell(Point p, int32_t* ix, int32_t* iy) const;
  double SpeedSumAt(size_t idx) const {
    return static_cast<double>(node_acc_[2 * idx + 1]) / kSpeedScale;
  }
  /// Adds `cell` to the dirty set (see dirty_cells()).
  void MarkDirty(int32_t cell) {
    if (all_dirty_) {
      return;
    }
    uint64_t& word = dirty_bits_[static_cast<size_t>(cell) >> 6];
    const uint64_t bit = uint64_t{1} << (cell & 63);
    if ((word & bit) != 0) {
      return;
    }
    word |= bit;
    dirty_cells_.push_back(cell);
    if (dirty_cells_.size() * kDirtyShareDivisor > query_count_.size()) {
      MarkAllDirty();
    }
  }

  Rect world_;
  int32_t alpha_;
  double cell_w_;
  double cell_h_;
  /// Node accumulators, interleaved per cell: lane 2*cell holds the count,
  /// lane 2*cell + 1 the speed sum in fixed point (QuantizeSpeed units).
  /// A relocation's read-modify-write touches one cache line per cell
  /// instead of two, which matters at alpha = 1024 where the hot-path cell
  /// accesses are effectively random.
  std::vector<int64_t> node_acc_;
  std::vector<double> query_count_;
  int64_t total_node_count_ = 0;
  int64_t total_speed_q_ = 0;
  /// Lazy per-cell sum; recomputed on first TotalQueries() after a change.
  /// Not safe against concurrent first reads (the grid is single-writer,
  /// single-reader per server).
  mutable double total_queries_ = 0.0;
  mutable bool total_queries_valid_ = true;
  /// The dirty set: one bit per cell (allocated by the first ClearDirty, so
  /// a grid nobody refreshes from never pays for it) plus the list of set
  /// bits, which bounds the clearing work to the cells actually touched.
  bool all_dirty_ = true;
  std::vector<uint64_t> dirty_bits_;
  std::vector<int32_t> dirty_cells_;
};

}  // namespace lira

#endif  // LIRA_CORE_STATISTICS_GRID_H_
