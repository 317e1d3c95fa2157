// Stage I of GRIDREDUCE (paper Section 3.2.2): a complete quad-tree built
// over the statistics grid with node/query/speed statistics aggregated
// bottom-up. Each tree level is a uniform partitioning of the space; the
// leaves are the statistics-grid cells.

#ifndef LIRA_CORE_QUAD_HIERARCHY_H_
#define LIRA_CORE_QUAD_HIERARCHY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/core/region_stats.h"
#include "lira/core/statistics_grid.h"

namespace lira {

/// Identifies a quad-tree node: level 0 is the root (the whole space);
/// level k has 2^k x 2^k nodes indexed by (ix, iy).
struct QuadNodeRef {
  int32_t level = 0;
  int32_t ix = 0;
  int32_t iy = 0;

  friend bool operator==(const QuadNodeRef& a, const QuadNodeRef& b) {
    return a.level == b.level && a.ix == b.ix && a.iy == b.iy;
  }
};

/// The complete quad-tree. A full build takes O(alpha^2) time and space
/// (paper's Stage I bound). The leaf level is virtual: leaf statistics are
/// the grid's cell statistics, read through the grid on demand instead of
/// being copied into the tree, so the tree stores only the (alpha^2 - 1) / 3
/// interior nodes.
///
/// A server keeps one tree across adaptations (StatsStage::quad_tree) and
/// refreshes it from the grid's dirty set: only the ancestors of cells that
/// changed since the last refresh are recomputed. Every interior node is the
/// same four-term RegionStats sum in Children() order however it was
/// reached, and a node recomputed from bit-identical children is
/// bit-identical, so a refreshed tree equals a full build bit for bit.
class QuadHierarchy {
 public:
  /// An empty tree; its first Refresh builds it in full.
  QuadHierarchy() = default;

  /// A fresh tree over `grid` (alpha a power of two, enforced by
  /// StatisticsGrid): the refresh with every cell dirty. The tree reads leaf
  /// statistics through `grid`, which must therefore outlive it. With a
  /// pool, each bottom-up level runs as a ParallelFor pass (parents within a
  /// level are independent and read only the already-complete level below;
  /// the pass boundary is the barrier). Every node's value is the same
  /// four-term sum in the same child order either way, so the tree is
  /// bitwise identical for any thread count.
  static QuadHierarchy Build(const StatisticsGrid& grid,
                             ThreadPool* pool = nullptr);

  /// Points a kept tree at its owner's grid (not owned; leaves read through
  /// it and Refresh consumes its dirty set). Binding a grid other than the
  /// current one marks that grid all-dirty, so the next Refresh is a full
  /// build: the tree cannot know what the new grid changed.
  void Bind(StatisticsGrid* grid);

  /// Brings a bound tree up to date with its grid and clears the grid's
  /// dirty set. Recomputes, level by level bottom-up, the interior nodes
  /// above the grid's dirty cells -- every node when the grid is all-dirty
  /// or the tree has no storage for its alpha yet. Returns the number of
  /// interior nodes recomputed ((alpha^2 - 1) / 3 for a full build).
  int64_t Refresh(ThreadPool* pool = nullptr);

  /// The grid the leaves read from (nullptr for an unbound empty tree).
  const StatisticsGrid* grid() const { return grid_; }

  /// Number of levels (log2(alpha) + 1).
  int32_t num_levels() const { return num_levels_; }
  /// Leaf level index (num_levels - 1).
  int32_t leaf_level() const { return num_levels_ - 1; }

  QuadNodeRef root() const { return QuadNodeRef{0, 0, 0}; }
  bool IsLeaf(const QuadNodeRef& ref) const {
    return ref.level == leaf_level();
  }
  /// The four children of a non-leaf node.
  std::array<QuadNodeRef, 4> Children(const QuadNodeRef& ref) const;

  /// Node statistics: leaves read the grid's cell statistics directly (the
  /// leaf level is not materialized); interior nodes read the aggregated
  /// store. Returned by value -- leaf stats have no stored object to
  /// reference.
  RegionStats Stats(const QuadNodeRef& ref) const;
  /// Geographic extent of the node's quadrant.
  Rect RegionOf(const QuadNodeRef& ref) const;

  /// Total number of tree nodes, alpha^2 + (alpha^2 - 1) / 3.
  int64_t TotalNodes() const;
  /// Number of stored (interior) nodes, (alpha^2 - 1) / 3.
  int64_t InteriorNodes() const {
    return static_cast<int64_t>(stats_.size());
  }

 private:
  /// Sizes the storage for `grid`'s alpha; true when it had to (re)allocate,
  /// i.e. nothing stored is valid for the grid.
  bool Reshape(const StatisticsGrid& grid);

  /// The one aggregation routine. Marks the interior nodes above
  /// `dirty_cells` (every interior node when nullptr) in per-level bitmaps,
  /// then recomputes the marked nodes level by level, bottom-up, in flat
  /// index order. Returns the number recomputed.
  int64_t Aggregate(const std::vector<int32_t>* dirty_cells, ThreadPool* pool);

  /// Interior node value from its four children, in Children() order.
  RegionStats SumOfLeaves(int32_t ix, int32_t iy) const;
  RegionStats SumOfChildren(int32_t level, int32_t ix, int32_t iy) const;

  size_t FlatIndex(const QuadNodeRef& ref) const;

  /// Leaf-statistics source (not owned; must outlive the tree).
  const StatisticsGrid* grid_ = nullptr;
  /// The same grid when bound by an owner: Refresh consumes its dirty set.
  StatisticsGrid* bound_ = nullptr;
  Rect world_;
  int32_t num_levels_ = 0;
  std::vector<size_t> level_offset_;
  /// Aggregates for levels 0 .. leaf_level() - 1; leaves live in *grid_.
  std::vector<RegionStats> stats_;
  /// Aggregate's per-level node bitmaps (word offsets in mark_offset_); all
  /// zero between calls.
  std::vector<uint64_t> marks_;
  std::vector<size_t> mark_offset_;
};

}  // namespace lira

#endif  // LIRA_CORE_QUAD_HIERARCHY_H_
