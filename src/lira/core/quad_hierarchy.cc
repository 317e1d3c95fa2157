#include "lira/core/quad_hierarchy.h"

#include <algorithm>
#include <cmath>

#include "lira/common/check.h"

namespace lira {
namespace {

void SetBit(uint64_t* words, size_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

}  // namespace

QuadHierarchy QuadHierarchy::Build(const StatisticsGrid& grid,
                                   ThreadPool* pool) {
  QuadHierarchy tree;
  tree.Reshape(grid);
  tree.grid_ = &grid;
  tree.Aggregate(nullptr, pool);
  return tree;
}

void QuadHierarchy::Bind(StatisticsGrid* grid) {
  LIRA_CHECK(grid != nullptr);
  if (grid != bound_) {
    grid->MarkAllDirty();
    bound_ = grid;
  }
  grid_ = grid;
}

int64_t QuadHierarchy::Refresh(ThreadPool* pool) {
  LIRA_CHECK(bound_ != nullptr);
  const bool reshaped = Reshape(*bound_);
  const int64_t nodes = Aggregate(
      reshaped || bound_->all_dirty() ? nullptr : &bound_->dirty_cells(),
      pool);
  bound_->ClearDirty();
  return nodes;
}

bool QuadHierarchy::Reshape(const StatisticsGrid& grid) {
  world_ = grid.world();
  const auto levels =
      static_cast<int32_t>(std::lround(std::log2(grid.alpha()))) + 1;
  if (levels == num_levels_) {
    return false;
  }
  num_levels_ = levels;
  level_offset_.assign(static_cast<size_t>(levels) + 1, 0);
  mark_offset_.assign(static_cast<size_t>(levels), 0);
  size_t offset = 0;
  size_t words = 0;
  for (int32_t level = 0; level < levels; ++level) {
    const size_t nodes = size_t{1} << (2 * level);
    level_offset_[level] = offset;
    offset += nodes;
    if (level < levels - 1) {
      mark_offset_[level] = words;
      words += (nodes + 63) / 64;
    }
  }
  level_offset_[levels] = offset;
  // Leaf level stays virtual (read through grid_); store only the interior.
  stats_.assign(level_offset_[levels - 1], RegionStats{});
  marks_.assign(words, 0);
  return true;
}

RegionStats QuadHierarchy::SumOfLeaves(int32_t ix, int32_t iy) const {
  const StatisticsGrid& grid = *grid_;
  RegionStats agg;
  agg = agg + grid.CellStats(2 * ix, 2 * iy);
  agg = agg + grid.CellStats(2 * ix + 1, 2 * iy);
  agg = agg + grid.CellStats(2 * ix, 2 * iy + 1);
  agg = agg + grid.CellStats(2 * ix + 1, 2 * iy + 1);
  return agg;
}

RegionStats QuadHierarchy::SumOfChildren(int32_t level, int32_t ix,
                                         int32_t iy) const {
  const size_t side = size_t{2} << level;
  const RegionStats* const child =
      stats_.data() + level_offset_[level + 1] +
      2 * static_cast<size_t>(iy) * side + 2 * static_cast<size_t>(ix);
  RegionStats agg;
  agg = agg + child[0];
  agg = agg + child[1];
  agg = agg + child[side];
  agg = agg + child[side + 1];
  return agg;
}

int64_t QuadHierarchy::Aggregate(const std::vector<int32_t>* dirty_cells,
                                 ThreadPool* pool) {
  const int32_t leaf = leaf_level();
  if (leaf == 0) {
    return 0;  // alpha = 1: the root is the only node, a virtual leaf
  }
  uint64_t* const marks = marks_.data();
  if (dirty_cells == nullptr) {
    for (int32_t level = 0; level < leaf; ++level) {
      const size_t nodes = size_t{1} << (2 * level);
      uint64_t* const words = marks + mark_offset_[level];
      if (nodes < 64) {
        words[0] = (uint64_t{1} << nodes) - 1;
      } else {
        std::fill(words, words + nodes / 64, ~uint64_t{0});
      }
    }
  } else {
    // The dirty cells' parents, then each marked level's parents. The
    // bitmaps deduplicate, and walking them later visits every level in
    // flat index order, so the recompute sweeps memory forward.
    const int32_t cell_mask = (1 << leaf) - 1;
    for (const int32_t cell : *dirty_cells) {
      const int32_t ix = cell & cell_mask;
      const int32_t iy = cell >> leaf;
      SetBit(marks + mark_offset_[leaf - 1],
             (static_cast<size_t>(iy >> 1) << (leaf - 1)) |
                 static_cast<size_t>(ix >> 1));
    }
    for (int32_t level = leaf - 1; level > 0; --level) {
      const uint64_t* const words = marks + mark_offset_[level];
      const size_t count = ((size_t{1} << (2 * level)) + 63) / 64;
      const int32_t side_mask = (1 << level) - 1;
      for (size_t w = 0; w < count; ++w) {
        for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
          const size_t i = w * 64 + __builtin_ctzll(bits);
          const auto ix = static_cast<int32_t>(i) & side_mask;
          const auto iy = static_cast<int32_t>(i >> level);
          SetBit(marks + mark_offset_[level - 1],
                 (static_cast<size_t>(iy >> 1) << (level - 1)) |
                     static_cast<size_t>(ix >> 1));
        }
      }
    }
  }
  int64_t marked = 0;
  for (const uint64_t word : marks_) {
    marked += __builtin_popcountll(word);
  }

  // Levels below this many nodes run serially: the fork/join overhead of a
  // ParallelFor pass dwarfs the work of a small level.
  constexpr int64_t kParallelNodes = 4096;
  const bool pooled = pool != nullptr && pool->num_threads() > 1;
  // Bottom-up (equivalent to the paper's post-order traversal). Parents
  // within one level are independent and read only the completed level
  // below; returning from the level's ParallelFor is the barrier before the
  // next level starts. Each pass clears the marks it consumed.
  //
  // A fully marked word whose 64 nodes lie in one row (side >= 64) is
  // swept as a run; on the deepest level the run reads its two leaf rows in
  // bulk (CellStatsSpan, the same bits CellStats returns) and folds them in
  // the same child order.
  const int32_t deepest = leaf - 1;
  const auto recompute_level = [&](int32_t level, const auto& node_value) {
    const int64_t nodes = int64_t{1} << (2 * level);
    uint64_t* const words = marks + mark_offset_[level];
    RegionStats* const out = stats_.data() + level_offset_[level];
    const int32_t side_mask = (1 << level) - 1;
    const auto body = [&](int32_t /*chunk*/, int64_t word_begin,
                          int64_t word_end) {
      RegionStats row0[128];
      RegionStats row1[128];
      for (int64_t w = word_begin; w < word_end; ++w) {
        uint64_t bits = words[w];
        words[w] = 0;
        if (level >= 6 && bits == ~uint64_t{0}) {
          RegionStats* const run = out + w * 64;
          const auto ix0 = static_cast<int32_t>(w * 64) & side_mask;
          const auto iy = static_cast<int32_t>((w * 64) >> level);
          if (level != deepest) {
            for (int32_t j = 0; j < 64; ++j) {
              run[j] = node_value(ix0 + j, iy);
            }
            continue;
          }
          grid_->CellStatsSpan(2 * ix0, 2 * iy, 128, row0);
          grid_->CellStatsSpan(2 * ix0, 2 * iy + 1, 128, row1);
          for (int32_t j = 0; j < 64; ++j) {
            RegionStats agg;
            agg = agg + row0[2 * j];
            agg = agg + row0[2 * j + 1];
            agg = agg + row1[2 * j];
            agg = agg + row1[2 * j + 1];
            run[j] = agg;
          }
          continue;
        }
        for (; bits != 0; bits &= bits - 1) {
          const int64_t i = w * 64 + __builtin_ctzll(bits);
          out[i] = node_value(static_cast<int32_t>(i) & side_mask,
                              static_cast<int32_t>(i >> level));
        }
      }
    };
    const int64_t word_count = (nodes + 63) / 64;
    if (pooled && nodes >= kParallelNodes) {
      pool->ParallelFor(0, word_count, 1, body);
    } else {
      body(0, 0, word_count);
    }
  };
  recompute_level(leaf - 1, [this](int32_t ix, int32_t iy) {
    return SumOfLeaves(ix, iy);
  });
  for (int32_t level = leaf - 2; level >= 0; --level) {
    recompute_level(level, [this, level](int32_t ix, int32_t iy) {
      return SumOfChildren(level, ix, iy);
    });
  }
  return marked;
}

std::array<QuadNodeRef, 4> QuadHierarchy::Children(
    const QuadNodeRef& ref) const {
  LIRA_DCHECK(!IsLeaf(ref));
  const int32_t level = ref.level + 1;
  const int32_t bx = ref.ix * 2;
  const int32_t by = ref.iy * 2;
  return {QuadNodeRef{level, bx, by}, QuadNodeRef{level, bx + 1, by},
          QuadNodeRef{level, bx, by + 1}, QuadNodeRef{level, bx + 1, by + 1}};
}

RegionStats QuadHierarchy::Stats(const QuadNodeRef& ref) const {
  if (ref.level == leaf_level()) {
    LIRA_DCHECK(ref.ix >= 0 && ref.ix < (1 << ref.level));
    LIRA_DCHECK(ref.iy >= 0 && ref.iy < (1 << ref.level));
    // Virtual leaf: the grid's cell statistics, the exact bits the deepest
    // interior level aggregated.
    return grid_->CellStats(ref.ix, ref.iy);
  }
  return stats_[FlatIndex(ref)];
}

Rect QuadHierarchy::RegionOf(const QuadNodeRef& ref) const {
  const int32_t side = 1 << ref.level;
  const double w = world_.width() / side;
  const double h = world_.height() / side;
  return Rect{world_.min_x + ref.ix * w, world_.min_y + ref.iy * h,
              world_.min_x + (ref.ix + 1) * w, world_.min_y + (ref.iy + 1) * h};
}

int64_t QuadHierarchy::TotalNodes() const {
  return num_levels_ > 0 ? static_cast<int64_t>(level_offset_[num_levels_])
                         : 0;
}

size_t QuadHierarchy::FlatIndex(const QuadNodeRef& ref) const {
  // Interior nodes only: the leaf level has no stored slot (virtual leaves).
  LIRA_DCHECK(ref.level >= 0 && ref.level < num_levels_ - 1);
  const int32_t side = 1 << ref.level;
  LIRA_DCHECK(ref.ix >= 0 && ref.ix < side && ref.iy >= 0 && ref.iy < side);
  return level_offset_[ref.level] +
         static_cast<size_t>(ref.iy) * static_cast<size_t>(side) +
         static_cast<size_t>(ref.ix);
}

}  // namespace lira
