// Pipeline stage 3: statistics-grid maintenance.
//
// Owns the StatisticsGrid and everything needed to refresh it from the
// tracker's believed node states at each adaptation: the delta-maintenance
// state (last contribution per node), the sampling RNG, and the query-count
// refresh cache. The rebuild paths keep the original monolithic CqServer's
// bitwise guarantees:
//
//  * incremental (fraction == 1.0): relocate only contributions whose cell
//    or quantized speed changed -- bitwise identical to ClearNodes() + full
//    repopulation (integer accumulators), no RNG consumed;
//  * sampled (fraction < 1.0): ClearNodes() + Bernoulli-sampled
//    repopulation with unbiased 1/fraction weighting. One RNG draw per
//    node id, reported or not, so the stream is a function of (seed,
//    rebuild ordinal) only.
//
// The incremental rebuild is columnar: it streams id blocks through the
// PredictPositions kernel, locates cells from the bulk-predicted positions
// (Rect::Clamp is idempotent, so clamping once in the LocateCells kernel
// matches a per-node Clamp-then-CellIndexOf bit-for-bit), and caches each
// node's believed velocity so the non-vectorizable std::hypot in
// BelievedSpeed runs only for nodes whose velocity bits actually changed.
// With a worker pool the id range splits into contiguous chunks: workers
// relocate their own nodes into per-worker sparse cell-delta lists which
// the caller applies in chunk order after the join -- integer deltas from
// matched remove/add pairs commute, so the grid is bitwise identical for
// every thread count. The tests compare it bit for bit with the scalar
// per-node walk in tests/oracle/scalar_stats_walk.h.
//
// The same rebuild serves the single server and every cluster shard. A
// shard scans every id: the cluster pairs each ForgetNode with the
// tracker's Forget, so a shard's tracker holds models only for the ids the
// shard owns, and every other lane is unknown and changes nothing. Shard
// stages take no pool (their rebuilds already run inside the coordinator's
// shard fan-out, and ParallelFor does not nest).
//
// Query counts are delta-maintained: the registry is append-only, so when
// only its size grew (same margin), the stage counts just the appended
// tail via AddQueriesRange -- bitwise identical to the full rescan, which
// remains the fallback for margin changes or explicit invalidation (and
// double-checks the delta path in debug builds).

#ifndef LIRA_SERVER_STATS_STAGE_H_
#define LIRA_SERVER_STATS_STAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lira/common/arena.h"
#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/rng.h"
#include "lira/common/status.h"
#include "lira/core/quad_hierarchy.h"
#include "lira/core/statistics_grid.h"
#include "lira/cq/query_registry.h"
#include "lira/mobility/position.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/telemetry/telemetry.h"

namespace lira {

struct StatsStageConfig {
  int32_t num_nodes = 0;
  Rect world;
  /// Statistics-grid resolution (power of two).
  int32_t alpha = 128;
  /// Fraction of nodes fed into the grid per rebuild; 1.0 = exact.
  double stats_sample_fraction = 1.0;
  /// Delta-maintain across rebuilds when the fraction is 1.0.
  bool incremental_stats = true;
  /// Final sampling-RNG seed; the caller pre-mixes (the facade server
  /// passes `seed ^ 0x57a75`, shard k mixes its shard stream in first).
  uint64_t seed = 1234;
  /// Instrument namespace of the counter "<metric_prefix>.stats.cells_dirtied",
  /// which counts relocation touches: one per contribution removed from a
  /// cell and one per contribution added to a different cell. A cell two
  /// nodes move into counts twice, so it reads about twice the distinct
  /// cells in the grid's dirty set.
  std::string metric_prefix = "lira";
  /// Optional telemetry (not owned; must outlive the stage).
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Optional worker pool (not owned) for the columnar incremental rebuild.
  /// Cluster shard stages must leave this null: their rebuilds run inside
  /// the coordinator's shard fan-out and ParallelFor does not nest.
  ThreadPool* pool = nullptr;
};

/// Grid + rebuild machinery. Not thread-safe; distinct stages (cluster
/// shards) are independent and may rebuild concurrently.
class StatsStage {
 public:
  static StatusOr<StatsStage> Create(const StatsStageConfig& config);

  /// Refreshes node statistics (n, s) from the tracker's believed state at
  /// time `now`, by delta relocation or sampled repopulation per config.
  void RebuildNodes(const PositionTracker& tracker, double now);

  /// Refreshes query statistics (m) with `margin` meters added around each
  /// query rectangle. Skips the pass entirely when the (registry size,
  /// margin) already counted is current; counts only the appended tail when
  /// the registry merely grew at the same margin (the registry is
  /// append-only, so its size captures content changes); falls back to a
  /// full rescan otherwise. InvalidateQueryCache forces the full rescan.
  void RebuildQueries(const QueryRegistry& queries, double margin);
  void InvalidateQueryCache() { query_stats_valid_ = false; }

  /// Retracts a node's grid contribution (cross-shard handoff; the caller
  /// also forgets the node's tracker model). The incremental path removes
  /// the contribution immediately; the sampled path drops it at its next
  /// ClearNodes().
  void ForgetNode(NodeId id);

  const StatisticsGrid& grid() const { return grid_; }
  /// The coordinator merges shard grids into its own through this.
  StatisticsGrid* mutable_grid() { return &grid_; }

  /// The quad tree kept over grid() across adaptations, for
  /// PolicyContext::quad. Bound on every call, so a moved stage hands out a
  /// tree over its own grid (and rebuilds it in full once). Empty until a
  /// policy first refreshes it; freed with the stage.
  QuadHierarchy* quad_tree() {
    quad_.Bind(&grid_);
    return &quad_;
  }
  const QuadHierarchy& quad_tree() const { return quad_; }

  /// True when the delta-maintenance fast path owns the node statistics.
  bool IncrementalEnabled() const {
    return incremental_stats_ && stats_sample_fraction_ == 1.0;
  }

 private:
  /// One cell's node-statistics delta, queued by a rebuild worker and
  /// applied by the caller after the join (StatisticsGrid::ApplyNodeDelta).
  struct CellDelta {
    int32_t cell;
    int32_t count;
    int64_t speed_q;
  };

  StatsStage(const StatsStageConfig& config, StatisticsGrid grid);

  /// Columnar incremental rebuild (see file comment). `deltas` == nullptr
  /// mutates the grid directly (serial mode); otherwise relocations are
  /// queued for deferred application. Returns the relocation touches
  /// (StatsStageConfig::metric_prefix).
  int64_t RelocateRange(const PositionTracker& tracker, double now,
                        FrameArena* arena, int64_t begin, int64_t end,
                        std::vector<CellDelta>* deltas);
  void RebuildNodesColumnar(const PositionTracker& tracker, double now);

  /// Applies a relocation delta list to the grid. Large lists are
  /// radix-partitioned by cell first so the read-modify-writes walk the
  /// accumulator arrays slice by slice (each slice cache-resident) instead
  /// of hopping randomly across them; ApplyNodeDelta deltas commute
  /// (integer sums), so any reordering is bitwise identical.
  void ApplyDeltas(const std::vector<CellDelta>& deltas);

  Rect world_;
  double stats_sample_fraction_;
  bool incremental_stats_;
  ThreadPool* pool_;
  StatisticsGrid grid_;
  QuadHierarchy quad_;
  Rng stats_rng_;
  /// Delta-maintenance state: each node's last contribution to the grid,
  /// as its flat cell index (-1 = none) and the quantized speed it was
  /// added with (QuantizeSpeed, valid while the cell is >= 0). The grid
  /// accumulates only quantized speeds, so the quantized value is the
  /// exact removal operand.
  std::vector<int32_t> stats_cell_of_;
  std::vector<int64_t> stats_speed_q_of_;
  /// Believed-velocity cache: the velocity bits behind stats_speed_q_of_.
  /// Consulted only while the node contributes (stats_cell_of_ >= 0);
  /// equal bits let the rebuild reuse the stored quantized speed instead
  /// of recomputing std::hypot.
  std::vector<double> stats_vel_x_;
  std::vector<double> stats_vel_y_;
  /// Columnar-rebuild scratch: one arena (and, under a pool, one delta
  /// list) per worker; arenas hold the per-block prediction spans.
  std::vector<FrameArena> rebuild_arenas_;
  std::vector<std::vector<CellDelta>> rebuild_deltas_;
  std::vector<int64_t> rebuild_dirtied_;
  /// ApplyDeltas radix scratch (reused across rebuilds).
  std::vector<CellDelta> delta_sort_scratch_;
  std::vector<int32_t> delta_bucket_offsets_;
  /// Query-count refresh skip state.
  bool query_stats_valid_ = false;
  int32_t query_stats_size_ = -1;
  double query_stats_margin_ = -1.0;
  telemetry::Counter* cells_dirtied_counter_ = nullptr;
};

}  // namespace lira

#endif  // LIRA_SERVER_STATS_STAGE_H_
