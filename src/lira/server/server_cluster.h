// Region-sharded CQ server cluster (DESIGN.md §9).
//
// S shard pipelines -- each an IngestStage + TrackerStage + StatsStage
// triple with its own bounded queue (capacity ceil(B/S)), service rate
// mu/S, and seed stream -- fed by a spatial ShardMap that routes each update
// by its model origin to the shard owning that statistics-grid column
// strip. A coordinator owns the single OptimizerStage: at each adaptation
// it merges the per-shard StatisticsGrids into one global grid
// (StatisticsGrid::Merge, integer-exact) and builds ONE global SheddingPlan
// under the global budget z * n * f(delta) and the fairness constraint, so
// shard boundaries never fragment the optimizer's view.
//
// Node ownership follows the updates: when a shard applies an update for a
// node previously owned elsewhere, the coordinator retracts the old
// shard's tracker model and grid contribution (handoff, processed serially
// every tick; when several shards apply a node in one tick, the
// highest-indexed applier keeps it and every other model is retracted).
// Histories are retained at every shard a node visited; historical
// reconstruction picks the shard holding the freshest record at the
// probed time.
//
// Determinism contract: all cross-shard work (routing, handoff, merge,
// throttle-window summation) is ordered by shard index, every shard's
// random stream is a pure function of (config seed, shard index), and the
// parallel sections touch only per-shard state plus atomic instruments.
// Hence results are bitwise identical for any worker thread count, and an
// S=1 cluster is bitwise identical to a plain CqServer with the same
// config (asserted in tests/server/server_cluster_test and
// sim/simulation_test).

#ifndef LIRA_SERVER_SERVER_CLUSTER_H_
#define LIRA_SERVER_SERVER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/parallel.h"
#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/core/shedding_plan.h"
#include "lira/core/statistics_grid.h"
#include "lira/cq/query_registry.h"
#include "lira/mobility/position.h"
#include "lira/motion/linear_model.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/cluster_health.h"
#include "lira/server/cq_server.h"
#include "lira/server/ingest_stage.h"
#include "lira/server/optimizer_stage.h"
#include "lira/server/server_pipeline.h"
#include "lira/server/shard_map.h"
#include "lira/server/stats_stage.h"
#include "lira/server/tracker_stage.h"
#include "lira/telemetry/telemetry.h"

namespace lira {

struct ServerClusterConfig {
  /// Global parameters; queue_capacity, service_rate and seed are divided /
  /// mixed across shards (see server_cluster.cc). The telemetry sink, when
  /// set, additionally gains per-shard `lira.shard<k>.*` instruments (the
  /// shard id is a label dimension the Prometheus exporter folds back into
  /// `{shard="k"}`, telemetry/exposition.h) and coordinator-owned
  /// `lira.coord.*` instruments for the merged statistics stage. The trace
  /// recorder, when set, needs shards + 1 lanes: shard k records its
  /// parallel-section spans into lane k + 1 and the coordinator into lane 0.
  CqServerConfig server;
  /// Number of spatial shards S, in [1, alpha].
  int32_t shards = 1;
  /// Worker threads for the per-shard fan-out sections; 0 = min(hardware
  /// concurrency, shards). Results are identical for any value.
  int32_t threads = 0;
  /// Shard-map rebalancing stride R (DESIGN.md §12): every R adaptation
  /// windows the coordinator re-splits the grid columns across shards from
  /// the merged grid's integer per-column occupancy. 0 (default) disables
  /// rebalancing entirely -- the map stays the initial even split and every
  /// observable output is unchanged from earlier versions. The decision
  /// consumes only merged integer state, so any thread count produces the
  /// identical map sequence.
  int32_t rebalance_stride = 0;
  /// Hysteresis bound: max columns each strip boundary may travel per
  /// rebalance epoch.
  int32_t rebalance_max_moves = 2;
};

/// The cluster facade; drives S shard pipelines through the control loop it
/// shares with CqServer (ServerPipeline). Not movable (owns a ThreadPool).
class ServerCluster : public ServerPipeline {
 public:
  static StatusOr<std::unique_ptr<ServerCluster>> Create(
      const ServerClusterConfig& config, const LoadSheddingPolicy* policy,
      const UpdateReductionFunction* reduction,
      const QueryRegistry* queries);

  ServerCluster(const ServerCluster&) = delete;
  ServerCluster& operator=(const ServerCluster&) = delete;

  std::optional<Point> BelievedPositionAt(NodeId id,
                                          double t) const override;
  size_t queue_size() const override;
  int64_t queue_arrivals() const override;
  int64_t queue_dropped() const override;
  int64_t updates_applied() const override;
  std::vector<NodeId> HistoricalRangeAt(const Rect& range,
                                        double t) const override;
  std::optional<Point> HistoricalPositionAt(NodeId id,
                                            double t) const override;
  int64_t history_bytes() const override;

  /// Ad-hoc snapshot range query at t >= now, evaluated shard-locally:
  /// each overlapped shard searches its own TPR-tree with the range clipped
  /// to its current margin-expanded strip (falling back to the full range
  /// when its tree's bounding box has drifted outside the strip --
  /// exactness guard, DESIGN.md §12), and the per-shard id-sorted
  /// membership lists are unioned by sorted merge. The clip is computed
  /// here, at answer time, so registered queries (AnswerQuery) and ad-hoc
  /// ranges always see the current strips and registry. Requires
  /// maintain_index. Results are filtered by current ownership so every id
  /// appears exactly once, in ascending order, and equal the unsharded
  /// CqServer's answer on the same belief state as a set.
  StatusOr<std::vector<NodeId>> AnswerRange(const Rect& range,
                                            double t) const override;

  /// Point-in-time cluster health: per-shard occupancy / queue state plus
  /// load-skew statistics (max/mean owned nodes and their imbalance ratio).
  /// Serializable via WriteHealthJson / WriteHealthPrometheus
  /// (cluster_health.h). O(num_nodes + shards); not for per-tick use.
  ClusterHealth HealthSnapshot() const;

  int32_t num_shards() const {
    return static_cast<int32_t>(shards_.size());
  }
  const ShardMap& shard_map() const { return shard_map_; }
  /// Rebalance accounting (0 / epoch 0 while rebalance_stride == 0).
  int64_t map_epoch() const { return shard_map_.epoch(); }
  int64_t rebalances() const { return rebalances_; }
  int64_t nodes_migrated() const { return nodes_migrated_; }
  /// One shard's own grid / queue, for tests and diagnostics.
  const StatisticsGrid& shard_stats(int32_t shard) const {
    return shards_[shard].stats.grid();
  }
  const UpdateQueue& shard_queue(int32_t shard) const {
    return shards_[shard].ingest.queue();
  }
  const PositionTracker& shard_tracker(int32_t shard) const {
    return shards_[shard].tracker.tracker();
  }
  /// The shard that owns `id` (-1 until its first applied update).
  int32_t owner_of(NodeId id) const { return owner_of_[id]; }

 private:
  struct Shard {
    IngestStage ingest;
    TrackerStage tracker;
    StatsStage stats;
    /// Node ids applied this tick (handoff scratch, reused).
    std::vector<NodeId> applied;
    /// Batch routing scratch, reused across ticks.
    std::vector<ModelUpdate> route;
    /// Receive fan-out scratch: drops admitted this batch.
    int64_t last_dropped = 0;
  };

  ServerCluster(const ServerClusterConfig& config,
                const LoadSheddingPolicy* policy,
                const UpdateReductionFunction* reduction,
                const QueryRegistry* queries, ShardMap shard_map,
                std::vector<Shard> shards, StatsStage merged_stats,
                OptimizerStage optimizer, int32_t pool_threads);

  /// Routes each update to its strip's shard, then admits per shard in
  /// parallel; returns the drops summed over shards.
  int64_t Admit(std::vector<ModelUpdate>* updates) override;
  /// Services and applies per shard in parallel, then settles ownership.
  void ServeTick(double dt) override;
  QueueWindow TakeQueueWindow() override;
  /// Per-shard rebuilds in parallel, then the coordinator sums the shard
  /// grids into the merged (global) grid.
  Status RebuildNodeStats() override;
  /// The rebalance step of every R-th adaptation (MaybeRebalance).
  void PrepareAdaptation() override;
  /// Per-shard samples, serially in shard order (so ring contents are
  /// deterministic), ahead of the coordinator sample.
  void RecordShardFlightSamples(telemetry::FlightRecorder* recorder) override;

  /// Shard k's strip expanded by the query margin on every side.
  Rect ExpandedStrip(int32_t shard) const;
  /// Appends `shard`'s sorted membership list for the search rect `eval`
  /// (the full query range or its strip clip) at time t.
  Status AppendShardRange(int32_t shard, const Rect& eval, double t,
                          std::vector<std::vector<NodeId>>* lists) const;
  /// True when every node indexed at `shard` provably lies inside its
  /// margin-expanded strip at time t, i.e. the clipped range is exact.
  /// `bounds` is the shard tree's root box at t.
  bool ClipIsExact(int32_t shard, const Rect& bounds) const;
  /// The deterministic rebalance step (start of every R-th adaptation):
  /// re-splits the map from the merged grid's column occupancy, migrates
  /// ownership through the Forget/Adopt handoff path in ascending node
  /// order, and records flight/telemetry.
  void MaybeRebalance();
  /// Moves every owned node whose origin column changed shards; returns the
  /// migration count.
  int64_t MigrateOwnership();
  /// max/mean per-shard load under the *current* strip boundaries, from
  /// per-column loads (1.0 = balanced, 0 when total load is 0).
  double SpanImbalance(const std::vector<int64_t>& column_load) const;
  /// Serial post-tick pass: ownership transfers for this tick's applied
  /// updates; the highest-indexed applier of a node keeps it.
  void ProcessHandoffs();

  /// Shard-map rebalancing stride and hysteresis (ServerClusterConfig).
  int32_t rebalance_stride_;
  int32_t rebalance_max_moves_;
  ShardMap shard_map_;
  std::vector<Shard> shards_;
  ThreadPool pool_;
  /// Current owning shard per node; -1 until the first applied update.
  std::vector<int32_t> owner_of_;
  /// ProcessHandoffs scratch: 1 for ids already settled this tick.
  std::vector<uint8_t> claimed_;
  /// Adaptations started (the rebalance stride counts these).
  int64_t adaptations_ = 0;
  /// Cumulative rebalance accounting.
  int64_t rebalances_ = 0;
  int64_t nodes_migrated_ = 0;
  /// Cluster-level instruments (sums over shards), resolved once.
  telemetry::Counter* arrivals_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Counter* rebalance_epochs_counter_ = nullptr;
  telemetry::Counter* rebalance_columns_counter_ = nullptr;
  telemetry::Counter* rebalance_migrated_counter_ = nullptr;
  /// Per-shard node-count gauges, set after each adaptation's rebuild.
  std::vector<telemetry::Gauge*> shard_nodes_gauges_;
};

/// Sorted-set union of per-shard membership lists: each input must be
/// ascending and duplicate-free; inputs may share ids only when shards
/// disagree about ownership transiently (the merge deduplicates). K-way
/// merge by repeated two-way passes -- K is the shard count, tiny.
std::vector<NodeId> MergeSortedUnion(
    const std::vector<std::vector<NodeId>>& lists);

}  // namespace lira

#endif  // LIRA_SERVER_SERVER_CLUSTER_H_
