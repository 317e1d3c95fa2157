// The server's periodic control loop (paper Section 2.2 and Section 3),
// written once for every deployment.
//
// Both the single-process CqServer and the region-sharded ServerCluster
// derive from ServerPipeline: the simulator's frame loop (and any other
// driver) feeds batches in, ticks the clock, and reads the plan/accounting
// back without knowing whether one pipeline or S shards sit behind the
// calls. The base owns everything the two deployments share -- the config,
// the clock and tick count, the adaptation schedule, the global statistics
// stage, the optimizer, the adaptation sequence (THROTLOOP -> node
// statistics -> query counts -> plan build -> broadcast), the
// coordinator flight sample, the update validation, the overflow event and
// query answering by id -- and the derived classes supply only admission,
// the per-tick service, the queue-window sum, the node statistics rebuild
// (the protected hooks below) and the snapshot range search
// (AnswerRange). Because the sequence exists once, an S=1 cluster equals a
// CqServer by construction.
//
// The contract every implementation honors is the repo's determinism rule:
// given the same seed and the same input batches, the observable state
// (plan, z, drop counts, believed positions) is bitwise identical for any
// worker thread count.

#ifndef LIRA_SERVER_SERVER_PIPELINE_H_
#define LIRA_SERVER_SERVER_PIPELINE_H_

#include <cstdint>
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
#include "lira/server/optimizer_stage.h"
#include "lira/server/stats_stage.h"
#include "lira/telemetry/flight_recorder.h"
#include "lira/telemetry/telemetry.h"
#include "lira/telemetry/trace.h"

namespace lira {

struct CqServerConfig {
  int32_t num_nodes = 0;
  Rect world;
  /// Statistics-grid resolution (power of two).
  int32_t alpha = 128;
  /// Input queue capacity B.
  size_t queue_capacity = 500;
  /// Service rate mu, updates/second.
  double service_rate = 1000.0;
  /// Seconds between adaptation steps (plan rebuilds).
  double adaptation_period = 30.0;
  /// When true, z comes from THROTLOOP; otherwise fixed_z is used.
  bool auto_throttle = false;
  double fixed_z = 0.5;
  /// When true the server maintains a TPR-tree over the tracked motion
  /// models and can answer range queries (AnswerQuery, AnswerRange);
  /// turning it off saves the index-maintenance cost for deployments that
  /// evaluate queries elsewhere.
  bool maintain_index = true;
  /// When true the server retains every applied motion model in a
  /// HistoryStore, enabling historical snapshot queries (the capability the
  /// paper's fairness threshold protects, Section 3.1.1).
  bool record_history = false;
  /// Fraction of tracked nodes fed into the statistics grid at each
  /// adaptation (paper Section 3.2.1: "the statistics can easily be
  /// approximated using sampling"); counts are scaled by the inverse so the
  /// optimizer sees unbiased totals. 1.0 = exact maintenance.
  double stats_sample_fraction = 1.0;
  /// When true (and stats_sample_fraction == 1.0) the statistics grid is
  /// delta-maintained across adaptations: each node's previous contribution
  /// is relocated only when its cell or quantized speed changed, instead of
  /// ClearNodes() + full repopulation. Bitwise identical to the rebuild
  /// (integer grid accumulators; neither path consumes stats RNG at
  /// fraction 1.0). Sampled statistics fall back to the rebuild.
  bool incremental_stats = true;
  /// Optional telemetry (not owned; must outlive the server). When set, the
  /// server maintains `lira.queue.*` instruments on every Receive and
  /// records the adaptation loop -- z trajectory, per-stage plan-build
  /// spans, plan shape gauges, typed events (DESIGN.md "Telemetry").
  /// nullptr disables all instrumentation at the cost of a pointer test.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Optional span tracer (not owned; must outlive the server). When set,
  /// every tick and adaptation records per-stage wall-time spans stamped
  /// with (tick, shard) -- the single server writes the driver lane; a
  /// ServerCluster additionally writes shard k's spans into lane k+1
  /// (DESIGN.md §10). nullptr costs one pointer test per stage.
  telemetry::TraceRecorder* trace = nullptr;
  /// Optional flight recorder (not owned; must outlive the server). When
  /// set, every tick appends one FlightSample per pipeline (queue depth and
  /// drops, z, lambda, utilization, node count, plan shape) to the ring, so
  /// a crash or chaos event leaves a postmortem of the last N ticks.
  telemetry::FlightRecorder* flight_recorder = nullptr;
  uint64_t seed = 1234;
  /// Optional worker pool (not owned; must outlive the server) for the
  /// adaptation path: the columnar statistics rebuild, the quad-tree build,
  /// and the GRIDREDUCE drill-down waves. Plans and statistics are bitwise
  /// identical for every thread count (and without a pool); see the
  /// determinism notes on StatsStage and GridReduceConfig.
  ThreadPool* pool = nullptr;
};

/// The config checks CqServer::Create and ServerCluster::Create share:
/// non-null collaborators, positive node count / service rate / period, a
/// fixed z in [0, 1] when THROTLOOP is off, and a sampling fraction in
/// (0, 1].
Status ValidateServerConfig(const CqServerConfig& config,
                            const LoadSheddingPolicy* policy,
                            const UpdateReductionFunction* reduction,
                            const QueryRegistry* queries);

/// Margin (meters) added around query rectangles when counting them into
/// the statistics grid and when clipping them to a shard's strip: the
/// reduction's delta_max, the largest inaccuracy a shed update can leave.
double QueryMargin(const UpdateReductionFunction& reduction);

/// The statistics stage and optimizer configs a server (or a cluster's
/// shards and coordinator) derive from its CqServerConfig. `seed` is the
/// pipeline's random stream (shard k mixes its index in first); the stats
/// stage seeds its sampling RNG with `seed ^ 0x57a75`.
StatsStageConfig ServerStatsConfig(const CqServerConfig& config,
                                   uint64_t seed);
OptimizerStageConfig ServerOptimizerConfig(const CqServerConfig& config);

class ServerPipeline {
 public:
  virtual ~ServerPipeline() = default;
  ServerPipeline(const ServerPipeline&) = delete;
  ServerPipeline& operator=(const ServerPipeline&) = delete;

  /// Points the pipeline at a (possibly different) query registry -- the CQ
  /// workload changed. Takes effect at the next adaptation step (or an
  /// explicit Adapt()). The registry must outlive the pipeline.
  Status InstallQueries(const QueryRegistry* queries);

  /// Admits one tick's batch of position updates, consuming `*updates` in
  /// place (shuffled, elements moved from) so the caller can clear and
  /// reuse the buffer's capacity across ticks. Malformed updates are
  /// rejected first (RejectMalformed), the rest go to the queue(s)
  /// (Admit), and a batch that overflowed emits one kQueueOverflow event
  /// (value = updates dropped, extra = queue_size() afterwards).
  void ReceiveBatch(std::vector<ModelUpdate>* updates);

  /// As ReceiveBatch with an owned batch.
  void Receive(std::vector<ModelUpdate> updates) { ReceiveBatch(&updates); }

  /// Advances the clock by dt seconds: services the queue(s), runs the
  /// adaptation step when the period elapses, and appends the tick's
  /// flight samples.
  Status Tick(double dt);

  /// One adaptation step, forced immediately: the rebalance hook, then
  /// THROTLOOP (or the fixed z) from the summed queue windows, the node
  /// statistics, the query counts on the global statistics stage, the plan
  /// build, and the `plan.broadcast` instant.
  Status Adapt();

  /// Answers an installed continual query at the current time: the
  /// snapshot precondition (CheckSnapshotQuery), then AnswerRange over the
  /// query's range. Requires maintain_index.
  StatusOr<std::vector<NodeId>> AnswerQuery(QueryId query) const;

  /// Ad-hoc snapshot range query at time t >= now: the ids whose believed
  /// position at t lies in `range`. Requires maintain_index.
  virtual StatusOr<std::vector<NodeId>> AnswerRange(const Rect& range,
                                                    double t) const = 0;

  /// Historical snapshot range query at a past time t. Requires
  /// record_history.
  StatusOr<std::vector<NodeId>> AnswerHistoricalRange(const Rect& range,
                                                      double t) const;

  double time() const { return time_; }
  /// Ticks processed so far (the frame stamp on trace spans).
  int64_t ticks() const { return tick_; }
  /// Throttle fraction currently in force.
  double z() const { return optimizer_.z(); }
  /// The active (global) shedding plan.
  const SheddingPlan& plan() const { return optimizer_.plan(); }
  /// The global statistics grid the optimizer plans over (the single
  /// server's own grid, the cluster coordinator's merged grid).
  const StatisticsGrid& stats() const { return stats_.grid(); }
  /// The quad tree kept over stats() for LiraPolicy (empty under the other
  /// policies).
  const QuadHierarchy& quad_tree() const { return stats_.quad_tree(); }

  /// Cumulative time spent building plans (seconds) and number of builds,
  /// for the server-side-cost experiments.
  double total_plan_build_seconds() const {
    return optimizer_.total_plan_build_seconds();
  }
  int64_t plan_builds() const { return optimizer_.plan_builds(); }

  /// Updates rejected before admission (never counted as arrivals): an id
  /// outside [0, num_nodes), or a non-finite origin, velocity or t0.
  /// Mirrored in `lira.ingest.rejected.{node_id,non_finite}`.
  int64_t rejected_node_id() const { return rejected_node_id_; }
  int64_t rejected_non_finite() const { return rejected_non_finite_; }

  /// The pipeline's believed position of a node at time t; nullopt when the
  /// node has not reported (or its update was shed).
  virtual std::optional<Point> BelievedPositionAt(NodeId id,
                                                  double t) const = 0;

  /// Bulk BelievedPositionAt over the id range [begin, begin + n): writes
  /// the believed position columns and the known mask (lane i is node
  /// begin + i; out slots of unknown lanes are unspecified). This default
  /// loops over BelievedPositionAt; pipelines with columnar trackers
  /// override it with the PredictPositions kernel (CqServer). Either path
  /// yields bitwise-identical columns.
  virtual void FillBelievedInto(NodeId begin, int64_t n, double t,
                                double* out_x, double* out_y,
                                uint8_t* known) const {
    for (int64_t i = 0; i < n; ++i) {
      const auto believed =
          BelievedPositionAt(begin + static_cast<NodeId>(i), t);
      known[i] = believed.has_value() ? 1 : 0;
      if (believed.has_value()) {
        out_x[i] = believed->x;
        out_y[i] = believed->y;
      }
    }
  }

  /// Queue accounting, aggregated over all shards.
  virtual size_t queue_size() const = 0;
  virtual int64_t queue_arrivals() const = 0;
  virtual int64_t queue_dropped() const = 0;

  virtual int64_t updates_applied() const = 0;

  /// Historical reconstruction (empty/nullopt when history recording is
  /// off -- check records_history() first).
  bool records_history() const { return config_.record_history; }
  virtual std::vector<NodeId> HistoricalRangeAt(const Rect& range,
                                                double t) const = 0;
  virtual std::optional<Point> HistoricalPositionAt(NodeId id,
                                                    double t) const = 0;
  virtual int64_t history_bytes() const = 0;

 protected:
  /// THROTLOOP's measurement window, summed over every queue.
  struct QueueWindow {
    int64_t arrivals = 0;
    int64_t dropped = 0;
  };

  /// `stats` is the global statistics stage (query counts are refreshed on
  /// it every adaptation and the optimizer plans over its grid).
  ServerPipeline(const CqServerConfig& config, const LoadSheddingPolicy* policy,
                 const UpdateReductionFunction* reduction,
                 const QueryRegistry* queries, StatsStage stats,
                 OptimizerStage optimizer);
  ServerPipeline(ServerPipeline&&) = default;
  ServerPipeline& operator=(ServerPipeline&&) = default;

  /// Removes every update whose id lies outside [0, num_nodes) or whose
  /// origin, velocity or t0 is not finite, keeping the order of the rest,
  /// and counts the rejections per reason. ReceiveBatch calls this before
  /// Admit, so no stage (and no shard routing) ever sees a malformed
  /// update.
  void RejectMalformed(std::vector<ModelUpdate>* updates);

  /// Precondition of snapshot range answering at time t: the index is
  /// maintained and t is not in the past.
  Status CheckSnapshotQuery(double t) const;

  /// The serial driver/coordinator trace lane (nullptr when tracing is off).
  telemetry::TraceLane* driver_lane() const {
    return config_.trace != nullptr
               ? config_.trace->lane(telemetry::TraceRecorder::kDriverLane)
               : nullptr;
  }

  /// Admits a well-formed batch into the queue(s), consuming `*updates`;
  /// returns how many updates the full queue(s) dropped.
  virtual int64_t Admit(std::vector<ModelUpdate>* updates) = 0;
  /// Per-tick work after the clock advanced: service the queue(s), apply
  /// the served updates, and settle ownership.
  virtual void ServeTick(double dt) = 0;
  /// THROTLOOP's window summed over every queue; resets the windows.
  virtual QueueWindow TakeQueueWindow() = 0;
  /// Refreshes the node statistics (n, s) of the global grid.
  virtual Status RebuildNodeStats() = 0;
  /// First step of every adaptation (the cluster's rebalance step).
  virtual void PrepareAdaptation() {}
  /// Appends per-shard flight samples ahead of the coordinator sample.
  virtual void RecordShardFlightSamples(
      telemetry::FlightRecorder* /*recorder*/) {}

  CqServerConfig config_;
  const LoadSheddingPolicy* policy_;
  const UpdateReductionFunction* reduction_;
  const QueryRegistry* queries_;
  /// The global statistics stage: the single server's own stage, the
  /// cluster coordinator's merged stage.
  StatsStage stats_;
  OptimizerStage optimizer_;
  double time_ = 0.0;
  int64_t tick_ = 0;
  double next_adaptation_;

 private:
  /// The end-of-tick coordinator sample (shard -1), after any shard samples.
  void RecordFlightSamples();

  int64_t rejected_node_id_ = 0;
  int64_t rejected_non_finite_ = 0;
};

}  // namespace lira

#endif  // LIRA_SERVER_SERVER_PIPELINE_H_
