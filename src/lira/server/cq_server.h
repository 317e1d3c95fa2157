// The mobile CQ server (paper Section 2.2, first layer).
//
// A thin facade over the four pipeline stages:
//
//   IngestStage    bounded queue, drop accounting, service pacing
//   TrackerStage   position tracker + TPR index + history
//   StatsStage     incremental StatisticsGrid maintenance
//   OptimizerStage THROTLOOP (z) -> policy (GRIDREDUCE + GREEDYINCREMENT
//                  for LIRA) -> new SheddingPlan
//
// The clock, the adaptation schedule and the adaptation sequence live in
// ServerPipeline (server_pipeline.h), shared with ServerCluster; this
// facade supplies its one ingest -> tracker pair per tick and rebuilds the
// node statistics on its own stage, which is also the global one. The
// stages are separately constructible and tested
// (tests/server/*_stage_test), and ServerCluster composes S
// ingest/tracker/stats triples under one coordinator-owned optimizer
// (server_cluster.h). CqServerConfig and its helpers are declared in
// server_pipeline.h.

#ifndef LIRA_SERVER_CQ_SERVER_H_
#define LIRA_SERVER_CQ_SERVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/core/policy.h"
#include "lira/cq/query_registry.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/update_reduction.h"
#include "lira/server/history_store.h"
#include "lira/server/ingest_stage.h"
#include "lira/server/optimizer_stage.h"
#include "lira/server/server_pipeline.h"
#include "lira/server/stats_stage.h"
#include "lira/server/tracker_stage.h"
#include "lira/server/update_queue.h"

namespace lira {

/// Single-threaded discrete-time CQ server: one ingest -> tracker pair
/// whose statistics stage is also the global one the optimizer plans over.
class CqServer : public ServerPipeline {
 public:
  /// `policy`, `reduction` and `queries` must outlive the server. The
  /// registry may gain queries while the server runs (InstallQueries); the
  /// statistics grid refreshes its query counts at every adaptation.
  static StatusOr<CqServer> Create(const CqServerConfig& config,
                                   const LoadSheddingPolicy* policy,
                                   const UpdateReductionFunction* reduction,
                                   const QueryRegistry* queries);

  /// Enqueues a batch of arriving position updates (drops when full),
  /// consuming `*updates` in place (shuffled, elements moved from) so the
  /// caller can clear and reuse the buffer's capacity across ticks -- the
  /// simulator's frame loop calls this every frame. Receive (inherited)
  /// takes an owned batch.
  void ReceiveBatch(std::vector<ModelUpdate>* updates) override;

  /// Answers an installed continual query from the TPR-tree at the server's
  /// current time. Requires maintain_index.
  StatusOr<std::vector<NodeId>> AnswerQuery(QueryId query) const;

  /// Answers an ad-hoc snapshot range query at time t >= now. Requires
  /// maintain_index.
  StatusOr<std::vector<NodeId>> AnswerRange(const Rect& range,
                                            double t) const;

  /// The history store, or nullptr when record_history is off.
  const HistoryStore* history() const { return tracker_stage_.history(); }

  const PositionTracker& tracker() const { return tracker_stage_.tracker(); }
  const UpdateQueue& queue() const { return ingest_.queue(); }

  int64_t updates_applied() const override {
    return tracker_stage_.updates_applied();
  }

  std::optional<Point> BelievedPositionAt(NodeId id,
                                          double t) const override {
    return tracker_stage_.tracker().PredictAt(id, t);
  }
  void FillBelievedInto(NodeId begin, int64_t n, double t, double* out_x,
                        double* out_y, uint8_t* known) const override {
    tracker_stage_.tracker().PredictSpan(begin, n, t, /*fallback_x=*/nullptr,
                                         /*fallback_y=*/nullptr, out_x, out_y,
                                         known);
  }
  size_t queue_size() const override { return ingest_.queue().size(); }
  int64_t queue_arrivals() const override {
    return ingest_.queue().total_arrivals();
  }
  int64_t queue_dropped() const override {
    return ingest_.queue().total_dropped();
  }
  std::vector<NodeId> HistoricalRangeAt(const Rect& range,
                                        double t) const override;
  std::optional<Point> HistoricalPositionAt(NodeId id,
                                            double t) const override;
  int64_t history_bytes() const override;

 private:
  CqServer(const CqServerConfig& config, const LoadSheddingPolicy* policy,
           const UpdateReductionFunction* reduction,
           const QueryRegistry* queries, IngestStage ingest,
           TrackerStage tracker_stage, StatsStage stats_stage,
           OptimizerStage optimizer);

  /// Services the queue and applies the served updates (driver lane).
  void ServeTick(double dt) override;
  QueueWindow TakeQueueWindow() override;
  /// StatsStage::RebuildNodes on the server's own (global) stage.
  Status RebuildNodeStats() override;

  IngestStage ingest_;
  TrackerStage tracker_stage_;
};

}  // namespace lira

#endif  // LIRA_SERVER_CQ_SERVER_H_
