#include "lira/server/cq_server.h"

#include <utility>

namespace lira {

CqServer::CqServer(const CqServerConfig& config,
                   const LoadSheddingPolicy* policy,
                   const UpdateReductionFunction* reduction,
                   const QueryRegistry* queries, IngestStage ingest,
                   TrackerStage tracker_stage, StatsStage stats_stage,
                   OptimizerStage optimizer)
    : ServerPipeline(config, policy, reduction, queries,
                     std::move(stats_stage), std::move(optimizer)),
      ingest_(std::move(ingest)),
      tracker_stage_(std::move(tracker_stage)) {}

StatusOr<CqServer> CqServer::Create(const CqServerConfig& config,
                                    const LoadSheddingPolicy* policy,
                                    const UpdateReductionFunction* reduction,
                                    const QueryRegistry* queries) {
  LIRA_RETURN_IF_ERROR(
      ValidateServerConfig(config, policy, reduction, queries));

  StatsStageConfig stats_config = ServerStatsConfig(config, config.seed);
  stats_config.pool = config.pool;
  auto stats_stage = StatsStage::Create(stats_config);
  if (!stats_stage.ok()) {
    return stats_stage.status();
  }
  stats_stage->RebuildQueries(*queries, QueryMargin(*reduction));

  IngestStageConfig ingest_config;
  ingest_config.queue_capacity = config.queue_capacity;
  ingest_config.service_rate = config.service_rate;
  ingest_config.seed = config.seed;
  ingest_config.telemetry = config.telemetry;
  auto ingest = IngestStage::Create(ingest_config);
  if (!ingest.ok()) {
    return ingest.status();
  }

  OptimizerStageConfig optimizer_config = ServerOptimizerConfig(config);
  optimizer_config.pool = config.pool;
  auto optimizer = OptimizerStage::Create(optimizer_config, config.world,
                                          reduction->delta_min());
  if (!optimizer.ok()) {
    return optimizer.status();
  }

  auto tracker_stage = TrackerStage::Create(
      config.num_nodes, config.maintain_index, config.record_history);
  if (!tracker_stage.ok()) {
    return tracker_stage.status();
  }

  return CqServer(config, policy, reduction, queries, *std::move(ingest),
                  *std::move(tracker_stage), *std::move(stats_stage),
                  *std::move(optimizer));
}

int64_t CqServer::Admit(std::vector<ModelUpdate>* updates) {
  telemetry::ScopedSpan span(config_.trace, driver_lane(), "ingest.receive",
                             tick_, -1, time_);
  span.set_value(static_cast<double>(updates->size()));
  return ingest_.Receive(updates);
}

void CqServer::ServeTick(double dt) {
  telemetry::TraceRecorder* tr = config_.trace;
  telemetry::TraceLane* lane = driver_lane();
  telemetry::ScopedSpan service_span(tr, lane, "ingest.service", tick_, -1,
                                     time_);
  const std::vector<ModelUpdate> served = ingest_.Service(dt);
  service_span.set_value(static_cast<double>(served.size()));
  service_span.Stop();
  telemetry::ScopedSpan apply_span(tr, lane, "tracker.apply", tick_, -1,
                                   time_);
  apply_span.set_value(static_cast<double>(served.size()));
  for (const ModelUpdate& update : served) {
    tracker_stage_.Apply(update);
  }
}

ServerPipeline::QueueWindow CqServer::TakeQueueWindow() {
  const QueueWindow window{ingest_.queue().window_arrivals(),
                           ingest_.queue().window_dropped()};
  ingest_.ResetWindow();
  return window;
}

Status CqServer::RebuildNodeStats() {
  telemetry::ScopedSpan span(config_.trace, driver_lane(), "stats.rebuild",
                             tick_, -1, time_);
  stats_.RebuildNodes(tracker_stage_.tracker(), time_);
  span.set_value(stats_.grid().TotalNodes());
  return OkStatus();
}

StatusOr<std::vector<NodeId>> CqServer::AnswerRange(const Rect& range,
                                                    double t) const {
  LIRA_RETURN_IF_ERROR(CheckSnapshotQuery(t));
  return tracker_stage_.RangeAt(range, t);
}

std::vector<NodeId> CqServer::HistoricalRangeAt(const Rect& range,
                                                double t) const {
  const HistoryStore* store = history();
  return store != nullptr ? store->RangeAt(range, t) : std::vector<NodeId>{};
}

std::optional<Point> CqServer::HistoricalPositionAt(NodeId id,
                                                    double t) const {
  const HistoryStore* store = history();
  return store != nullptr ? store->PositionAt(id, t) : std::nullopt;
}

int64_t CqServer::history_bytes() const {
  const HistoryStore* store = history();
  return store != nullptr ? store->ApproxBytes() : 0;
}

}  // namespace lira
