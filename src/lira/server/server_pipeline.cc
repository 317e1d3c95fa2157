#include "lira/server/server_pipeline.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lira {

Status ValidateServerConfig(const CqServerConfig& config,
                            const LoadSheddingPolicy* policy,
                            const UpdateReductionFunction* reduction,
                            const QueryRegistry* queries) {
  if (policy == nullptr || reduction == nullptr || queries == nullptr) {
    return InvalidArgumentError("policy/reduction/queries must be non-null");
  }
  if (config.num_nodes <= 0) {
    return InvalidArgumentError("num_nodes must be positive");
  }
  if (config.service_rate <= 0.0) {
    return InvalidArgumentError("service_rate must be positive");
  }
  if (config.adaptation_period <= 0.0) {
    return InvalidArgumentError("adaptation_period must be positive");
  }
  if (!config.auto_throttle && (config.fixed_z < 0.0 || config.fixed_z > 1.0)) {
    return InvalidArgumentError("fixed_z must be in [0, 1]");
  }
  if (config.stats_sample_fraction <= 0.0 ||
      config.stats_sample_fraction > 1.0) {
    return InvalidArgumentError("stats_sample_fraction must be in (0, 1]");
  }
  return OkStatus();
}

double QueryMargin(const CqServerConfig& config,
                   const UpdateReductionFunction& reduction) {
  return config.query_margin >= 0.0 ? config.query_margin
                                    : reduction.delta_max();
}

StatsStageConfig ServerStatsConfig(const CqServerConfig& config,
                                   uint64_t seed) {
  StatsStageConfig stats;
  stats.num_nodes = config.num_nodes;
  stats.world = config.world;
  stats.alpha = config.alpha;
  stats.stats_sample_fraction = config.stats_sample_fraction;
  stats.incremental_stats = config.incremental_stats;
  stats.seed = seed ^ 0x57a75ULL;
  stats.telemetry = config.telemetry;
  return stats;
}

OptimizerStageConfig ServerOptimizerConfig(const CqServerConfig& config) {
  OptimizerStageConfig optimizer;
  optimizer.queue_capacity = static_cast<int64_t>(config.queue_capacity);
  optimizer.service_rate = config.service_rate;
  optimizer.adaptation_period = config.adaptation_period;
  optimizer.auto_throttle = config.auto_throttle;
  optimizer.fixed_z = config.fixed_z;
  optimizer.telemetry = config.telemetry;
  return optimizer;
}

ServerPipeline::ServerPipeline(const CqServerConfig& config,
                               const LoadSheddingPolicy* policy,
                               const UpdateReductionFunction* reduction,
                               const QueryRegistry* queries, StatsStage stats,
                               OptimizerStage optimizer)
    : config_(config),
      policy_(policy),
      reduction_(reduction),
      queries_(queries),
      stats_(std::move(stats)),
      optimizer_(std::move(optimizer)),
      next_adaptation_(config.adaptation_period) {}

Status ServerPipeline::InstallQueries(const QueryRegistry* queries) {
  if (queries == nullptr) {
    return InvalidArgumentError("queries must be non-null");
  }
  queries_ = queries;
  stats_.InvalidateQueryCache();
  OnQueriesInstalled();
  return OkStatus();
}

void ServerPipeline::RejectMalformed(std::vector<ModelUpdate>* updates) {
  int64_t bad_id = 0;
  int64_t non_finite = 0;
  const auto malformed = [&](const ModelUpdate& update) {
    if (update.node_id < 0 || update.node_id >= config_.num_nodes) {
      ++bad_id;
      return true;
    }
    const LinearMotionModel& m = update.model;
    if (!std::isfinite(m.origin.x) || !std::isfinite(m.origin.y) ||
        !std::isfinite(m.velocity.x) || !std::isfinite(m.velocity.y) ||
        !std::isfinite(m.t0)) {
      ++non_finite;
      return true;
    }
    return false;
  };
  updates->erase(std::remove_if(updates->begin(), updates->end(), malformed),
                 updates->end());
  rejected_node_id_ += bad_id;
  rejected_non_finite_ += non_finite;
  if (config_.telemetry != nullptr && bad_id + non_finite > 0) {
    telemetry::MetricRegistry& metrics = config_.telemetry->metrics();
    metrics.GetCounter("lira.ingest.rejected.node_id")->Increment(bad_id);
    metrics.GetCounter("lira.ingest.rejected.non_finite")
        ->Increment(non_finite);
  }
}

Status ServerPipeline::Tick(double dt) {
  if (dt <= 0.0) {
    return InvalidArgumentError("dt must be positive");
  }
  time_ += dt;
  ++tick_;
  ServeTick(dt);
  if (time_ + 1e-9 >= next_adaptation_) {
    LIRA_RETURN_IF_ERROR(Adapt());
    next_adaptation_ += config_.adaptation_period;
  }
  if (config_.flight_recorder != nullptr) {
    RecordFlightSamples();
  }
  return OkStatus();
}

void ServerPipeline::RecordFlightSamples() {
  RecordShardFlightSamples(config_.flight_recorder);
  telemetry::FlightSample sample;
  sample.tick = tick_;
  sample.time = time_;
  sample.shard = -1;
  sample.queue_depth = static_cast<int64_t>(queue_size());
  sample.queue_dropped = queue_dropped();
  sample.queue_arrivals = queue_arrivals();
  sample.z = optimizer_.z();
  sample.lambda = optimizer_.last_lambda();
  sample.utilization = optimizer_.last_utilization();
  sample.nodes = static_cast<int64_t>(stats_.grid().TotalNodes());
  sample.plan_regions = static_cast<int32_t>(optimizer_.plan().NumRegions());
  sample.plan_min_delta = optimizer_.plan().MinDelta();
  sample.plan_max_delta = optimizer_.plan().MaxDelta();
  config_.flight_recorder->Record(sample);
}

Status ServerPipeline::Adapt() {
  telemetry::TelemetrySink* t = config_.telemetry;
  telemetry::ScopedTimer adapt_timer(t, "lira.adapt.total_seconds", time_);
  telemetry::TraceRecorder* tr = config_.trace;
  telemetry::TraceLane* lane = driver_lane();
  PrepareAdaptation();
  {
    telemetry::ScopedSpan throttle_span(tr, lane, "optimizer.throttle", tick_,
                                        -1, time_);
    if (config_.auto_throttle) {
      // THROTLOOP sees the *global* arrival window against the global
      // service rate -- sharding must not change the control loop.
      const QueueWindow window = TakeQueueWindow();
      optimizer_.UpdateThrottle(window.arrivals, window.dropped, time_);
    } else {
      optimizer_.FixedThrottle(time_);
    }
    throttle_span.set_value(optimizer_.z());
  }
  {
    telemetry::ScopedTimer stats_timer(t, "lira.adapt.stats_rebuild_seconds",
                                       time_);
    LIRA_RETURN_IF_ERROR(RebuildNodeStats());
    telemetry::ScopedTimer query_timer(t, "lira.adapt.query_rebuild_seconds",
                                       time_);
    telemetry::ScopedSpan query_span(tr, lane, "stats.query_rebuild", tick_,
                                     -1, time_);
    stats_.RebuildQueries(*queries_, QueryMargin(config_, *reduction_));
  }
  Status built;
  {
    telemetry::ScopedSpan plan_span(tr, lane, "optimizer.plan_build", tick_,
                                    -1, time_);
    built = optimizer_.BuildPlan(*policy_, stats_.grid(), *reduction_, time_,
                                 stats_.quad_tree());
    plan_span.set_value(static_cast<double>(optimizer_.plan().NumRegions()));
  }
  // The plan is now visible to every shard and to the encoders (the
  // simulator reads it at the top of the next frame) -- mark the broadcast.
  telemetry::RecordInstant(tr, lane, "plan.broadcast", tick_, -1, time_,
                           static_cast<double>(optimizer_.plan().NumRegions()));
  return built;
}

Status ServerPipeline::CheckSnapshotQuery(double t) const {
  if (!config_.maintain_index) {
    return FailedPreconditionError("server index maintenance is disabled");
  }
  if (t + 1e-9 < time_) {
    return InvalidArgumentError(
        "snapshot time is in the past; use the history store for "
        "historical queries");
  }
  return OkStatus();
}

StatusOr<std::vector<NodeId>> ServerPipeline::AnswerHistoricalRange(
    const Rect& range, double t) const {
  if (!config_.record_history) {
    return FailedPreconditionError("history recording is disabled");
  }
  if (t > time_ + 1e-9) {
    return InvalidArgumentError("historical time is in the future");
  }
  return HistoricalRangeAt(range, t);
}

}  // namespace lira
