#include "lira/server/server_cluster.h"

#include <algorithm>
#include <string>
#include <utility>

namespace lira {
namespace {

/// Shard k's random stream: golden-ratio mixing keeps streams disjoint
/// while shard 0 keeps the un-mixed seed, so an S=1 cluster consumes
/// exactly the random sequence a plain CqServer would.
uint64_t ShardSeed(uint64_t seed, int32_t shard) {
  return seed ^ (static_cast<uint64_t>(shard) * 0x9e3779b97f4a7c15ULL);
}

/// Shard instrument namespace. The id rides in the name segment
/// ("lira.shard3.queue.depth") so the metric registry stays a flat
/// string-keyed map; the Prometheus exporter re-extracts it as a proper
/// `shard="3"` label (telemetry/exposition.h).
std::string ShardPrefix(int32_t shard) {
  return "lira.shard" + std::to_string(shard);
}

}  // namespace

ServerCluster::ServerCluster(const ServerClusterConfig& config,
                             const LoadSheddingPolicy* policy,
                             const UpdateReductionFunction* reduction,
                             const QueryRegistry* queries, ShardMap shard_map,
                             std::vector<Shard> shards,
                             StatsStage merged_stats, OptimizerStage optimizer,
                             int32_t pool_threads)
    : ServerPipeline(config.server, policy, reduction, queries,
                     std::move(merged_stats), std::move(optimizer)),
      rebalance_stride_(config.rebalance_stride),
      rebalance_max_moves_(config.rebalance_max_moves),
      shard_map_(std::move(shard_map)),
      shards_(std::move(shards)),
      pool_(pool_threads),
      owner_of_(config.server.num_nodes, -1),
      claimed_(config.server.num_nodes, 0) {
  // The coordinator-side adaptation phases (shard-grid merge, quad build,
  // GRIDREDUCE waves) reuse the shard fan-out pool once the fan-out has
  // returned; shard stages themselves must stay pool-free (no nesting).
  optimizer_.set_pool(&pool_);
  if (config_.telemetry != nullptr) {
    telemetry::MetricRegistry& metrics = config_.telemetry->metrics();
    arrivals_counter_ = metrics.GetCounter("lira.queue.arrivals");
    dropped_counter_ = metrics.GetCounter("lira.queue.dropped");
    rebalance_epochs_counter_ =
        metrics.GetCounter("lira.cluster.rebalance.epochs");
    rebalance_columns_counter_ =
        metrics.GetCounter("lira.cluster.rebalance.columns_moved");
    rebalance_migrated_counter_ =
        metrics.GetCounter("lira.cluster.rebalance.nodes_migrated");
    shard_nodes_gauges_.reserve(shards_.size());
    for (int32_t k = 0; k < num_shards(); ++k) {
      shard_nodes_gauges_.push_back(
          metrics.GetGauge(ShardPrefix(k) + ".stats.nodes"));
    }
  }
  RebuildSubQueries();
}

StatusOr<std::unique_ptr<ServerCluster>> ServerCluster::Create(
    const ServerClusterConfig& config, const LoadSheddingPolicy* policy,
    const UpdateReductionFunction* reduction, const QueryRegistry* queries) {
  const CqServerConfig& server = config.server;
  LIRA_RETURN_IF_ERROR(
      ValidateServerConfig(server, policy, reduction, queries));
  if (config.threads < 0) {
    return InvalidArgumentError("threads must be >= 0");
  }
  if (config.rebalance_stride < 0) {
    return InvalidArgumentError("rebalance_stride must be >= 0 (0 = off)");
  }
  if (config.rebalance_stride > 0 && config.rebalance_max_moves < 1) {
    return InvalidArgumentError(
        "rebalance_max_moves must be >= 1 when rebalancing is enabled");
  }
  auto shard_map =
      ShardMap::Create(server.world, server.alpha, config.shards);
  if (!shard_map.ok()) {
    return shard_map.status();
  }

  const int32_t num_shards = config.shards;
  // Global resources split evenly: queue slots round up so S shard queues
  // always cover the global capacity B; the service rate divides exactly
  // (mu/S per shard, so S=1 keeps the service-credit float math bitwise).
  const size_t shard_capacity =
      (server.queue_capacity + static_cast<size_t>(num_shards) - 1) /
      static_cast<size_t>(num_shards);
  const double shard_rate = server.service_rate / num_shards;

  std::vector<Shard> shards;
  shards.reserve(num_shards);
  for (int32_t k = 0; k < num_shards; ++k) {
    const uint64_t seed = ShardSeed(server.seed, k);
    const std::string prefix = ShardPrefix(k);

    IngestStageConfig ingest_config;
    ingest_config.queue_capacity = shard_capacity;
    ingest_config.service_rate = shard_rate;
    ingest_config.seed = seed;
    ingest_config.metric_prefix = prefix;
    // Shard Receive/rebuild sections run concurrently; EventSink
    // implementations are single-threaded, so shards touch only atomic
    // counters/gauges and the coordinator emits the (serial) events.
    ingest_config.emit_events = false;
    ingest_config.telemetry = server.telemetry;
    auto ingest = IngestStage::Create(ingest_config);
    if (!ingest.ok()) {
      return ingest.status();
    }

    auto tracker = TrackerStage::Create(
        server.num_nodes, server.maintain_index, server.record_history);
    if (!tracker.ok()) {
      return tracker.status();
    }

    // No pool: shard rebuilds run inside the coordinator's shard fan-out.
    StatsStageConfig stats_config = ServerStatsConfig(server, seed);
    stats_config.metric_prefix = prefix;
    auto stats = StatsStage::Create(stats_config);
    if (!stats.ok()) {
      return stats.status();
    }

    shards.push_back(Shard{*std::move(ingest), *std::move(tracker),
                           *std::move(stats), {}, {}, 0});
  }

  // The coordinator's merged grid; its query-count cache plays the role
  // the single server's grid cache does (counted once here, refreshed
  // only when the registry or margin changes).
  StatsStageConfig merged_config = ServerStatsConfig(server, server.seed);
  // The coordinator's own instruments live under `lira.coord.*`; the shard
  // stages own the `lira.shard<k>.*` rebuild instruments, so the merged
  // stage no longer has to run blind just to avoid name collisions.
  merged_config.metric_prefix = "lira.coord";
  auto merged = StatsStage::Create(merged_config);
  if (!merged.ok()) {
    return merged.status();
  }
  merged->RebuildQueries(*queries, QueryMargin(server, *reduction));

  auto optimizer = OptimizerStage::Create(ServerOptimizerConfig(server),
                                          server.world,
                                          reduction->delta_min());
  if (!optimizer.ok()) {
    return optimizer.status();
  }

  const int32_t pool_threads = std::min(
      config.threads > 0 ? config.threads : ThreadPool::DefaultThreads(),
      num_shards);
  return std::unique_ptr<ServerCluster>(new ServerCluster(
      config, policy, reduction, queries, *std::move(shard_map),
      std::move(shards), *std::move(merged), *std::move(optimizer),
      pool_threads));
}

Rect ServerCluster::ExpandedStrip(int32_t shard) const {
  const double margin = QueryMargin(config_, *reduction_);
  const Rect strip = shard_map_.ShardRect(shard);
  return Rect{strip.min_x - margin, strip.min_y - margin,
              strip.max_x + margin, strip.max_y + margin};
}

void ServerCluster::RebuildSubQueries() {
  std::vector<Rect> strips;
  strips.reserve(static_cast<size_t>(num_shards()));
  for (int32_t k = 0; k < num_shards(); ++k) {
    strips.push_back(shard_map_.ShardRect(k));
  }
  sub_queries_.Build(*queries_, strips, QueryMargin(config_, *reduction_));
}

void ServerCluster::ReceiveBatch(std::vector<ModelUpdate>* updates) {
  RejectMalformed(updates);
  const auto arrived = static_cast<int64_t>(updates->size());
  telemetry::TraceRecorder* tr = config_.trace;
  // Route serially in batch order (stable: each shard sees its updates in
  // the order the batch carried them, exactly the sub-sequence a single
  // server would have admitted them in), then admit per shard in parallel.
  {
    telemetry::ScopedSpan route_span(tr, driver_lane(), "ingest.route",
                                     tick_, -1, time_);
    route_span.set_value(static_cast<double>(arrived));
    for (Shard& shard : shards_) {
      shard.route.clear();
    }
    for (ModelUpdate& update : *updates) {
      shards_[shard_map_.ShardFor(update.model.origin)].route.push_back(
          std::move(update));
    }
    updates->clear();
  }
  // Each worker writes only its own shard's trace lane (grain 1 ==
  // one shard per chunk), so lanes stay single-writer.
  pool_.ParallelFor(
      0, num_shards(), 1, [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
        for (int64_t k = begin; k < end; ++k) {
          Shard& shard = shards_[k];
          const auto shard_id = static_cast<int32_t>(k);
          telemetry::ScopedSpan span(
              tr,
              tr != nullptr
                  ? tr->lane(telemetry::TraceRecorder::LaneForShard(shard_id))
                  : nullptr,
              "ingest.receive", tick_, shard_id, time_);
          span.set_value(static_cast<double>(shard.route.size()));
          shard.last_dropped = shard.ingest.Receive(&shard.route, time_);
        }
      });
  if (config_.telemetry != nullptr) {
    int64_t dropped = 0;
    for (const Shard& shard : shards_) {
      dropped += shard.last_dropped;
    }
    arrivals_counter_->Increment(arrived);
    if (dropped > 0) {
      dropped_counter_->Increment(dropped);
      config_.telemetry->Emit(telemetry::EventKind::kQueueOverflow,
                              "lira.queue.dropped", time_,
                              static_cast<double>(dropped),
                              static_cast<double>(queue_size()));
    }
  }
}

void ServerCluster::ServeTick(double dt) {
  telemetry::TraceRecorder* tr = config_.trace;
  // Service + apply per shard in parallel: each shard touches only its own
  // queue/tracker/history plus relaxed-atomic counters -- and its own
  // trace lane (k + 1), so span recording needs no synchronization.
  pool_.ParallelFor(
      0, num_shards(), 1, [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
        for (int64_t k = begin; k < end; ++k) {
          Shard& shard = shards_[k];
          const auto shard_id = static_cast<int32_t>(k);
          telemetry::TraceLane* lane =
              tr != nullptr
                  ? tr->lane(telemetry::TraceRecorder::LaneForShard(shard_id))
                  : nullptr;
          shard.applied.clear();
          telemetry::ScopedSpan service_span(tr, lane, "ingest.service",
                                             tick_, shard_id, time_);
          const std::vector<ModelUpdate> served = shard.ingest.Service(dt);
          service_span.set_value(static_cast<double>(served.size()));
          service_span.Stop();
          telemetry::ScopedSpan apply_span(tr, lane, "tracker.apply", tick_,
                                           shard_id, time_);
          apply_span.set_value(static_cast<double>(served.size()));
          for (const ModelUpdate& update : served) {
            shard.tracker.Apply(update);
            shard.applied.push_back(update.node_id);
          }
        }
      });
  telemetry::ScopedSpan handoff_span(tr, driver_lane(), "tracker.handoffs",
                                     tick_, -1, time_);
  ProcessHandoffs();
}

void ServerCluster::RecordShardFlightSamples(
    telemetry::FlightRecorder* recorder) {
  for (int32_t k = 0; k < num_shards(); ++k) {
    const Shard& shard = shards_[k];
    telemetry::FlightSample sample;
    sample.tick = tick_;
    sample.time = time_;
    sample.shard = k;
    sample.queue_depth = static_cast<int64_t>(shard.ingest.queue().size());
    sample.queue_dropped = shard.ingest.queue().total_dropped();
    sample.queue_arrivals = shard.ingest.queue().total_arrivals();
    sample.z = optimizer_.z();
    sample.nodes = static_cast<int64_t>(shard.stats.grid().TotalNodes());
    recorder->Record(sample);
  }
}

void ServerCluster::ProcessHandoffs() {
  // Serial, in descending shard order, so the outcome is independent of
  // worker timing. A node applied by several shards in the same tick (it
  // crossed a boundary between reports) ends up owned by the
  // highest-indexed applier, which keeps its model; every other shard
  // holding the node's model -- the previous owner and the lower-indexed
  // appliers -- is retracted. The plan optimizer therefore sees every
  // tracked node exactly once. Every ForgetNode pairs with the tracker's
  // Forget: shard stats rebuilds scan every id and count whatever the
  // shard's tracker holds a model for.
  const auto retract = [&](int32_t shard, NodeId id) {
    shards_[shard].stats.ForgetNode(id);
    shards_[shard].tracker.Forget(id);
  };
  for (int32_t k = num_shards() - 1; k >= 0; --k) {
    for (const NodeId id : shards_[k].applied) {
      if (claimed_[id] != 0) {
        if (owner_of_[id] != k) {
          retract(k, id);  // a higher-indexed shard applied it this tick
        }
        continue;
      }
      claimed_[id] = 1;
      const int32_t previous = owner_of_[id];
      if (previous >= 0 && previous != k) {
        retract(previous, id);
      }
      owner_of_[id] = k;
    }
  }
  for (const Shard& shard : shards_) {
    for (const NodeId id : shard.applied) {
      claimed_[id] = 0;
    }
  }
}

void ServerCluster::PrepareAdaptation() {
  // Rebalance phase (DESIGN.md §12): every R-th adaptation re-splits the
  // strip boundaries from the *previous* adaptation's merged grid -- the
  // only cross-shard state every thread count agrees on -- then migrates
  // ownership serially before this adaptation's rebuild re-establishes the
  // migrated grid contributions at their new shards. The first adaptation
  // is skipped (no merged occupancy yet).
  const int64_t completed = adaptations_++;
  if (rebalance_stride_ > 0 && num_shards() > 1 && completed > 0 &&
      completed % rebalance_stride_ == 0) {
    telemetry::ScopedSpan rebalance_span(config_.trace, driver_lane(),
                                         "cluster.rebalance", tick_, -1,
                                         time_);
    MaybeRebalance();
    rebalance_span.set_value(static_cast<double>(shard_map_.epoch()));
  }
}

ServerPipeline::QueueWindow ServerCluster::TakeQueueWindow() {
  QueueWindow window;
  for (Shard& shard : shards_) {
    window.arrivals += shard.ingest.queue().window_arrivals();
    window.dropped += shard.ingest.queue().window_dropped();
    shard.ingest.ResetWindow();
  }
  return window;
}

Status ServerCluster::RebuildNodeStats() {
  telemetry::TelemetrySink* t = config_.telemetry;
  telemetry::TraceRecorder* tr = config_.trace;
  // Per-shard rebuilds run in parallel (disjoint grids and trackers,
  // disjoint trace lanes), then the coordinator merges in shard order:
  // integer accumulators make the merged grid bitwise equal to a single
  // grid fed the same observations, independent of thread count.
  pool_.ParallelFor(
      0, num_shards(), 1, [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
        for (int64_t k = begin; k < end; ++k) {
          const auto shard_id = static_cast<int32_t>(k);
          telemetry::ScopedSpan span(
              tr,
              tr != nullptr
                  ? tr->lane(telemetry::TraceRecorder::LaneForShard(shard_id))
                  : nullptr,
              "stats.rebuild", tick_, shard_id, time_);
          shards_[k].stats.RebuildNodes(shards_[k].tracker.tracker(), time_);
          span.set_value(shards_[k].stats.grid().TotalNodes());
        }
      });
  telemetry::ScopedSpan merge_span(tr, driver_lane(), "stats.merge", tick_, -1,
                                   time_);
  telemetry::ScopedTimer merge_timer(t, "lira.adapt.merge_seconds", time_);
  // Column-partitioned tree reduction over the shard grids' integer node
  // accumulators (AssignNodeSum); integer addition keeps the result bitwise
  // identical to a serial per-shard Merge. Query counts stay untouched:
  // shard grids never count queries (the merged stage owns them).
  std::vector<const StatisticsGrid*> parts;
  parts.reserve(static_cast<size_t>(num_shards()));
  for (int32_t k = 0; k < num_shards(); ++k) {
    parts.push_back(&shards_[k].stats.grid());
    if (t != nullptr) {
      shard_nodes_gauges_[k]->Set(shards_[k].stats.grid().TotalNodes());
    }
  }
  LIRA_RETURN_IF_ERROR(stats_.mutable_grid()->AssignNodeSum(parts, &pool_));
  merge_span.set_value(stats_.grid().TotalNodes());
  return OkStatus();
}

double ServerCluster::SpanImbalance(
    const std::vector<int64_t>& column_load) const {
  int64_t total = 0;
  int64_t max_span = 0;
  for (int32_t k = 0; k < num_shards(); ++k) {
    int64_t span = 0;
    for (int32_t c = shard_map_.ColumnBegin(k); c < shard_map_.ColumnEnd(k);
         ++c) {
      span += column_load[c];
    }
    total += span;
    max_span = std::max(max_span, span);
  }
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(max_span) * num_shards() /
         static_cast<double>(total);
}

void ServerCluster::MaybeRebalance() {
  std::vector<int64_t> column_load;
  stats_.grid().ColumnNodeCounts(&column_load);
  const double before = SpanImbalance(column_load);
  const int32_t moved =
      shard_map_.Rebalance(column_load, rebalance_max_moves_);
  if (moved == 0) {
    return;
  }
  const double after = SpanImbalance(column_load);
  const int64_t migrated = MigrateOwnership();
  ++rebalances_;
  nodes_migrated_ += migrated;
  RebuildSubQueries();
  if (config_.telemetry != nullptr) {
    rebalance_epochs_counter_->Increment(1);
    rebalance_columns_counter_->Increment(moved);
    rebalance_migrated_counter_->Increment(migrated);
    config_.telemetry->Emit(
        telemetry::EventKind::kCounter, "lira.cluster.rebalance", time_,
        static_cast<double>(moved), static_cast<double>(migrated));
  }
  if (config_.flight_recorder != nullptr) {
    telemetry::RebalanceRecord record;
    record.tick = tick_;
    record.time = time_;
    record.epoch = shard_map_.epoch();
    record.columns_moved = moved;
    record.nodes_migrated = migrated;
    record.imbalance_before = before;
    record.imbalance_after = after;
    config_.flight_recorder->RecordRebalance(record);
  }
}

int64_t ServerCluster::MigrateOwnership() {
  // Serial, ascending node id: the same ForgetNode + Forget handoff path
  // the per-tick ownership transfers use, so grids stay exactly a union of
  // owned cells and Merge stays integer-exact across epochs. The adopting
  // tracker restores the model without counting it as an applied update;
  // its grid contribution is re-established by this adaptation's rebuild.
  int64_t migrated = 0;
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    const int32_t previous = owner_of_[id];
    if (previous < 0) {
      continue;
    }
    const auto model = shards_[previous].tracker.ModelOf(id);
    if (!model.has_value()) {
      continue;
    }
    const int32_t next = shard_map_.ShardFor(model->origin);
    if (next == previous) {
      continue;
    }
    shards_[previous].stats.ForgetNode(id);
    shards_[previous].tracker.Forget(id);
    shards_[next].tracker.Adopt(ModelUpdate{id, *model});
    owner_of_[id] = next;
    ++migrated;
  }
  return migrated;
}

ClusterHealth ServerCluster::HealthSnapshot() const {
  ClusterHealth health;
  health.time = time_;
  health.tick = tick_;
  health.num_shards = num_shards();
  health.z = optimizer_.z();
  // Ownership counts come from the live owner map (always current, unlike
  // the per-shard grids which refresh only at adaptations).
  std::vector<int64_t> owned(static_cast<size_t>(num_shards()), 0);
  for (const int32_t owner : owner_of_) {
    if (owner >= 0) {
      ++owned[static_cast<size_t>(owner)];
    }
  }
  health.map_epoch = shard_map_.epoch();
  health.rebalances = rebalances_;
  health.nodes_migrated = nodes_migrated_;
  health.shards.reserve(owned.size());
  for (int32_t k = 0; k < num_shards(); ++k) {
    ShardHealth shard;
    shard.shard = k;
    shard.nodes_owned = owned[static_cast<size_t>(k)];
    shard.queue_depth =
        static_cast<int64_t>(shards_[k].ingest.queue().size());
    shard.queue_arrivals = shards_[k].ingest.queue().total_arrivals();
    shard.queue_dropped = shards_[k].ingest.queue().total_dropped();
    shard.tracker_bytes =
        static_cast<int64_t>(shards_[k].tracker.tracker().MemoryBytes());
    shard.col_begin = shard_map_.ColumnBegin(k);
    shard.col_end = shard_map_.ColumnEnd(k);
    health.shards.push_back(shard);
    health.total_nodes += shard.nodes_owned;
    health.max_shard_nodes =
        std::max(health.max_shard_nodes, shard.nodes_owned);
    health.tracker_bytes += shard.tracker_bytes;
  }
  health.bytes_per_node =
      static_cast<double>(health.tracker_bytes) /
      std::max<int32_t>(1, config_.num_nodes);
  health.mean_shard_nodes =
      static_cast<double>(health.total_nodes) / num_shards();
  health.imbalance_ratio =
      health.mean_shard_nodes > 0.0
          ? static_cast<double>(health.max_shard_nodes) /
                health.mean_shard_nodes
          : 0.0;
  return health;
}

std::optional<Point> ServerCluster::BelievedPositionAt(NodeId id,
                                                       double t) const {
  if (id < 0 || id >= config_.num_nodes) {
    return std::nullopt;
  }
  const int32_t owner = owner_of_[id];
  if (owner < 0) {
    return std::nullopt;
  }
  return shards_[owner].tracker.tracker().PredictAt(id, t);
}

size_t ServerCluster::queue_size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.ingest.queue().size();
  }
  return total;
}

int64_t ServerCluster::queue_arrivals() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.ingest.queue().total_arrivals();
  }
  return total;
}

int64_t ServerCluster::queue_dropped() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.ingest.queue().total_dropped();
  }
  return total;
}

int64_t ServerCluster::updates_applied() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.tracker.updates_applied();
  }
  return total;
}

bool ServerCluster::ClipIsExact(int32_t shard, const Rect& bounds) const {
  // The clipped sub-query is exact iff every believed position the shard's
  // tree can report lies inside the margin-expanded strip: min edges may
  // touch (Rect::Contains is closed below), max edges must stay strictly
  // inside (a position exactly on the expanded strip's half-open max edge
  // would escape the clipped rect). The root TPBR conservatively bounds
  // every indexed position, so this check is sufficient; when a node has
  // drifted further than the margin, the caller falls back to the full
  // range -- correctness never depends on the margin being large enough.
  const Rect expanded = ExpandedStrip(shard);
  return bounds.min_x >= expanded.min_x && bounds.min_y >= expanded.min_y &&
         bounds.max_x < expanded.max_x && bounds.max_y < expanded.max_y;
}

Status ServerCluster::AppendShardRange(
    int32_t shard, const Rect& eval, double t,
    std::vector<std::vector<NodeId>>* lists) const {
  auto ids = shards_[shard].tracker.RangeAt(eval, t);
  if (!ids.ok()) {
    return ids.status();
  }
  std::vector<NodeId> owned;
  owned.reserve(ids->size());
  for (const NodeId id : *ids) {
    // A shard's index may briefly retain a handed-off node; ownership
    // filtering keeps every id at exactly one shard, making the per-shard
    // lists disjoint and the union merge duplicate-free.
    if (owner_of_[id] == shard) {
      owned.push_back(id);
    }
  }
  std::sort(owned.begin(), owned.end());
  lists->push_back(std::move(owned));
  return OkStatus();
}

StatusOr<std::vector<NodeId>> ServerCluster::AnswerRange(const Rect& range,
                                                         double t) const {
  LIRA_RETURN_IF_ERROR(CheckSnapshotQuery(t));
  std::vector<std::vector<NodeId>> lists;
  lists.reserve(static_cast<size_t>(num_shards()));
  for (int32_t k = 0; k < num_shards(); ++k) {
    const auto bounds = shards_[k].tracker.BoundsAt(t);
    if (!bounds.has_value() || !range.IntersectsClosed(*bounds)) {
      continue;  // no indexed node of this shard can fall in the range
    }
    Rect eval = range;
    if (ClipIsExact(k, *bounds)) {
      const Rect expanded = ExpandedStrip(k);
      if (!range.IntersectsClosed(expanded)) {
        continue;  // all of k's nodes are inside the strip, away from range
      }
      eval = range.Intersection(expanded);
    }
    LIRA_RETURN_IF_ERROR(AppendShardRange(k, eval, t, &lists));
  }
  return MergeSortedUnion(lists);
}

StatusOr<std::vector<NodeId>> ServerCluster::AnswerQuery(
    QueryId query) const {
  LIRA_RETURN_IF_ERROR(CheckSnapshotQuery(time_));
  if (query < 0 || query >= queries_->size()) {
    return InvalidArgumentError("unknown query id: " +
                                std::to_string(query));
  }
  const Rect& range = queries_->Get(query).range;
  const double t = time_;
  std::vector<std::vector<NodeId>> lists;
  lists.reserve(static_cast<size_t>(num_shards()));
  for (int32_t k = 0; k < num_shards(); ++k) {
    const auto bounds = shards_[k].tracker.BoundsAt(t);
    if (!bounds.has_value() || !range.IntersectsClosed(*bounds)) {
      continue;
    }
    Rect eval = range;
    if (ClipIsExact(k, *bounds)) {
      // Shard-local evaluation through the installed sub-query: when the
      // query is not installed here, no in-strip node can match.
      const ShardSubQuery* sub = sub_queries_.Find(k, query);
      if (sub == nullptr) {
        continue;
      }
      eval = sub->clipped;
    }
    LIRA_RETURN_IF_ERROR(AppendShardRange(k, eval, t, &lists));
  }
  return MergeSortedUnion(lists);
}

std::optional<Point> ServerCluster::HistoricalPositionAt(NodeId id,
                                                         double t) const {
  if (!config_.record_history || id < 0 ||
      id >= config_.num_nodes) {
    return std::nullopt;
  }
  // The shard holding the freshest record at t has the model in force; a
  // node's reports land at whichever shard its region mapped to at the
  // time, so every visited shard holds a disjoint slice of its history.
  int32_t best_shard = -1;
  double best_t0 = 0.0;
  for (int32_t k = 0; k < num_shards(); ++k) {
    const auto t0 = shards_[k].tracker.history()->LastReportBefore(id, t);
    if (t0.has_value() && (best_shard < 0 || *t0 > best_t0)) {
      best_shard = k;
      best_t0 = *t0;
    }
  }
  if (best_shard < 0) {
    return std::nullopt;
  }
  return shards_[best_shard].tracker.history()->PositionAt(id, t);
}

std::vector<NodeId> ServerCluster::HistoricalRangeAt(const Rect& range,
                                                     double t) const {
  std::vector<NodeId> out;
  if (!config_.record_history) {
    return out;
  }
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    const auto position = HistoricalPositionAt(id, t);
    if (position.has_value() && range.Contains(*position)) {
      out.push_back(id);
    }
  }
  return out;
}

int64_t ServerCluster::history_bytes() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    const HistoryStore* store = shard.tracker.history();
    total += store != nullptr ? store->ApproxBytes() : 0;
  }
  return total;
}

}  // namespace lira
