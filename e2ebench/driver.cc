#include "driver.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "lira/common/arena.h"
#include "lira/common/kernels.h"
#include "lira/common/node_store.h"
#include "lira/common/parallel.h"
#include "lira/cq/incremental_evaluator.h"
#include "lira/cq/workload.h"
#include "lira/mobility/traffic_model.h"
#include "lira/mobility/trip_model.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/update_reduction.h"
#include "lira/roadnet/map_generator.h"
#include "lira/server/cq_server.h"
#include "lira/server/server_cluster.h"
#include "lira/server/server_pipeline.h"
#include "lira/sim/metrics.h"

namespace e2e {

using lira::NodeId;
using lira::Status;
using lira::StatusOr;
using lira::telemetry::ScopedSpan;
using lira::telemetry::TraceLane;
using lira::telemetry::TraceRecorder;
using Clock = std::chrono::steady_clock;

namespace {

int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

TraceLane* LaneOf(TraceRecorder* trace, int32_t index) {
  return trace != nullptr ? trace->lane(index) : nullptr;
}

template <typename Model, typename ModelConfig>
StatusOr<lira::Trace> RecordTrace(const lira::WorldConfig& config,
                                  const lira::RoadNetwork& network) {
  ModelConfig traffic;
  traffic.num_vehicles = config.num_nodes;
  traffic.seed = config.seed * 2654435761ULL + 1;
  auto model = Model::Create(network, traffic);
  if (!model.ok()) {
    return model.status();
  }
  return lira::Trace::Record(*model, config.trace_frames, config.dt);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameRect(const lira::Rect& a, const lira::Rect& b) {
  return SameBits(a.min_x, b.min_x) && SameBits(a.min_y, b.min_y) &&
         SameBits(a.max_x, b.max_x) && SameBits(a.max_y, b.max_y);
}

}  // namespace

int32_t LanesFor(const lira::SimulationConfig& config) {
  const int32_t threads = config.threads > 0
                              ? config.threads
                              : lira::ThreadPool::DefaultThreads();
  return FirstWorkerLane(config) + threads;
}

// Mirrors lira::BuildWorld step for step; SameWorld proves it.
StatusOr<lira::World> BuildWorldByLayer(const lira::WorldConfig& config,
                                        TraceRecorder* trace) {
  if (config.query_node_ratio < 0.0) {
    return lira::InvalidArgumentError("query_node_ratio must be >= 0");
  }
  TraceLane* lane = LaneOf(trace, TraceRecorder::kDriverLane);
  ScopedSpan map_span(trace, lane, "roadnet.map", 0, -1, 0.0);
  auto map = lira::GenerateMap(config.map);
  map_span.Stop();
  if (!map.ok()) {
    return map.status();
  }

  ScopedSpan record_span(trace, lane, "mobility.record", 0, -1, 0.0);
  StatusOr<lira::Trace> recorded =
      config.mobility == lira::MobilityModel::kTrips
          ? RecordTrace<lira::TripTrafficModel, lira::TripModelConfig>(
                config, map->network)
          : RecordTrace<lira::TrafficModel, lira::TrafficModelConfig>(
                config, map->network);
  record_span.Stop();
  if (!recorded.ok()) {
    return recorded.status();
  }

  ScopedSpan calibrate_span(trace, lane, "motion.calibrate", 0, -1, 0.0);
  auto reduction = lira::CalibrateReduction(*recorded, config.calibration);
  calibrate_span.Stop();
  if (!reduction.ok()) {
    return reduction.status();
  }
  ScopedSpan rate_span(trace, lane, "motion.update_rate", 0, -1, 0.0);
  auto full_rate =
      lira::MeasureUpdateRate(*recorded, config.calibration.delta_min);
  rate_span.Stop();
  if (!full_rate.ok()) {
    return full_rate.status();
  }

  ScopedSpan queries_span(trace, lane, "cq.generate", 0, -1, 0.0);
  std::vector<lira::Point> density_positions;
  density_positions.reserve(recorded->num_nodes());
  for (NodeId id = 0; id < recorded->num_nodes(); ++id) {
    density_positions.push_back(recorded->Position(0, id));
  }
  lira::QueryWorkloadConfig workload;
  workload.num_queries = static_cast<int32_t>(
      std::lround(config.query_node_ratio * config.num_nodes));
  workload.side_length = config.query_side_length;
  workload.distribution = config.query_distribution;
  workload.seed = config.seed * 7046029254386353ULL + 5;
  auto queries =
      lira::GenerateQueries(workload, map->world, density_positions);
  queries_span.Stop();
  if (!queries.ok()) {
    return queries.status();
  }

  lira::World world{*std::move(map), *std::move(recorded),
                    *std::move(queries), *std::move(reduction), *full_rate};
  return world;
}

bool SameWorld(const lira::World& a, const lira::World& b, std::string* why) {
  const lira::Trace& ta = a.trace;
  const lira::Trace& tb = b.trace;
  if (ta.num_frames() != tb.num_frames() || ta.num_nodes() != tb.num_nodes() ||
      !SameBits(ta.dt(), tb.dt())) {
    *why = "world traces differ in shape";
    return false;
  }
  const size_t frame_bytes = 4 * sizeof(float) * ta.num_nodes();
  for (int32_t f = 0; f < ta.num_frames(); ++f) {
    if (std::memcmp(ta.FrameData(f), tb.FrameData(f), frame_bytes) != 0) {
      *why = "world traces differ at frame " + std::to_string(f);
      return false;
    }
  }
  const lira::PiecewiseLinearReduction& ra = a.reduction;
  const lira::PiecewiseLinearReduction& rb = b.reduction;
  if (ra.kappa() != rb.kappa() || !SameBits(ra.delta_min(), rb.delta_min()) ||
      !SameBits(ra.delta_max(), rb.delta_max()) ||
      !SameBits(ra.segment_width(), rb.segment_width())) {
    *why = "f(Delta) domains differ";
    return false;
  }
  for (int32_t k = 0; k <= ra.kappa(); ++k) {
    const double delta = ra.delta_min() + k * ra.segment_width();
    if (!SameBits(ra.Eval(delta), rb.Eval(delta))) {
      *why = "f(Delta) differs at knot " + std::to_string(k);
      return false;
    }
  }
  if (!SameBits(a.full_update_rate, b.full_update_rate)) {
    *why = "full update rates differ";
    return false;
  }
  if (!SameRect(a.world_rect(), b.world_rect()) ||
      a.queries.size() != b.queries.size()) {
    *why = "worlds differ in extent or query count";
    return false;
  }
  for (lira::QueryId q = 0; q < a.queries.size(); ++q) {
    if (!SameRect(a.queries.Get(q).range, b.queries.Get(q).range)) {
      *why = "query " + std::to_string(q) + " differs";
      return false;
    }
  }
  return true;
}

// Mirrors lira::RunSimulation for the configurations the benchmark uses
// (no history, no health export, no run-level telemetry); main.cc checks
// the result against RunSimulation bit for bit.
StatusOr<LoopRun> RunDriverLoop(const lira::World& world,
                                const lira::LoadSheddingPolicy& policy,
                                const lira::SimulationConfig& config,
                                TraceRecorder* trace,
                                lira::telemetry::TelemetrySink* telemetry) {
  const lira::Trace& frames = world.trace;
  if (config.warmup_frames < 0 ||
      config.warmup_frames >= frames.num_frames() || config.sample_every < 1 ||
      config.threads < 0 || config.shards < 0 ||
      config.rebalance_stride < 0 ||
      (config.rebalance_stride > 0 && config.shards == 0)) {
    return lira::InvalidArgumentError("invalid simulation config");
  }
  if (config.evaluate_history || !config.health_path.empty() ||
      config.telemetry != nullptr || config.trace != nullptr ||
      config.flight_recorder != nullptr) {
    return lira::InvalidArgumentError(
        "the driver loop replicates runs without history, health export or "
        "run-level instrumentation");
  }
  if (trace != nullptr && trace->num_lanes() < LanesFor(config)) {
    return lira::InvalidArgumentError("trace recorder has too few lanes");
  }

  lira::CqServerConfig server_config;
  server_config.num_nodes = world.num_nodes();
  server_config.world = world.world_rect();
  server_config.alpha = config.alpha;
  server_config.queue_capacity = config.queue_capacity;
  if (config.service_rate_override > 0.0) {
    server_config.service_rate = config.service_rate_override;
  } else if (policy.SheddingAtServer()) {
    server_config.service_rate = std::max(
        1.0, config.capacity_headroom * config.z * world.full_update_rate);
  } else {
    server_config.service_rate = std::max(1.0, 4.0 * world.full_update_rate);
  }
  server_config.adaptation_period = config.adaptation_period;
  server_config.auto_throttle = config.auto_throttle;
  server_config.fixed_z = config.z;
  server_config.record_history = false;
  server_config.stats_sample_fraction = config.stats_sample_fraction;
  server_config.incremental_stats = config.incremental;
  server_config.maintain_index = false;
  server_config.telemetry = telemetry;
  server_config.trace = trace;
  server_config.seed = config.seed;

  lira::ThreadPool pool(config.threads > 0
                            ? config.threads
                            : lira::ThreadPool::DefaultThreads());
  std::optional<lira::CqServer> single_server;
  std::unique_ptr<lira::ServerCluster> cluster;
  lira::ServerPipeline* server = nullptr;
  if (config.shards == 0) {
    server_config.pool = &pool;
    auto created = lira::CqServer::Create(server_config, &policy,
                                          &world.reduction, &world.queries);
    if (!created.ok()) {
      return created.status();
    }
    single_server.emplace(*std::move(created));
    server = &*single_server;
  } else {
    lira::ServerClusterConfig cluster_config;
    cluster_config.server = server_config;
    cluster_config.shards = config.shards;
    cluster_config.threads = config.threads;
    cluster_config.rebalance_stride = config.rebalance_stride;
    auto created = lira::ServerCluster::Create(
        cluster_config, &policy, &world.reduction, &world.queries);
    if (!created.ok()) {
      return created.status();
    }
    cluster = *std::move(created);
    server = cluster.get();
  }

  lira::DeadReckoningEncoder encoder(world.num_nodes());
  lira::DeadReckoningEncoder reference_encoder(world.num_nodes());
  lira::PositionTracker reference_tracker(world.num_nodes());
  lira::ErrorMetricsAccumulator metrics(world.queries.size());
  auto evaluator = lira::IncrementalEvaluator::Create(
      world.world_rect(), config.index_cells, world.num_nodes(),
      world.queries,
      config.incremental ? lira::EvalMode::kIncremental
                         : lira::EvalMode::kFullRescan);
  if (!evaluator.ok()) {
    return evaluator.status();
  }

  const int64_t num_nodes = world.num_nodes();
  constexpr int64_t kNodeGrain = 256;
  std::vector<std::vector<lira::ModelUpdate>> batch_scratch(
      pool.num_threads());
  std::vector<std::vector<lira::ModelUpdate>> reference_scratch(
      pool.num_threads());
  std::vector<lira::FrameArena> arenas(pool.num_threads());
  std::vector<lira::ModelUpdate> batch;
  lira::NodeStore store(static_cast<int32_t>(num_nodes));
  std::vector<double> eval_truth_x(num_nodes);
  std::vector<double> eval_truth_y(num_nodes);
  const double delta_min = world.reduction.delta_min();

  TraceLane* main_lane = LaneOf(trace, TraceRecorder::kDriverLane);
  std::vector<TraceLane*> worker_lanes(pool.num_threads());
  for (int32_t c = 0; c < pool.num_threads(); ++c) {
    worker_lanes[c] = LaneOf(trace, FirstWorkerLane(config) + c);
  }

  LoopRun run;
  run.frame_ns.reserve(frames.num_frames());
  int64_t measured_updates = 0;
  int64_t measured_frames = 0;
  run.loop_start_ns = trace != nullptr ? trace->NowNs() : 0;
  const Clock::time_point loop_start = Clock::now();

  for (int32_t frame = 0; frame < frames.num_frames(); ++frame) {
    const Clock::time_point frame_start = Clock::now();
    const double t = frames.TimeOf(frame);
    const lira::SheddingPlan& plan = server->plan();

    {
      ScopedSpan pass(trace, main_lane, kNodePass, frame, -1, t);
      for (std::vector<lira::ModelUpdate>& chunk_out : batch_scratch) {
        chunk_out.clear();
      }
      const float* frame_states = frames.FrameData(frame);
      pool.ParallelFor(
          0, num_nodes, kNodeGrain,
          [&](int32_t chunk, int64_t begin, int64_t end) {
            TraceLane* lane = worker_lanes[chunk];
            const int64_t len = end - begin;
            double* x = store.truth_x() + begin;
            double* y = store.truth_y() + begin;
            double* vx = store.vel_x() + begin;
            double* vy = store.vel_y() + begin;
            double* delta = store.delta() + begin;
            {
              ScopedSpan span(trace, lane, "mobility.unpack", frame, -1, t);
              lira::kernels::UnpackFrame(len, frame_states + 4 * begin, x, y,
                                         vx, vy);
            }
            {
              ScopedSpan span(trace, lane, "core.plan_lookup", frame, -1, t);
              plan.FillDeltas(len, x, y, delta);
            }
            lira::FrameArena& arena = arenas[chunk];
            arena.Reset();
            uint8_t* decision = arena.AllocSpan<uint8_t>(len);
            {
              ScopedSpan span(trace, lane, "motion.encode", frame, -1, t);
              encoder.ObserveSpan(static_cast<NodeId>(begin), len, x, y, vx,
                                  vy, t, delta, decision,
                                  &batch_scratch[chunk]);
            }
            ScopedSpan span(trace, lane, "sim.reference", frame, -1, t);
            std::vector<lira::ModelUpdate>& reference_out =
                reference_scratch[chunk];
            reference_out.clear();
            reference_encoder.ObserveSpanUniform(
                static_cast<NodeId>(begin), len, x, y, vx, vy, t, delta_min,
                decision, &reference_out);
            for (const lira::ModelUpdate& update : reference_out) {
              reference_tracker.Apply(update);
            }
          });
    }
    {
      ScopedSpan span(trace, main_lane, "sim.merge_batch", frame, -1, t);
      batch.clear();
      for (const std::vector<lira::ModelUpdate>& chunk_out : batch_scratch) {
        batch.insert(batch.end(), chunk_out.begin(), chunk_out.end());
      }
      if (frame >= config.warmup_frames) {
        measured_updates += static_cast<int64_t>(batch.size());
        ++measured_frames;
      }
    }
    {
      ScopedSpan span(trace, main_lane, "server.receive", frame, -1, t);
      server->ReceiveBatch(&batch);
    }
    {
      // Tick and adaptation share one call; the span is named after the
      // plan-build count, so a tick that adapted is recorded as an adapt.
      const int64_t builds_before = server->plan_builds();
      const int64_t start_ns = trace != nullptr ? trace->NowNs() : 0;
      const Clock::time_point tick_start = Clock::now();
      const Status ticked = server->Tick(frames.dt());
      const int64_t tick_ns = NsSince(tick_start);
      const bool adapted = server->plan_builds() != builds_before;
      (adapted ? run.adapt_ns : run.tick_ns).push_back(tick_ns);
      if (main_lane != nullptr) {
        main_lane->Record(adapted ? "server.adapt" : "server.tick", frame, -1,
                          t, start_ns, trace->NowNs() - start_ns);
      }
      if (!ticked.ok()) {
        return ticked;
      }
    }

    if (frame >= config.warmup_frames &&
        (frame - config.warmup_frames) % config.sample_every == 0) {
      {
        ScopedSpan pass(trace, main_lane, kSamplePass, frame, -1, t);
        pool.ParallelFor(
            0, num_nodes, kNodeGrain,
            [&](int32_t chunk, int64_t begin, int64_t end) {
              TraceLane* lane = worker_lanes[chunk];
              const int64_t len = end - begin;
              {
                ScopedSpan span(trace, lane, "sim.reference", frame, -1, t);
                reference_tracker.PredictSpan(
                    static_cast<NodeId>(begin), len, t,
                    store.truth_x() + begin, store.truth_y() + begin,
                    eval_truth_x.data() + begin, eval_truth_y.data() + begin,
                    /*known=*/nullptr);
              }
              ScopedSpan span(trace, lane, "server.fill_believed", frame, -1,
                              t);
              server->FillBelievedInto(static_cast<NodeId>(begin), len, t,
                                       store.believed_x() + begin,
                                       store.believed_y() + begin,
                                       store.believed_known() + begin);
            });
      }
      {
        ScopedSpan span(trace, main_lane, "cq.apply_sample", frame, -1, t);
        evaluator->ApplySample(eval_truth_x.data(), eval_truth_y.data(),
                               store.believed_x(), store.believed_y(),
                               store.believed_known(), &pool);
      }
      std::vector<lira::QueryAccuracy> accuracies;
      {
        ScopedSpan span(trace, main_lane, "cq.evaluate", frame, -1, t);
        accuracies = evaluator->Evaluate(&pool);
      }
      ScopedSpan span(trace, main_lane, "sim.accumulate", frame, -1, t);
      metrics.AddSample(accuracies);
      ++run.samples;
    }
    run.frame_ns.push_back(NsSince(frame_start));
  }
  run.loop_wall_ns = NsSince(loop_start);
  run.loop_end_ns = trace != nullptr ? trace->NowNs() : 0;

  lira::SimulationResult& result = run.result;
  result.metrics = metrics.Compute();
  result.final_z = server->z();
  result.updates_sent = encoder.updates_emitted();
  result.updates_dropped = server->queue_dropped();
  result.updates_applied = server->updates_applied();
  result.plan_builds = server->plan_builds();
  result.mean_plan_build_seconds =
      server->plan_builds() > 0
          ? server->total_plan_build_seconds() / server->plan_builds()
          : 0.0;
  result.final_plan_regions = server->plan().NumRegions();
  result.final_plan_min_delta = server->plan().MinDelta();
  result.final_plan_max_delta = server->plan().MaxDelta();
  if (measured_frames > 0 && world.full_update_rate > 0.0) {
    const double measured_rate =
        static_cast<double>(measured_updates) /
        (static_cast<double>(measured_frames) * frames.dt());
    result.measured_update_fraction = measured_rate / world.full_update_rate;
  }
  for (const lira::SheddingRegion& region : server->plan().regions()) {
    run.final_deltas.push_back(region.delta);
  }
  run.deltas_applied = evaluator->deltas_applied();
  run.queries_touched = evaluator->queries_touched();
  run.num_queries = world.queries.size();
  return run;
}

}  // namespace e2e
