// Pipeline stage 1: bounded-queue admission and rate-paced service.
//
// Owns the UpdateQueue (random-order admission, drop accounting, windowed
// rate measurement for THROTLOOP) plus the fractional service credit that
// converts a continuous service rate into whole updates per tick. The stage
// also owns the `<prefix>.queue.*` counters and gauges so shards of a
// ServerCluster report under their own `lira.shard<k>` namespace. It emits
// no events: Receive returns the drop count and the owning ServerPipeline
// emits the one overflow event per batch (cluster shards admit
// concurrently, and EventSink implementations are single-threaded).

#ifndef LIRA_SERVER_INGEST_STAGE_H_
#define LIRA_SERVER_INGEST_STAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lira/common/status.h"
#include "lira/motion/linear_model.h"
#include "lira/server/update_queue.h"
#include "lira/telemetry/telemetry.h"

namespace lira {

struct IngestStageConfig {
  /// Input queue capacity B.
  size_t queue_capacity = 500;
  /// Service rate mu, updates/second.
  double service_rate = 1000.0;
  /// Seed of the queue's admission shuffle.
  uint64_t seed = 1234;
  /// Instrument namespace: "<metric_prefix>.queue.*". The facade server
  /// uses "lira"; cluster shard k uses "lira.shard<k>".
  std::string metric_prefix = "lira";
  /// Optional telemetry (not owned; must outlive the stage).
  telemetry::TelemetrySink* telemetry = nullptr;
};

/// Admission + service pacing. Not thread-safe; distinct stages are
/// independent (per-shard instruments are distinct registry entries).
class IngestStage {
 public:
  static StatusOr<IngestStage> Create(const IngestStageConfig& config);

  /// Admits one tick's batch, consuming `*updates` in place (shuffled,
  /// elements moved from). Returns how many were dropped.
  int64_t Receive(std::vector<ModelUpdate>* updates);

  /// Advances the service clock by dt seconds and dequeues the updates the
  /// service rate affords (FIFO order; fractional capacity carries over).
  std::vector<ModelUpdate> Service(double dt);

  /// Resets the queue's THROTLOOP measurement window.
  void ResetWindow() { queue_.ResetWindow(); }

  const UpdateQueue& queue() const { return queue_; }
  double service_rate() const { return service_rate_; }

 private:
  IngestStage(const IngestStageConfig& config, UpdateQueue queue);

  UpdateQueue queue_;
  double service_rate_;
  double service_credit_ = 0.0;
  /// Instruments resolved once at construction (registry lookups are map
  /// accesses; Receive runs every tick). Null when telemetry is off.
  telemetry::Counter* arrivals_counter_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Gauge* depth_gauge_ = nullptr;
  telemetry::Gauge* high_watermark_gauge_ = nullptr;
};

}  // namespace lira

#endif  // LIRA_SERVER_INGEST_STAGE_H_
