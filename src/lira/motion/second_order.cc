#include "lira/motion/second_order.h"

#include <cmath>

#include "lira/common/check.h"

namespace lira {

SecondOrderEncoder::SecondOrderEncoder(int32_t num_nodes,
                                       double accel_smoothing)
    : accel_smoothing_(accel_smoothing), models_(num_nodes) {
  LIRA_CHECK(num_nodes >= 0);
  LIRA_CHECK(accel_smoothing > 0.0 && accel_smoothing <= 1.0);
}

std::optional<SecondOrderUpdate> SecondOrderEncoder::Observe(
    const PositionSample& sample, double delta) {
  const NodeId id = sample.node_id;
  LIRA_DCHECK(id >= 0 && id < num_nodes());
  NodeState& state = models_[id];

  // Acceleration estimation from consecutive velocity observations.
  if (state.has_prev && sample.time > state.prev_time) {
    const double dt = sample.time - state.prev_time;
    const Vec2 instant = (sample.velocity - state.prev_velocity) * (1.0 / dt);
    state.accel_estimate =
        state.accel_estimate * (1.0 - accel_smoothing_) +
        instant * accel_smoothing_;
  }
  state.prev_velocity = sample.velocity;
  state.prev_time = sample.time;
  state.has_prev = true;

  bool send = !state.has_model;
  if (!send) {
    send = Distance(state.model.PredictAt(sample.time), sample.position) >
           delta;
  }
  if (!send) {
    return std::nullopt;
  }
  state.model.origin = sample.position;
  state.model.velocity = sample.velocity;
  state.model.acceleration = state.accel_estimate;
  state.model.t0 = sample.time;
  state.has_model = true;
  ++updates_emitted_;
  return SecondOrderUpdate{id, state.model};
}

SecondOrderTracker::SecondOrderTracker(int32_t num_nodes)
    : models_(num_nodes), has_model_(num_nodes, 0) {
  LIRA_CHECK(num_nodes >= 0);
}

void SecondOrderTracker::Apply(const SecondOrderUpdate& update) {
  LIRA_DCHECK(update.node_id >= 0 && update.node_id < num_nodes());
  models_[update.node_id] = update.model;
  has_model_[update.node_id] = 1;
}

std::optional<Point> SecondOrderTracker::PredictAt(NodeId id,
                                                   double t) const {
  if (id < 0 || id >= num_nodes() || !has_model_[id]) {
    return std::nullopt;
  }
  return models_[id].PredictAt(t);
}

StatusOr<double> MeasureSecondOrderUpdateRate(const Trace& trace,
                                              double delta) {
  if (!(std::isfinite(delta) && delta > 0.0)) {
    return InvalidArgumentError("delta must be finite and positive");
  }
  if (trace.num_frames() < 2) {
    return FailedPreconditionError("trace too short");
  }
  SecondOrderEncoder encoder(trace.num_nodes());
  for (NodeId id = 0; id < trace.num_nodes(); ++id) {
    encoder.Observe(trace.Sample(0, id), delta);
  }
  const int64_t initial = encoder.updates_emitted();
  for (int32_t f = 1; f < trace.num_frames(); ++f) {
    for (NodeId id = 0; id < trace.num_nodes(); ++id) {
      encoder.Observe(trace.Sample(f, id), delta);
    }
  }
  const double seconds = (trace.num_frames() - 1) * trace.dt();
  return static_cast<double>(encoder.updates_emitted() - initial) / seconds;
}

}  // namespace lira
