// Pipeline stage 2: the server's belief state.
//
// Owns the PositionTracker (current motion model per node), the optional
// TPR-tree used for incremental range answering, and the optional
// HistoryStore retaining every applied model. One Apply call keeps all
// three consistent; Forget retracts a node's *current* model when its
// ownership migrates to another shard (the history is retained -- past
// answers stay valid at the shard that served them).

#ifndef LIRA_SERVER_TRACKER_STAGE_H_
#define LIRA_SERVER_TRACKER_STAGE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/index/tpr_tree.h"
#include "lira/mobility/position.h"
#include "lira/motion/dead_reckoning.h"
#include "lira/motion/linear_model.h"
#include "lira/server/history_store.h"

namespace lira {

/// Tracker + index + history, applied to in lock step. Not thread-safe;
/// distinct stages (cluster shards) are fully independent.
class TrackerStage {
 public:
  static StatusOr<TrackerStage> Create(int32_t num_nodes, bool maintain_index,
                                       bool record_history);

  /// Applies one surviving update to the tracker and, when enabled, the
  /// TPR-tree and the history store.
  void Apply(const ModelUpdate& update);

  /// Takes over a node migrating from another shard: reinstates its model
  /// in the tracker (without counting as a newly applied update), the
  /// TPR-tree, and the history store, so the adopting shard answers
  /// historical and current queries exactly as the previous owner would
  /// have. Counterpart of Forget on the losing shard.
  void Adopt(const ModelUpdate& update);

  /// Drops the node's current model from the tracker and the TPR-tree (the
  /// history keeps its records). Used on cross-shard handoff.
  void Forget(NodeId id);

  /// The node's current believed model; nullopt when it never reported here
  /// or was forgotten. The migration source for Adopt.
  std::optional<LinearMotionModel> ModelOf(NodeId id) const {
    return tracker_.ModelOf(id);
  }

  /// Conservative bounding box of every indexed node's believed position at
  /// time t from the TPR-tree root (nullopt when the stage tracks no
  /// nodes). Requires maintain_index. Lets the cluster prove a shard's
  /// whole population lies inside its strip before searching it with a
  /// range clipped to that strip (DESIGN.md §12).
  std::optional<Rect> BoundsAt(double t) const { return index_.BoundsAt(t); }

  /// Ids whose believed position at time t lies in `range`, from the
  /// TPR-tree. Requires maintain_index.
  StatusOr<std::vector<NodeId>> RangeAt(const Rect& range, double t) const;

  const PositionTracker& tracker() const { return tracker_; }
  bool maintain_index() const { return maintain_index_; }
  /// nullptr when record_history is off.
  const HistoryStore* history() const {
    return history_.has_value() ? &*history_ : nullptr;
  }
  int64_t updates_applied() const { return tracker_.updates_applied(); }

 private:
  TrackerStage(int32_t num_nodes, bool maintain_index, bool record_history,
               TprTree index);

  PositionTracker tracker_;
  TprTree index_;
  bool maintain_index_;
  std::optional<HistoryStore> history_;
};

}  // namespace lira

#endif  // LIRA_SERVER_TRACKER_STAGE_H_
