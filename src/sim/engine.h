// Shard vocabulary shared by the Network (themis_sim) and the parallel
// engine (src/parsim, themis_parsim), which partitions nodes across
// worker-thread shards synchronized in conservative barrier epochs. The
// engine itself lives in parsim, which depends on sim; these two types are
// what the Network needs to route deliveries without depending back.
//
//   * shard      — one EventQueue plus the entities pinned to it. Entities
//                  on the same shard may interact directly; entities on
//                  different shards may only interact through Network::Send,
//                  whose link latency bounds how far one shard can run ahead
//                  of another (the lookahead).
//   * ShardPlan  — the node->shard map plus per-shard queues and the
//                  cross-shard message sink, installed into the Network
//                  before the first run.
#ifndef THEMIS_SIM_ENGINE_H_
#define THEMIS_SIM_ENGINE_H_

#include <vector>

#include "common/function.h"
#include "common/time_types.h"
#include "runtime/ids.h"
#include "sim/event_queue.h"

namespace themis {

/// \brief Receiver of cross-shard messages (implemented by ParallelEngine).
///
/// A shard calling Network::Send with a destination on another shard hands
/// the delivery callback here instead of scheduling it directly; the engine
/// buffers it in a per-(from, to) shard-pair inbox ring and merges all rings
/// deterministically at the next epoch barrier.
class CrossShardSink {
 public:
  virtual ~CrossShardSink() = default;

  /// Buffers a delivery for `to_shard` at simulated time `deliver_time`.
  /// Must be called from the thread currently running `from_shard`.
  virtual void EnqueueRemote(int from_shard, int to_shard,
                             SimTime deliver_time, UniqueFunction cb) = 0;
};

/// \brief Node-to-shard assignment plus the per-shard delivery endpoints.
struct ShardPlan {
  /// Shard of each node, indexed by NodeId. Nodes beyond the vector (and
  /// the pseudo source node kInvalidId) resolve to shard 0 via ShardOf —
  /// callers that care (Network::Send) substitute the destination node for
  /// kInvalidId senders, since source drivers are pinned to their
  /// destination node's shard.
  std::vector<int> shard_of_node;
  /// Event queue of each shard (owned by the engine).
  std::vector<EventQueue*> queues;
  /// Cross-shard delivery sink; null when there is only one shard.
  CrossShardSink* sink = nullptr;

  int ShardOf(NodeId id) const {
    if (id < 0 || static_cast<size_t>(id) >= shard_of_node.size()) return 0;
    return shard_of_node[id];
  }
};

}  // namespace themis

#endif  // THEMIS_SIM_ENGINE_H_
