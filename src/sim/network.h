// Simulated network: point-to-point links with configurable latency (the
// paper's 5 ms LAN star topology, or 50 ms WAN links for §7.4). Counts
// messages and payload bytes for the §7.6 overhead report.
//
// Link latencies live in a dense (n+1)x(n+1) matrix indexed by node id
// (row/column 0 is the pseudo source node kInvalidId), so the per-message
// Latency() lookup on the data-plane hot path is one multiply and one load
// instead of a std::map walk.
//
// The network is built on the parallel engine and owns the node->shard map
// (nodes it has never been told about, and the pseudo source node
// kInvalidId, live on shard 0). Send takes one path at every shard count:
// it schedules same-shard traffic straight onto the destination shard's
// queue and hands cross-shard traffic to ParallelEngine::EnqueueRemote,
// tagging each delivery with its destination node so a re-balance can move
// it (SetShardMap).
// Per-shard "lanes" keep the traffic counters thread-local to the executing
// shard, so the parallel engine runs without locks.
//
// Dynamic topology: once a sharded network is frozen (Freeze, at Start) the
// immediate setter rejects edits (the parallel engine's lookahead is
// derived from the topology; mutating it under a running epoch would let
// messages undercut the epoch width). Instead, edits go through the
// mutation queue (QueueSetLatency) and are applied in FIFO order by
// ApplyQueuedMutations(), which the federation layer calls at an epoch
// boundary — between engine runs, with every shard clock synchronized —
// before re-deriving the conservative lookahead. Each queued edit updates
// the dense matrix incrementally (two cells, plus growth when a new node id
// appears); the matrix is never rebuilt from scratch.
#ifndef THEMIS_SIM_NETWORK_H_
#define THEMIS_SIM_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/function.h"
#include "common/status.h"
#include "common/time_types.h"
#include "runtime/ids.h"
#include "sim/parallel_engine.h"

namespace themis {

/// \brief Latency-modelled message delivery between FSPS nodes.
class Network {
 public:
  /// \param engine engine whose shard queues deliver the messages
  /// \param default_latency link latency when no override is set
  explicit Network(ParallelEngine* engine,
                   SimDuration default_latency = Millis(5));

  /// Overrides the latency of the (a, b) link, both directions. A sharded
  /// network's topology is frozen by Freeze() — late edits return
  /// FailedPrecondition instead of applying; queue them (QueueSetLatency)
  /// to defer them to the next epoch boundary.
  Status SetLatency(NodeId a, NodeId b, SimDuration latency);

  /// Defers a link-latency edit to the next ApplyQueuedMutations() call.
  /// Legal at any time, sharded or not; edits apply in FIFO order.
  void QueueSetLatency(NodeId a, NodeId b, SimDuration latency);
  /// Applies every queued edit and returns how many were applied. On a
  /// frozen network this must only run at an epoch boundary (between
  /// engine runs), and the caller must re-derive the engine lookahead from
  /// MinCrossShardLatency afterwards before resuming.
  size_t ApplyQueuedMutations();
  bool has_queued_mutations() const { return !pending_.empty(); }

  SimDuration Latency(NodeId a, NodeId b) const {
    if (a == b) return 0;
    size_t ia = Index(a), ib = Index(b);
    if (ia < dim_ && ib < dim_) {
      SimDuration v = matrix_[ia * dim_ + ib];
      if (v != kNoOverride) return v;
    }
    return default_latency_;
  }

  /// Minimum base latency over node pairs assigned to different shards in
  /// `shard_of_node` (indexed by NodeId, covering all nodes); this is the
  /// safe conservative lookahead for a sharded run. Returns -1 when no pair
  /// crosses shards.
  ///
  /// `alive`, when non-empty (indexed by NodeId like `shard_of_node`),
  /// restricts the scan to pairs of live nodes: links touching a crashed
  /// node carry no future traffic, so they must not narrow the epoch.
  SimDuration MinCrossShardLatency(const std::vector<int>& shard_of_node,
                                   const std::vector<char>& alive = {}) const;

  /// Shard of node `id`: its entry in the map, or 0 beyond the map (and for
  /// the pseudo source node kInvalidId — Send substitutes the destination
  /// for kInvalidId senders, since source drivers are pinned to their
  /// destination node's shard).
  int ShardOf(NodeId id) const {
    if (id < 0 || static_cast<size_t>(id) >= shard_of_node_.size()) return 0;
    return shard_of_node_[id];
  }
  /// The node->shard map, indexed by NodeId.
  const std::vector<int>& shard_of_node() const { return shard_of_node_; }
  /// Places node `id` on `shard`, growing the map. Nodes join before
  /// Start or between engine runs.
  void AssignShard(NodeId id, int shard);
  /// Replaces the whole map (a re-balance, Fsps::RebalanceNow). Only legal
  /// between engine runs, where every shard clock is equal and the inbox
  /// rings are empty (the final epoch's merge runs before RunUntil
  /// returns). The per-shard lanes (traffic counters) stay.
  ///
  /// The migration rule: everything in flight keeps its deadline and moves
  /// to its node's new shard. This call moves the deliveries: every queued
  /// delivery whose destination node now maps to another shard leaves its
  /// queue (EventQueue::TakeIf on the destination tag Send attached) and
  /// is scheduled on the new shard's queue at its own deadline — source
  /// shards ascending, each shard's moved deliveries in (time, seq) order,
  /// so a moved run is as deterministic as any other. Timers move with
  /// their owners (Timer::MoveTo, sim/timer.h): Fsps::RebalanceNow moves
  /// the nodes' timers before this call and the coordinators' and source
  /// drivers' after it.
  void SetShardMap(std::vector<int> shard_of_node);
  /// Freezes the topology of a sharded network (see class comment); Fsps
  /// calls it at Start, when the engine's lookahead is first derived.
  void Freeze() { frozen_ = engine_->num_shards() > 1; }

  /// Delivers `on_delivery` at the destination after the link latency.
  /// `payload_bytes` only feeds the traffic statistics. The callback may own
  /// its payload (move-only): batches move through the network, not copy.
  /// Must be called from the thread currently running the sending entity's
  /// shard (`from`'s shard; source drivers use from == kInvalidId and run
  /// on the destination's shard).
  void Send(NodeId from, NodeId to, size_t payload_bytes,
            UniqueFunction on_delivery);

  uint64_t messages_sent() const;
  uint64_t bytes_sent() const;

 private:
  // kInvalidId (-1) maps to row/column 0; node i to i+1.
  static size_t Index(NodeId id) { return static_cast<size_t>(id + 1); }
  static constexpr SimDuration kNoOverride = INT64_MIN;

  /// One deferred link-latency edit.
  struct PendingMutation {
    NodeId a;
    NodeId b;
    SimDuration latency;
  };

  /// Grows the matrix to cover ids up to `need - 2` (index dimension
  /// `need`), preserving existing overrides.
  void EnsureDim(size_t need);
  /// Unconditional (freeze-exempt) matrix write shared by the immediate
  /// setter and the queue drain.
  void ApplyLatency(NodeId a, NodeId b, SimDuration latency);

  /// Per-shard mutable state, padded so two shards' counters never share a
  /// cache line.
  struct alignas(64) Lane {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  ParallelEngine* engine_;
  SimDuration default_latency_;
  std::vector<SimDuration> matrix_;  // dim_ x dim_, kNoOverride = default
  size_t dim_ = 0;
  std::vector<PendingMutation> pending_;
  std::vector<Lane> lanes_;  // one per shard
  std::vector<int> shard_of_node_;
  bool frozen_ = false;
};

}  // namespace themis

#endif  // THEMIS_SIM_NETWORK_H_
