// Conservative parallel discrete-event engine: the one engine every
// federation runs on, at any shard count.
//
// The federation's nodes are partitioned across `shards` worker threads,
// each advancing its own EventQueue; a shard is that queue plus the
// entities pinned to it. Entities on one shard interact directly; entities
// on different shards interact only through Network::Send. Shards
// synchronize in barrier epochs whose width is the lookahead — the minimum
// cross-shard link latency (Fsps computes it from Network topology and the
// Network's node->shard map): any message sent during an epoch is
// delivered strictly after the epoch's end, so each shard can run one epoch
// without observing the others.
//
// Cross-shard sends enqueue into per-(from, to) shard-pair inbox rings
// (EnqueueRemote; each ring is written by exactly one worker, lock-free).
// At the epoch barrier every destination shard merges its incoming rings in
// the deterministic order (deliver_time, from_shard, ring_seq) and
// schedules them onto its queue, so results are bit-identical run-to-run at
// any fixed shard count. One shard bypasses the epoch machinery entirely:
// RunUntil is a plain EventQueue::RunUntil on the driver thread, which is
// how Fsps runs every single-shard federation.
//
// Bit-identity *across* shard counts is not part of the contract: it holds
// only where CI checks it (the static scale scenario, shards 1 vs 4).
// Between RunUntil calls the node->shard map may change; everything in
// flight then keeps its deadline and moves to its node's new shard (the
// migration rule, documented at Network::SetShardMap).
//
// Determinism argument, inductively over epochs: each shard's intra-epoch
// execution is a deterministic function of its queue contents; the rings it
// emits are therefore deterministic; and the merge order is a pure function
// of ring contents. Wall-clock interleaving of the workers never orders
// events, only the simulated-time epochs do.
#ifndef THEMIS_SIM_PARALLEL_ENGINE_H_
#define THEMIS_SIM_PARALLEL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/function.h"
#include "common/time_types.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"

namespace themis {

/// \brief Sharded barrier-epoch engine (see file comment): one or more
/// EventQueue shards advanced together to a common target time.
class ParallelEngine {
 public:
  /// \param shards number of worker shards (>= 1)
  explicit ParallelEngine(int shards);
  ~ParallelEngine();

  int num_shards() const { return static_cast<int>(queues_.size()); }
  /// The event queue of `shard` (0 <= shard < num_shards()). Entities pinned
  /// to a shard schedule their callbacks on its queue.
  EventQueue* queue(int shard) { return queues_[shard].get(); }

  /// Sets the epoch width: the conservative lookahead (minimum cross-shard
  /// link latency). Must be > 0 when cross-shard traffic exists (a
  /// zero-latency cross-shard link admits no conservative parallel
  /// schedule); <= 0 declares "no cross-shard traffic" and runs each shard
  /// to the target in one stretch. May be called again between RunUntil
  /// calls (epoch boundaries) after a topology mutation re-derives the
  /// minimum cross-shard latency.
  void SetLookahead(SimDuration lookahead) {
    lookahead_ = lookahead;
    if (telemetry::Telemetry* tel = telemetry::Get()) {
      tel->metrics()
          .GetGauge("infra.parsim.lookahead_us")
          ->Set(static_cast<double>(lookahead));
    }
  }
  /// Current epoch width; -1 until SetLookahead is called.
  SimDuration lookahead() const { return lookahead_; }

  /// Advances every shard to simulated time `t` (inclusive: events at `t`
  /// run; equal-time events run in FIFO order). Returns with all shard
  /// clocks equal to `t` and all cross-shard inboxes drained. Only the
  /// driver thread may call this; observation and control-plane mutation
  /// (deploy/undeploy, TopologyPlan) are only legal between calls.
  void RunUntil(SimTime t);
  /// Common simulated time of all shards (between RunUntil calls).
  SimTime now() const { return now_; }
  /// Total events executed across all shards (diagnostics).
  uint64_t executed() const;

  /// Buffers a delivery for `to_shard` at simulated time `deliver_time` in
  /// the (from_shard, to_shard) inbox ring; it merges into `to_shard`'s
  /// queue at the next epoch barrier, scheduled with `tag` (the destination
  /// node; see EventQueue::Schedule). Must be called from the thread
  /// currently running `from_shard` (Network::Send does).
  void EnqueueRemote(int from_shard, int to_shard, SimTime deliver_time,
                     int32_t tag, UniqueFunction cb);

 private:
  /// One buffered cross-shard delivery. Ring order encodes the send order
  /// within (epoch, from_shard), which the merge sort preserves for equal
  /// delivery times (stable sort over the time key).
  struct Pending {
    SimTime time;
    int32_t tag;
    UniqueFunction cb;
  };

  /// A shard-pair inbox ring, padded so rings written by different workers
  /// never share a cache line.
  struct alignas(64) Ring {
    std::vector<Pending> items;
  };

  /// Per-destination merge buffer, padded for the same reason: all
  /// destinations merge concurrently during the barrier's merge phase.
  struct alignas(64) MergeScratch {
    std::vector<Pending> items;
  };

  /// Merges rings_[* -> shard] into queues_[shard] in deterministic order.
  void MergeInbox(int shard);

  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<Ring> rings_;          // [from * shards + to]
  std::vector<MergeScratch> scratch_;
  SimDuration lookahead_ = -1;
  SimTime now_ = 0;
};

}  // namespace themis

#endif  // THEMIS_SIM_PARALLEL_ENGINE_H_
