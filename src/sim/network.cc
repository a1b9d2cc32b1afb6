#include "sim/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace themis {

Network::Network(ParallelEngine* engine, SimDuration default_latency)
    : engine_(engine),
      default_latency_(default_latency),
      lanes_(engine->num_shards()) {}

void Network::EnsureDim(size_t need) {
  if (need <= dim_) return;
  size_t new_dim = std::max<size_t>(std::max(need, dim_ * 2), 8);
  std::vector<SimDuration> grown(new_dim * new_dim, kNoOverride);
  for (size_t a = 0; a < dim_; ++a) {
    for (size_t b = 0; b < dim_; ++b) {
      grown[a * new_dim + b] = matrix_[a * dim_ + b];
    }
  }
  matrix_ = std::move(grown);
  dim_ = new_dim;
}

void Network::ApplyLatency(NodeId a, NodeId b, SimDuration latency) {
  size_t ia = Index(a), ib = Index(b);
  EnsureDim(std::max(ia, ib) + 1);
  matrix_[ia * dim_ + ib] = latency;
  matrix_[ib * dim_ + ia] = latency;
}

Status Network::SetLatency(NodeId a, NodeId b, SimDuration latency) {
  if (frozen_) {
    return Status::FailedPrecondition(
        "topology frozen on a sharded network; queue the edit "
        "(QueueSetLatency) for the next epoch boundary instead");
  }
  ApplyLatency(a, b, latency);
  return Status::OK();
}

void Network::QueueSetLatency(NodeId a, NodeId b, SimDuration latency) {
  pending_.push_back({a, b, latency});
}

size_t Network::ApplyQueuedMutations() {
  size_t applied = pending_.size();
  for (const PendingMutation& m : pending_) {
    ApplyLatency(m.a, m.b, m.latency);
  }
  pending_.clear();
  return applied;
}

SimDuration Network::MinCrossShardLatency(
    const std::vector<int>& shard_of_node,
    const std::vector<char>& alive) const {
  SimDuration min_latency = -1;
  size_t n = shard_of_node.size();
  auto is_alive = [&alive](size_t node) {
    return alive.empty() || (node < alive.size() && alive[node] != 0);
  };
  for (size_t a = 0; a + 1 < n; ++a) {
    if (!is_alive(a)) continue;
    for (size_t b = a + 1; b < n; ++b) {
      if (shard_of_node[a] == shard_of_node[b] || !is_alive(b)) continue;
      SimDuration lat = Latency(static_cast<NodeId>(a), static_cast<NodeId>(b));
      if (min_latency < 0 || lat < min_latency) min_latency = lat;
    }
  }
  return min_latency;
}

void Network::AssignShard(NodeId id, int shard) {
  if (static_cast<size_t>(id) >= shard_of_node_.size()) {
    shard_of_node_.resize(id + 1, 0);
  }
  shard_of_node_[id] = shard;
}

void Network::SetShardMap(std::vector<int> shard_of_node) {
  shard_of_node_ = std::move(shard_of_node);
  // The migration rule for deliveries (see the header): a delivery queued
  // on shard s whose destination now lives elsewhere moves there.
  std::vector<EventQueue::Taken> moved;
  for (int s = 0; s < engine_->num_shards(); ++s) {
    engine_->queue(s)->TakeIf(
        [this, s](int32_t node) { return ShardOf(node) != s; }, &moved);
    for (EventQueue::Taken& ev : moved) {
      engine_->queue(ShardOf(ev.tag))
          ->Schedule(ev.time, std::move(ev.cb), ev.tag);
    }
    moved.clear();
  }
}

uint64_t Network::messages_sent() const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.messages;
  return total;
}

uint64_t Network::bytes_sent() const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.bytes;
  return total;
}

void Network::Send(NodeId from, NodeId to, size_t payload_bytes,
                   UniqueFunction on_delivery) {
  // The executing shard: `from`'s, except for the pseudo source node
  // (kInvalidId), whose drivers are pinned to the destination's shard.
  int shard = ShardOf(from != kInvalidId ? from : to);
  Lane& lane = lanes_[shard];
  ++lane.messages;
  lane.bytes += payload_bytes;
  SimTime deliver = engine_->queue(shard)->now() +
                    std::max<SimDuration>(Latency(from, to), 0);
  int dest_shard = ShardOf(to);
  if (dest_shard == shard) {
    engine_->queue(dest_shard)->Schedule(deliver, std::move(on_delivery), to);
  } else {
    engine_->EnqueueRemote(shard, dest_shard, deliver, to,
                           std::move(on_delivery));
  }
}

}  // namespace themis
