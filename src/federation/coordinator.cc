#include "federation/coordinator.h"

namespace themis {

namespace {

// Wire size of one updateSIC(Q) message (§7.6 reports 30 bytes).
constexpr size_t kUpdateMessageBytes = 30;

}  // namespace

QueryCoordinator::QueryCoordinator(const QueryGraph* graph, Options options,
                                   EventQueue* queue, Network* network)
    : graph_(graph),
      options_(options),
      queue_(queue),
      network_(network),
      tracker_(options.stw) {}

void QueryCoordinator::AddHost(NodeId node_id, Node* node) {
  hosts_[node_id] = node;
}

void QueryCoordinator::RemoveHost(NodeId node_id) { hosts_.erase(node_id); }

void QueryCoordinator::ArmDisseminate(SimTime at) {
  next_disseminate_at_ = at;
  queue_->Schedule(at, [this, gen = generation_] { Disseminate(gen); });
}

void QueryCoordinator::Start() {
  if (started_) return;
  started_ = true;
  if (options_.disseminate) {
    ArmDisseminate(queue_->now() + options_.update_interval);
  }
}

void QueryCoordinator::MigrateQueue(EventQueue* queue) {
  if (queue == queue_) return;
  queue_ = queue;
  ++generation_;  // neuter the tick still queued on the old shard
  if (started_ && !stopped_ && options_.disseminate) {
    ArmDisseminate(next_disseminate_at_);
  }
}

void QueryCoordinator::OnResult(SimTime now,
                                const std::vector<Tuple>& results) {
  if (stopped_) return;
  double sic = 0.0;
  for (const Tuple& t : results) sic += t.sic;
  tracker_.AddResultSic(now, sic);
  result_tuples_ += results.size();
  if (options_.record_results) {
    for (const Tuple& t : results) {
      results_.push_back({t.timestamp, t.sic, t.values});
    }
  }
}

double QueryCoordinator::CurrentSic() {
  return tracker_.QuerySic(queue_->now());
}

void QueryCoordinator::Disseminate(uint64_t gen) {
  if (gen != generation_) return;  // stale event from before a migration
  if (stopped_) return;  // do not reschedule: the query was undeployed
  double sic = CurrentSic();
  QueryId q = graph_->id();
  for (auto& [node_id, node] : hosts_) {
    network_->Send(home_, node_id, kUpdateMessageBytes,
                   [node, q, sic] { node->UpdateQuerySic(q, sic); });
  }
  ArmDisseminate(queue_->now() + options_.update_interval);
}

}  // namespace themis
