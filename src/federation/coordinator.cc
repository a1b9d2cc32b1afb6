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
      network_(network),
      timer_(this, queue),
      tracker_(options.stw) {}

void QueryCoordinator::AddHost(NodeId node_id, Node* node) {
  hosts_[node_id] = node;
}

void QueryCoordinator::RemoveHost(NodeId node_id) { hosts_.erase(node_id); }

void QueryCoordinator::Start() {
  if (started_) return;
  started_ = true;
  if (options_.disseminate) {
    timer_.Arm(queue()->now() + options_.update_interval);
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
  return tracker_.QuerySic(queue()->now());
}

void QueryCoordinator::Disseminate() {
  if (stopped_) return;  // started after Stop(): do not reschedule
  double sic = CurrentSic();
  QueryId q = graph_->id();
  for (auto& [node_id, node] : hosts_) {
    network_->Send(home_, node_id, kUpdateMessageBytes,
                   [node, q, sic] { node->UpdateQuerySic(q, sic); });
  }
  timer_.Arm(queue()->now() + options_.update_interval);
}

}  // namespace themis
