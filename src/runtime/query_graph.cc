#include "runtime/query_graph.h"

#include <algorithm>
#include <set>

namespace themis {

const std::vector<OperatorId>& QueryGraph::fragment_ops(FragmentId frag) const {
  static const std::vector<OperatorId> kEmpty;
  auto it = fragments_.find(frag);
  return it == fragments_.end() ? kEmpty : it->second;
}

std::vector<FragmentId> QueryGraph::fragment_ids() const {
  std::vector<FragmentId> ids;
  ids.reserve(fragments_.size());
  for (const auto& [frag, ops] : fragments_) ids.push_back(frag);
  return ids;
}

std::vector<OperatorId> QueryGraph::FragmentIngressOps(FragmentId frag) const {
  std::set<OperatorId> ingress;
  for (const SourceBinding& sb : sources_) {
    if (fragment_of(sb.target) == frag) ingress.insert(sb.target);
  }
  for (size_t from = 0; from < out_edges_.size(); ++from) {
    for (const Edge& e : out_edges_[from]) {
      if (fragment_of(e.to) == frag &&
          fragment_of(static_cast<OperatorId>(from)) != frag) {
        ingress.insert(e.to);
      }
    }
  }
  return std::vector<OperatorId>(ingress.begin(), ingress.end());
}

QueryBuilder::QueryBuilder(QueryId id, std::string label)
    : graph_(new QueryGraph()) {
  graph_->id_ = id;
  graph_->label_ = std::move(label);
}

OperatorId QueryBuilder::Add(std::unique_ptr<Operator> op,
                             FragmentId fragment) {
  OperatorId id = static_cast<OperatorId>(graph_->ops_.size());
  op->set_id(id);
  graph_->ops_.push_back(std::move(op));
  graph_->out_edges_.emplace_back();
  graph_->op_fragment_.push_back(fragment);
  return id;
}

QueryBuilder& QueryBuilder::Connect(OperatorId from, OperatorId to, int port) {
  size_t n = graph_->ops_.size();
  if (from < 0 || to < 0 || static_cast<size_t>(from) >= n ||
      static_cast<size_t>(to) >= n) {
    deferred_error_ =
        Status::InvalidArgument("Connect: operator id out of range");
    return *this;
  }
  if (port < 0 || port >= graph_->ops_[to]->num_ports()) {
    deferred_error_ = Status::InvalidArgument("Connect: bad input port");
    return *this;
  }
  graph_->out_edges_[from].push_back({from, to, port});
  return *this;
}

QueryBuilder& QueryBuilder::BindSource(SourceId source, OperatorId target,
                                       int port) {
  if (target < 0 || static_cast<size_t>(target) >= graph_->ops_.size()) {
    deferred_error_ =
        Status::InvalidArgument("BindSource: bad target operator");
    return *this;
  }
  graph_->sources_.push_back({source, target, port});
  return *this;
}

QueryBuilder& QueryBuilder::SetRoot(OperatorId root) {
  graph_->root_ = root;
  return *this;
}

Result<std::unique_ptr<QueryGraph>> QueryBuilder::Build() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (!graph_ || graph_->ops_.empty()) {
    return Status::InvalidArgument("query has no operators");
  }
  if (graph_->root_ < 0 ||
      static_cast<size_t>(graph_->root_) >= graph_->ops_.size()) {
    return Status::InvalidArgument("query root not set");
  }
  // Query and fragment ids index dense per-query and per-fragment tables.
  if (graph_->id_ < 0) {
    return Status::InvalidArgument("negative query id " +
                                   std::to_string(graph_->id_));
  }
  for (FragmentId frag : graph_->op_fragment_) {
    if (frag < 0) {
      return Status::InvalidArgument("negative fragment id " +
                                     std::to_string(frag));
    }
  }

  // Kahn's algorithm: topological order + cycle detection.
  size_t n = graph_->ops_.size();
  std::vector<int> in_degree(n, 0);
  for (const auto& edges : graph_->out_edges_) {
    for (const Edge& e : edges) ++in_degree[e.to];
  }
  std::vector<OperatorId> order;
  std::vector<OperatorId> frontier;
  for (size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) frontier.push_back(static_cast<OperatorId>(i));
  }
  while (!frontier.empty()) {
    OperatorId v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (const Edge& e : graph_->out_edges_[v]) {
      if (--in_degree[e.to] == 0) frontier.push_back(e.to);
    }
  }
  if (order.size() != n) {
    return Status::InvalidArgument("query graph has a cycle");
  }

  // Fragment operator lists in topological order.
  graph_->fragments_.clear();
  for (OperatorId id : order) {
    graph_->fragments_[graph_->op_fragment_[id]].push_back(id);
  }

  return std::move(graph_);
}

}  // namespace themis
