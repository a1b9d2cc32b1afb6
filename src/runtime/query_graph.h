// Query graph model of §3: a query is a DAG of operators partitioned into
// fragments, each fragment deployed on a different FSPS node.
#ifndef THEMIS_RUNTIME_QUERY_GRAPH_H_
#define THEMIS_RUNTIME_QUERY_GRAPH_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/ids.h"
#include "runtime/operator.h"

namespace themis {

/// A directed edge in the query graph; `port` selects the input port at `to`.
struct Edge {
  OperatorId from = kInvalidId;
  OperatorId to = kInvalidId;
  int port = 0;
};

/// Binds an external source to the operator that receives its tuples.
struct SourceBinding {
  SourceId source = kInvalidId;
  OperatorId target = kInvalidId;
  int port = 0;
};

/// \brief A deployed query instance: operators (with state), edges, fragment
/// assignment, source bindings and the root operator.
///
/// Instances are created through QueryBuilder; the graph is immutable after
/// Build() but the contained operators are stateful.
class QueryGraph {
 public:
  QueryId id() const { return id_; }
  const std::string& label() const { return label_; }

  size_t num_operators() const { return ops_.size(); }
  size_t num_fragments() const { return fragments_.size(); }
  size_t num_sources() const { return sources_.size(); }

  // The three accessors below are on the per-batch hot path (ExecuteBatch /
  // RouteOutputs); they are defined inline for that reason.
  Operator* op(OperatorId id) const {
    if (id < 0 || static_cast<size_t>(id) >= ops_.size()) return nullptr;
    return ops_[id].get();
  }
  /// Edges leaving `id` (empty vector if none).
  const std::vector<Edge>& out_edges(OperatorId id) const {
    if (id < 0 || static_cast<size_t>(id) >= out_edges_.size()) {
      return no_edges_;
    }
    return out_edges_[id];
  }
  FragmentId fragment_of(OperatorId id) const {
    if (id < 0 || static_cast<size_t>(id) >= op_fragment_.size()) {
      return kInvalidId;
    }
    return op_fragment_[id];
  }
  /// Operator ids of one fragment, in topological order.
  const std::vector<OperatorId>& fragment_ops(FragmentId frag) const;
  /// All fragment ids, ascending.
  std::vector<FragmentId> fragment_ids() const;
  const std::vector<SourceBinding>& sources() const { return sources_; }
  OperatorId root() const { return root_; }
  FragmentId root_fragment() const { return fragment_of(root_); }

  /// Operators of `frag` whose inputs come from sources or other fragments.
  std::vector<OperatorId> FragmentIngressOps(FragmentId frag) const;

 private:
  friend class QueryBuilder;
  QueryGraph() = default;

  QueryId id_ = kInvalidId;
  std::string label_;
  std::vector<std::unique_ptr<Operator>> ops_;  // index == OperatorId
  std::vector<std::vector<Edge>> out_edges_;    // index == OperatorId
  std::vector<FragmentId> op_fragment_;         // index == OperatorId
  std::map<FragmentId, std::vector<OperatorId>> fragments_;  // topo-ordered
  std::vector<SourceBinding> sources_;
  OperatorId root_ = kInvalidId;
  std::vector<Edge> no_edges_;
};

/// \brief Fluent constructor for QueryGraph with DAG validation.
class QueryBuilder {
 public:
  QueryBuilder(QueryId id, std::string label);

  /// Adds an operator to `fragment` and returns its id.
  OperatorId Add(std::unique_ptr<Operator> op, FragmentId fragment);
  /// Connects `from` to input `port` of `to`.
  QueryBuilder& Connect(OperatorId from, OperatorId to, int port = 0);
  /// Declares that source `source` feeds `target`.
  QueryBuilder& BindSource(SourceId source, OperatorId target, int port = 0);
  /// Declares the root (result-emitting) operator.
  QueryBuilder& SetRoot(OperatorId root);

  /// Validates (ids in range, query and fragment ids non-negative, acyclic,
  /// root set, every operator reaches the root or is the root) and returns
  /// the finished graph.
  Result<std::unique_ptr<QueryGraph>> Build();

 private:
  std::unique_ptr<QueryGraph> graph_;
  Status deferred_error_;
};

}  // namespace themis

#endif  // THEMIS_RUNTIME_QUERY_GRAPH_H_
