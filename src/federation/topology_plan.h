// The unified control plane of a dynamic federation: every topology
// mutation — node crash/restore, link drift, mid-run node join, shard
// re-balance — is staged on a TopologyPlan and committed by Apply().
// A plan is validated as a whole before anything mutates, so a bad op in
// the middle of a batch does not leave the federation half-churned, and
// multi-op transitions ("add two nodes, wire their LAN links, re-balance")
// read as one declarative unit instead of a call sequence with hidden
// ordering constraints. A single mutation is a one-op plan:
// `fsps.PlanTopology().Crash(id).Apply()`.
#ifndef THEMIS_FEDERATION_TOPOLOGY_PLAN_H_
#define THEMIS_FEDERATION_TOPOLOGY_PLAN_H_

#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "node/node.h"
#include "runtime/ids.h"

namespace themis {

class Fsps;

/// \brief A staged batch of topology mutations against one Fsps.
///
/// Obtained from Fsps::PlanTopology(). Ops accumulate in call order and
/// nothing touches the federation until Apply(), which (1) validates the
/// whole sequence against a scratch copy of the topology state — an op that
/// would fail mid-sequence fails the plan up front — then (2) commits the
/// ops in order. Apply() runs between RunFor calls, i.e. at a run boundary
/// with every shard clock synchronized and the cross-shard inboxes drained,
/// which is the only instant mutation is safe on a sharded engine; derived
/// state (the conservative epoch width) refreshes at the next RunFor.
///
/// One check cannot run ahead of time: the epoch-width feasibility of a
/// Rebalance depends on link edits earlier in this plan and in the
/// network's pending queue. It is checked when the re-balance commits —
/// before the re-balance itself mutates anything — and a failure there
/// stops the plan with the *earlier* ops applied; the returned Status says
/// which op refused.
class TopologyPlan {
 public:
  TopologyPlan(TopologyPlan&&) = default;
  TopologyPlan& operator=(TopologyPlan&&) = default;
  TopologyPlan(const TopologyPlan&) = delete;
  TopologyPlan& operator=(const TopologyPlan&) = delete;

  /// Stages a failure of node `id`. On commit its input buffer drains back
  /// to the batch pool, in-flight batches addressed to it die at ingress,
  /// and every fragment it hosted is re-placed onto live nodes (on the
  /// crashed node's simulation shard when sharded — source drivers and the
  /// coordinator are shard-pinned) under FspsOptions::replacement. The
  /// re-placed operators' state follows FspsOptions::crash_state: empty
  /// (kReset, the default) or restored from the crashed node's last
  /// checkpoint image (kCheckpoint). Queries with no live candidate host
  /// are force-undeployed. Validation: NotFound for unknown ids,
  /// FailedPrecondition if the node is already crashed (counting earlier
  /// ops of this plan).
  TopologyPlan& Crash(NodeId id);
  /// Stages a crashed node's rejoin. It comes back empty: it accepts
  /// traffic and deployments again, but fragments do not move back
  /// automatically. Validation: NotFound for unknown ids,
  /// FailedPrecondition if the node is not crashed.
  TopologyPlan& Restore(NodeId id);
  /// Stages a link-latency change ((a, b), both directions; kInvalidId is
  /// the source pseudo-node). Links to nodes added earlier in this plan are
  /// legal: use the reserved id AddNode returned. The edit queues in the
  /// Network and takes effect — with the re-derived epoch width on a
  /// sharded engine — at the next RunFor boundary, never mid-epoch.
  /// Validation: InvalidArgument for a self-link, an unknown node, a
  /// negative latency, or a zero latency on a sharded engine (a
  /// zero-latency cross-shard link admits no conservative schedule).
  TopologyPlan& SetLinkLatency(NodeId a, NodeId b, SimDuration latency);
  /// Stages a node join and returns the id the node will get — valid for
  /// later ops in this plan (link wiring, group maps) and, after a
  /// successful Apply(), for the federation at large. `shard` may be
  /// Fsps::kAutoShard; InvalidArgument when it is out of range.
  NodeId AddNode(NodeOptions options, int shard);
  /// Stages a shard re-balance: re-derives the node->shard map from the
  /// current per-node load signal and moves every timer and in-flight
  /// delivery whose node changed shard, each at its own deadline (the
  /// migration rule, documented at Network::SetShardMap).
  /// `group_of_node[id]` keeps groups of nodes (e.g. LAN clusters) on one
  /// shard so intra-group links never constrain the epoch; empty means
  /// every node is its own group. Nodes added earlier in this plan are
  /// covered by the map (size = node count at this point in the plan).
  /// FailedPrecondition before Start(); a no-op at one shard.
  TopologyPlan& Rebalance(std::vector<int> group_of_node = {});

  /// Validates the whole plan, then commits it (see class comment). A plan
  /// applies at most once; staging further ops after Apply() is an error.
  Status Apply();

  /// Number of staged ops (observability / tests).
  size_t size() const { return ops_.size(); }

 private:
  friend class Fsps;

  enum class OpKind { kCrash, kRestore, kSetLink, kAddNode, kRebalance };
  struct Op {
    OpKind kind;
    NodeId a = kInvalidId;
    NodeId b = kInvalidId;
    SimDuration latency = 0;
    NodeOptions node_options;
    int shard = 0;
    std::vector<int> group_of_node;
  };

  explicit TopologyPlan(Fsps* fsps);

  Fsps* fsps_;
  std::vector<Op> ops_;
  /// Node count the plan builder has promised so far (existing + staged
  /// adds); AddNode reserves ids from here.
  size_t promised_nodes_;
  bool applied_ = false;
};

}  // namespace themis

#endif  // THEMIS_FEDERATION_TOPOLOGY_PLAN_H_
