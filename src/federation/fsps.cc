#include "federation/fsps.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"
#include "shedding/baseline_shedders.h"
#include "shedding/random_shedder.h"

namespace themis {

std::string SheddingPolicyName(SheddingPolicy policy) {
  switch (policy) {
    case SheddingPolicy::kBalanceSic:
      return "balance-sic";
    case SheddingPolicy::kRandom:
      return "random";
    case SheddingPolicy::kDropNewest:
      return "drop-newest";
    case SheddingPolicy::kDropOldest:
      return "drop-oldest";
    case SheddingPolicy::kProportional:
      return "proportional";
  }
  return "?";
}

Fsps::Fsps(FspsOptions options)
    : options_(options),
      rng_(options.seed),
      engine_(std::make_unique<ParallelEngine>(std::max(options.shards, 1))),
      network_(engine_.get(), options.default_link_latency),
      recovery_(options.recovery) {}

Fsps::~Fsps() = default;

NodeId Fsps::AddNode() { return AddNode(options_.node); }

NodeId Fsps::AddNode(NodeOptions node_options) {
  Result<NodeId> id = AddNode(node_options, kAutoShard);
  THEMIS_CHECK(id.ok());
  return *id;
}

Result<NodeId> Fsps::AddNode(NodeOptions node_options, int shard) {
  THEMIS_RETURN_NOT_OK(ValidateAddNode(shard));
  return AddNodeNow(node_options, shard);
}

Status Fsps::ValidateAddNode(int shard) const {
  int shards = engine_->num_shards();
  if (shard != kAutoShard && (shard < 0 || shard >= shards)) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range [0, " +
                                   std::to_string(shards) + ")");
  }
  return Status::OK();
}

NodeId Fsps::AddNodeNow(NodeOptions node_options, int shard) {
  // The offered-load tracker only runs when something reads it: the
  // elastic control plane (its load signal, autoscaler and re-balancer
  // weigh nodes by OfferedLoadUs). Keeping it off otherwise preserves the
  // historical data-plane allocation counts.
  if (options_.elastic) node_options.track_arrivals = true;
  NodeId id = static_cast<NodeId>(nodes_.size());
  int shards = engine_->num_shards();
  int s = shard == kAutoShard ? id % shards : shard;
  network_.AssignShard(id, s);
  nodes_.push_back(std::make_unique<Node>(id, node_options, engine_->queue(s),
                                          this, MakeShedder()));
  if (options_.checkpoint.enabled) {
    nodes_.back()->ConfigureCheckpoints(options_.checkpoint);
  }
  if (started_) {
    // Mid-run join. Pre-Start nodes get their source link and Start() call
    // from Fsps::Start; a joiner does both here, at the control-plane
    // boundary. The link edit is queued, like every edit after Start, and
    // lands at the next RunFor boundary — before any source can target the
    // node, since deployment is also boundary-only. The network's shard map
    // already holds the joiner, so deliveries route to its shard
    // immediately.
    network_.QueueSetLatency(kInvalidId, id, options_.source_link_latency);
    topology_dirty_ = true;  // links to the joiner constrain the epoch
    nodes_.back()->Start();
    churn_stats_.nodes_added += 1;
  }
  return id;
}

std::unique_ptr<Shedder> Fsps::MakeShedder() {
  switch (options_.policy) {
    case SheddingPolicy::kBalanceSic:
      return std::make_unique<BalanceSicShedder>(rng_.Fork(), options_.balance);
    case SheddingPolicy::kRandom:
      return std::make_unique<RandomShedder>(rng_.Fork());
    case SheddingPolicy::kDropNewest:
      return std::make_unique<DropNewestShedder>();
    case SheddingPolicy::kDropOldest:
      return std::make_unique<DropOldestShedder>();
    case SheddingPolicy::kProportional:
      return std::make_unique<ProportionalShedder>();
  }
  return nullptr;
}

Node* Fsps::node(NodeId id) {
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return nullptr;
  return nodes_[id].get();
}

std::vector<NodeId> Fsps::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    ids.push_back(static_cast<NodeId>(i));
  }
  return ids;
}

std::vector<NodeId> Fsps::live_node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->alive()) ids.push_back(static_cast<NodeId>(i));
  }
  return ids;
}

bool Fsps::node_alive(NodeId id) const {
  return id >= 0 && static_cast<size_t>(id) < nodes_.size() &&
         nodes_[id]->alive();
}

Status Fsps::Deploy(std::unique_ptr<QueryGraph> graph,
                    const std::map<FragmentId, NodeId>& placement) {
  if (!graph) return Status::InvalidArgument("null query graph");
  QueryId q = graph->id();
  if (deployed(q) != nullptr) {
    return Status::AlreadyExists("query " + std::to_string(q) +
                                 " already deployed");
  }
  // Build() guarantees at least one fragment, all ids non-negative.
  const std::vector<FragmentId> frags = graph->fragment_ids();
  std::vector<NodeId> node_of(frags.back() + 1, kInvalidId);
  for (FragmentId frag : frags) {
    auto it = placement.find(frag);
    if (it == placement.end()) {
      return Status::InvalidArgument("fragment " + std::to_string(frag) +
                                     " of query " + std::to_string(q) +
                                     " has no placement");
    }
    if (node(it->second) == nullptr) {
      return Status::InvalidArgument("fragment placed on unknown node " +
                                     std::to_string(it->second));
    }
    if (!node(it->second)->alive()) {
      return Status::InvalidArgument("fragment placed on crashed node " +
                                     std::to_string(it->second));
    }
    node_of[frag] = it->second;
  }

  // The coordinator is co-located with the root fragment's node: it runs on
  // that node's shard queue, and result delivery (a direct call from the
  // root operator's host) therefore stays shard-local.
  NodeId home = node_of[graph->root_fragment()];
  auto coordinator = std::make_unique<QueryCoordinator>(
      graph.get(), options_.coordinator, engine_->queue(shard_of(home)),
      &network_);
  coordinator->SetHome(home);
  for (FragmentId frag : frags) {
    NodeId nid = node_of[frag];
    nodes_[nid]->HostFragment(graph.get(), frag);
    coordinator->AddHost(nid, nodes_[nid].get());
  }
  if (started_) coordinator->Start();

  if (static_cast<size_t>(q) >= queries_.size()) queries_.resize(q + 1);
  queries_[q] = {std::move(graph), std::move(node_of), std::move(coordinator)};
  return Status::OK();
}

Status Fsps::AttachSources(QueryId q,
                           const std::map<SourceId, SourceModel>& models,
                           const SourceModel& fallback) {
  const DeployedQuery* dq = deployed(q);
  if (dq == nullptr) {
    return Status::NotFound("query " + std::to_string(q) + " not deployed");
  }
  const QueryGraph* graph = dq->graph.get();

  for (const SourceBinding& sb : graph->sources()) {
    SourceModel model = fallback;
    if (auto it = models.find(sb.source); it != models.end()) {
      model = it->second;
    }

    // An operator never changes fragment, so the receiving fragment binds
    // here; RouteBatch resolves its host per batch, so generated traffic
    // follows the fragment when a crash re-places it. The kInvalidId sender
    // makes Network::Send route on the destination's shard, which is where
    // the source runs (each source is pinned to its destination's shard).
    FragmentId frag = graph->fragment_of(sb.target);
    NodeId dest = dq->node_of[frag];
    Node* dest_node = nodes_[dest].get();
    auto deliver = [this, q, frag](Batch b) {
      RouteBatch(kInvalidId, q, frag, std::move(b));
    };
    // The driver is pinned to its *initial* destination node's shard: it
    // draws from that node's batch pool at generation time, and its
    // deliveries stay shard-local (Network::Send maps kInvalidId senders
    // to the destination's shard, and crash re-placement never moves a
    // fragment across shards).
    sources_.push_back(std::make_unique<SourceDriver>(
        sb.source, q, sb.target, sb.port, model,
        engine_->queue(shard_of(dest)), rng_.Fork(), std::move(deliver),
        dest_node->batch_pool()));
    if (started_) sources_.back()->Start();
  }
  return Status::OK();
}

Status Fsps::Undeploy(QueryId q) {
  DeployedQuery* dq = deployed(q);
  if (dq == nullptr) {
    return Status::NotFound("query " + std::to_string(q) + " not deployed");
  }
  for (auto& src : sources_) {
    if (src->query_id() == q) src->Stop();
  }
  for (FragmentId frag = 0; frag < static_cast<FragmentId>(dq->node_of.size());
       ++frag) {
    NodeId node_id = dq->node_of[frag];
    if (node_id == kInvalidId) continue;
    // The graph below is retired, not destroyed — without this, every
    // undeployed query's window panes and batch buffers would stay resident
    // for the rest of the run. Hand them back to the hosting node's pool
    // before the fragment is unhosted.
    for (OperatorId oid : dq->graph->fragment_ops(frag)) {
      dq->graph->op(oid)->ResetState(nodes_[node_id]->batch_pool());
    }
    nodes_[node_id]->UnhostQuery(q);
  }
  // Checkpoint images of a departed query are dead weight; drop them.
  for (auto& n : nodes_) n->checkpoint_store()->EraseQuery(q);
  dq->coordinator->Stop();
  retired_coordinators_.push_back(std::move(dq->coordinator));
  retired_graphs_.push_back(std::move(dq->graph));
  *dq = DeployedQuery{};
  return Status::OK();
}

void Fsps::Start() {
  if (started_) return;
  started_ = true;
  // Source links may differ from inter-node links (Table 2 has dedicated
  // source nodes); model that with the pseudo source node kInvalidId.
  for (const auto& n : nodes_) {
    Status st = network_.SetLatency(kInvalidId, n->id(),
                                    options_.source_link_latency);
    THEMIS_CHECK(st.ok());  // the topology freezes below, never before
  }
  network_.Freeze();
  if (engine_->num_shards() > 1) {
    // Derive the conservative epoch width: the minimum latency of any link
    // whose endpoints live on different shards (sources and coordinators
    // are pinned, so node-node links are the only cross-shard edges).
    // Direct topology edits are rejected from here on; dynamic runs queue
    // them for the next RunFor boundary, where ApplyTopologyMutations
    // re-derives the epoch width.
    SimDuration lookahead = network_.MinCrossShardLatency(
        network_.shard_of_node(), AliveMask());
    // A zero-latency cross-shard link admits no conservative parallel
    // schedule; keep such nodes on one shard instead.
    THEMIS_CHECK(lookahead != 0);
    engine_->SetLookahead(lookahead);
  }
  for (const auto& n : nodes_) n->Start();
  for (DeployedQuery& dq : queries_) {
    if (dq.coordinator) dq.coordinator->Start();
  }
  for (auto& src : sources_) src->Start();
}

std::vector<char> Fsps::AliveMask() const {
  std::vector<char> alive(nodes_.size(), 1);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    alive[i] = nodes_[i]->alive() ? 1 : 0;
  }
  return alive;
}

void Fsps::ApplyTopologyMutations() {
  size_t applied = network_.ApplyQueuedMutations();
  if (applied > 0 && options_.recovery.enabled) {
    // Link edits land here, at the run boundary — this is where the
    // latency change starts perturbing traffic, so this is the instant the
    // recovery tracker should baseline against.
    MarkRecoveryDisturbance(DisturbanceKind::kLinkChange);
  }
  if (applied == 0 && !topology_dirty_) return;
  topology_dirty_ = false;
  if (engine_->num_shards() > 1) {
    // Every shard clock is synchronized here (between RunUntil calls) and
    // the cross-shard inboxes are drained, so widening or narrowing the
    // epoch cannot reorder or miss a delivery. Links touching crashed
    // nodes carry no future traffic (placements and dissemination hosts
    // were updated when the crash landed) and are excluded, so a dead
    // node's links never narrow the epoch.
    SimDuration lookahead = network_.MinCrossShardLatency(
        network_.shard_of_node(), AliveMask());
    // Unreachable through the Status-validated APIs (SetLinkLatency
    // rejects non-positive latencies on a sharded engine); kept as the
    // last-resort guard for direct Network access.
    THEMIS_CHECK(lookahead != 0);
    engine_->SetLookahead(lookahead);
  }
}

void Fsps::RunFor(SimDuration d) {
  telemetry::TraceScope span("fsps.run_for");
  Start();
  ApplyTopologyMutations();
  SimTime end = engine_->now() + d;
  if (!options_.recovery.enabled) {
    engine_->RunUntil(end);
    return;
  }
  // Split the run at the sampling cadence: every shard clock is
  // synchronized at each RunUntil return, so reading the coordinators there
  // is race-free and deterministic at any shard count. The grid stays
  // regular across RunFor segmentation (a segment ending between samples
  // leaves next_sample_due_ untouched), and disturbance-time samples from
  // the control plane are off-grid extras the tracker de-duplicates.
  while (true) {
    if (next_sample_due_ <= engine_->now()) {
      SampleRecovery();
      next_sample_due_ = engine_->now() + options_.recovery.sample_interval;
    }
    if (engine_->now() >= end) break;
    engine_->RunUntil(std::min(end, next_sample_due_));
  }
}

void Fsps::SampleRecovery() {
  std::vector<std::pair<QueryId, double>> sics;
  for (QueryId q : query_ids()) {
    sics.emplace_back(q, queries_[q].coordinator->CurrentSic());
  }
  // Mirror each accepted Jain sample into the telemetry snapshot path
  // (the tracker de-duplicates repeated instants).
  if (recovery_.Sample(engine_->now(), sics)) {
    if (telemetry::Telemetry* tel = telemetry::Get()) {
      tel->metrics()
          .GetSeries("recovery.jain")
          ->Append(static_cast<int64_t>(engine_->now()),
                   recovery_.latest_jain());
    }
  }
}

void Fsps::MarkRecoveryDisturbance(DisturbanceKind kind) {
  // Sample first so every deployed query has a pre-fault baseline at the
  // disturbance instant itself (the tracker ignores the duplicate when a
  // cadence sample already landed here).
  SampleRecovery();
  recovery_.MarkDisturbance(engine_->now(), kind);
}

Status Fsps::ValidatePlanOp(const TopologyPlan::Op& op,
                            std::vector<char>* scratch_alive) const {
  // `scratch_alive` carries the liveness/existence state the plan's earlier
  // ops promise: one entry per existing or staged node, 1 = alive. It is
  // the only state the validator mutates.
  std::vector<char>& alive = *scratch_alive;
  auto known = [&alive](NodeId x) {
    return x >= 0 && static_cast<size_t>(x) < alive.size();
  };
  switch (op.kind) {
    case TopologyPlan::OpKind::kCrash:
      if (!known(op.a)) {
        return Status::NotFound("unknown node " + std::to_string(op.a));
      }
      if (!alive[op.a]) {
        return Status::FailedPrecondition("node " + std::to_string(op.a) +
                                          " is already crashed");
      }
      alive[op.a] = 0;
      return Status::OK();
    case TopologyPlan::OpKind::kRestore:
      if (!known(op.a)) {
        return Status::NotFound("unknown node " + std::to_string(op.a));
      }
      if (alive[op.a]) {
        return Status::FailedPrecondition("node " + std::to_string(op.a) +
                                          " is not crashed");
      }
      alive[op.a] = 1;
      return Status::OK();
    case TopologyPlan::OpKind::kSetLink: {
      if (op.a == op.b) {
        return Status::InvalidArgument("self-links have fixed zero latency");
      }
      if ((op.a != kInvalidId && !known(op.a)) ||
          (op.b != kInvalidId && !known(op.b))) {
        return Status::InvalidArgument("unknown node in link (" +
                                       std::to_string(op.a) + ", " +
                                       std::to_string(op.b) + ")");
      }
      if (op.latency < 0) {
        return Status::InvalidArgument("negative link latency");
      }
      if (engine_->num_shards() > 1 && op.latency == 0) {
        return Status::InvalidArgument(
            "zero-latency links admit no conservative parallel schedule on a "
            "sharded engine");
      }
      return Status::OK();
    }
    case TopologyPlan::OpKind::kAddNode:
      THEMIS_RETURN_NOT_OK(ValidateAddNode(op.shard));
      alive.push_back(1);
      return Status::OK();
    case TopologyPlan::OpKind::kRebalance:
      if (engine_->num_shards() <= 1) return Status::OK();  // no-op
      if (!started_) {
        return Status::FailedPrecondition(
            "re-balance before Start(): assign shards at AddNode instead");
      }
      if (!op.group_of_node.empty() &&
          op.group_of_node.size() != alive.size()) {
        return Status::InvalidArgument(
            "group map covers " + std::to_string(op.group_of_node.size()) +
            " nodes, federation has " + std::to_string(alive.size()));
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown plan op");
}

Status Fsps::ApplyPlan(const TopologyPlan& plan) {
  telemetry::TraceScope span("plan.apply");
  telemetry::Telemetry* tel = telemetry::Get();
  // Phase 1: validate every op against scratch state, so a bad op halfway
  // through the batch fails the plan before anything mutates.
  {
    telemetry::TraceScope validate_span("plan.validate");
    std::vector<char> scratch_alive = AliveMask();
    for (const TopologyPlan::Op& op : plan.ops_) {
      Status s = ValidatePlanOp(op, &scratch_alive);
      if (!s.ok()) {
        if (tel != nullptr) tel->metrics().GetCounter("plan.rejected")->Add(1);
        return s;
      }
    }
  }
  // Phase 2: commit in order. The only Status left is Rebalance's
  // commit-time epoch-width check (see topology_plan.h).
  telemetry::TraceScope commit_span("plan.commit");
  static constexpr const char* kOpCounters[] = {  // indexed by OpKind
      "plan.ops.crash", "plan.ops.restore", "plan.ops.set_link",
      "plan.ops.add_node", "plan.ops.rebalance"};
  for (const TopologyPlan::Op& op : plan.ops_) {
    if (tel != nullptr) {
      tel->metrics().GetCounter(kOpCounters[static_cast<int>(op.kind)])->Add(1);
    }
    switch (op.kind) {
      case TopologyPlan::OpKind::kCrash:
        CrashNodeNow(op.a);
        break;
      case TopologyPlan::OpKind::kRestore:
        RestoreNodeNow(op.a);
        break;
      case TopologyPlan::OpKind::kSetLink:
        SetLinkLatencyNow(op.a, op.b, op.latency);
        break;
      case TopologyPlan::OpKind::kAddNode:
        AddNodeNow(op.node_options, op.shard);
        break;
      case TopologyPlan::OpKind::kRebalance:
        THEMIS_RETURN_NOT_OK(RebalanceNow(op.group_of_node));
        break;
    }
  }
  if (tel != nullptr) tel->metrics().GetCounter("plan.applied")->Add(1);
  return Status::OK();
}

void Fsps::CrashNodeNow(NodeId id) {
  Node* n = node(id);
  if (options_.recovery.enabled) {
    // Baseline the dip before the crash mutates anything: a wave of
    // crashes at one instant coalesces into one disturbance.
    MarkRecoveryDisturbance(DisturbanceKind::kCrashWave);
  }
  n->Crash();
  churn_stats_.crashes += 1;
  topology_dirty_ = true;
  // Re-place the orphaned fragments query by query, in ascending query-id
  // order for determinism. Collect first: ReplaceOrphans mutates the table
  // (force-undeploy frees entries).
  std::vector<QueryId> affected;
  for (QueryId q : query_ids()) {
    const std::vector<NodeId>& node_of = queries_[q].node_of;
    if (std::find(node_of.begin(), node_of.end(), id) != node_of.end()) {
      affected.push_back(q);
    }
  }
  for (QueryId q : affected) ReplaceOrphans(q, id);
}

void Fsps::RestoreNodeNow(NodeId id) {
  if (options_.recovery.enabled) {
    MarkRecoveryDisturbance(DisturbanceKind::kRestore);
  }
  nodes_[id]->Restore();
  churn_stats_.restores += 1;
  // Links to the rejoined node constrain the epoch again.
  topology_dirty_ = true;
}

void Fsps::SetLinkLatencyNow(NodeId a, NodeId b, SimDuration latency) {
  network_.QueueSetLatency(a, b, latency);
  churn_stats_.latency_updates += 1;
  topology_dirty_ = true;
}

Status Fsps::RebalanceNow(const std::vector<int>& group_of_node) {
  const int shards = engine_->num_shards();
  if (shards <= 1) {
    // Trivially balanced, but still counted: the rebalance counter reports
    // the control plane's decisions, not their effect.
    churn_stats_.rebalances += 1;
    return Status::OK();
  }
  const size_t n = nodes_.size();
  std::vector<int> groups(group_of_node);
  if (groups.empty()) {
    groups.resize(n);
    for (size_t i = 0; i < n; ++i) groups[i] = static_cast<int>(i);
  }

  // Group loads under the configured signal; crashed nodes carry none.
  // Ordered maps keep the walk deterministic in group id.
  SimTime now = engine_->now();
  std::map<int, double> load;
  std::map<int, std::vector<NodeId>> members;
  for (size_t i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    members[groups[i]].push_back(id);
    load[groups[i]] += nodes_[i]->alive() ? NodeLoadSignal(id, now) : 0.0;
  }

  // Nothing to balance yet (e.g. a control tick before the first arrival):
  // keep the current map rather than letting the zero-load LPT collapse
  // every group onto shard 0.
  double total_load = 0.0;
  for (const auto& [g, l] : load) total_load += l;
  if (total_load == 0.0) {
    churn_stats_.rebalances += 1;
    return Status::OK();
  }

  // LPT greedy: heaviest group first onto the least-loaded shard. Ties —
  // equal group loads, equal shard loads — break by ascending id, so the
  // packing is a pure function of the load vector.
  std::vector<std::pair<double, int>> order;
  order.reserve(load.size());
  for (const auto& [g, l] : load) order.push_back({l, g});
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<double> shard_load(shards, 0.0);
  std::vector<int> new_map = network_.shard_of_node();
  for (const auto& [l, g] : order) {
    int best = 0;
    for (int s = 1; s < shards; ++s) {
      if (shard_load[s] < shard_load[best]) best = s;
    }
    shard_load[best] += l;
    for (NodeId id : members[g]) new_map[id] = best;
  }

  if (new_map == network_.shard_of_node()) {
    churn_stats_.rebalances += 1;
    return Status::OK();
  }
  // Commit-time feasibility: the re-derived epoch width must stay positive
  // (a zero-latency pair split across shards admits no conservative
  // schedule). Checked before anything migrates — a refusal leaves the
  // federation exactly as it was.
  SimDuration lookahead = network_.MinCrossShardLatency(new_map, AliveMask());
  if (lookahead == 0) {
    return Status::InvalidArgument(
        "re-balance would place a zero-latency link across shards");
  }
  if (lookahead < 0) {
    // Every live node on one shard: no cross-shard link bounds the epoch.
    // A one-group map on a multi-shard engine gets here; refuse rather
    // than hand the engine an unbounded epoch.
    return Status::InvalidArgument(
        "re-balance would leave no cross-shard links (single group?)");
  }
  if (options_.recovery.enabled) {
    MarkRecoveryDisturbance(DisturbanceKind::kRebalance);
  }

  // Migration, in entity order (the migration rule is documented at
  // Network::SetShardMap): nodes move their timers, the network's map swaps
  // and moves every in-flight delivery to its node's new shard, then
  // coordinators follow their home node and source drivers their
  // destination host, so generated traffic stays shard-local.
  uint64_t migrated = 0;
  for (size_t i = 0; i < n; ++i) {
    if (new_map[i] == shard_of(static_cast<NodeId>(i))) continue;
    nodes_[i]->MigrateQueue(engine_->queue(new_map[i]));
    ++migrated;
  }
  network_.SetShardMap(std::move(new_map));
  for (QueryId q : query_ids()) {
    QueryCoordinator* coord = queries_[q].coordinator.get();
    coord->MigrateQueue(engine_->queue(shard_of(coord->home())));
  }
  for (auto& src : sources_) {
    if (src->stopped()) continue;
    const DeployedQuery* dq = deployed(src->query_id());
    if (dq == nullptr) continue;
    NodeId dest = dq->node_of[dq->graph->fragment_of(src->target_op())];
    src->Rehome(engine_->queue(shard_of(dest)),
                nodes_[dest]->batch_pool());
  }
  topology_dirty_ = true;  // the epoch width re-derives at the next RunFor
  churn_stats_.rebalances += 1;
  churn_stats_.migrated_nodes += migrated;
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    tel->metrics().GetCounter("plan.migrated_nodes")->Add(migrated);
  }
  return Status::OK();
}

void Fsps::ReplaceOrphans(QueryId q, NodeId crashed) {
  std::vector<NodeId>& node_of = queries_[q].node_of;
  const QueryGraph* graph = queries_[q].graph.get();
  QueryCoordinator* coord = queries_[q].coordinator.get();

  // Candidates: live nodes — restricted to the crashed node's simulation
  // shard when sharded, because the query's source drivers and coordinator
  // run on that shard's queue and only a re-balance moves them.
  const bool sharded = engine_->num_shards() > 1;
  const int shard = shard_of(crashed);
  std::vector<NodeId> candidates;
  for (const auto& n : nodes_) {
    if (!n->alive()) continue;
    if (sharded && shard_of(n->id()) != shard) continue;
    candidates.push_back(n->id());
  }
  if (candidates.empty()) {
    // Nowhere to run: the query departs (the paper's FSPS admits arrivals
    // and departures at any time; a cluster-wide failure forces one).
    THEMIS_CHECK(Undeploy(q).ok());
    churn_stats_.dropped_queries += 1;
    return;
  }

  // Nodes already hosting surviving fragments of this query: the
  // distinct-node guarantee is re-established against the live set, and
  // co-location is a last resort when every candidate already hosts one.
  std::set<NodeId> occupied;
  for (NodeId nid : node_of) {
    if (nid != kInvalidId && nid != crashed) occupied.insert(nid);
  }

  // kSicAware: rank the candidates by their live overload signal plus the
  // load already projected onto them at this control-plane instant
  // (candidates are in ascending id order, giving the chooser its
  // deterministic tie-break). Each placed orphan then projects its own
  // carried mass — the crashed node's accepted SIC for this query, split
  // over its orphans — onto its new host, so a whole wave of crashes
  // spreads by expected load instead of herding onto the instant's
  // least-loaded node.
  std::vector<ReplacementCandidate> loads;
  double orphan_mass = 0.0;
  if (options_.replacement == ReplacementPolicy::kSicAware) {
    SimTime now = engine_->now();
    if (inflight_load_at_ != now) {
      inflight_load_at_ = now;
      inflight_load_.clear();
    }
    loads.reserve(candidates.size());
    for (NodeId c : candidates) {
      double inflight = 0.0;
      if (auto it = inflight_load_.find(c); it != inflight_load_.end()) {
        inflight = it->second;
      }
      loads.push_back({c, NodeLoadSignal(c, now) + inflight});
    }
    auto orphans = std::count(node_of.begin(), node_of.end(), crashed);
    if (orphans > 0) {
      // The projected mass must be in the same unit as the ranking signal.
      double carried = options_.elastic
                           ? nodes_[crashed]->OfferedLoadUs(q, now)
                           : nodes_[crashed]->AcceptedSic(q, now);
      orphan_mass = carried / static_cast<double>(orphans);
    }
  }

  for (FragmentId frag = 0; frag < static_cast<FragmentId>(node_of.size());
       ++frag) {
    if (node_of[frag] != crashed) continue;
    NodeId target = kInvalidId;
    if (options_.replacement == ReplacementPolicy::kSicAware) {
      target = ChooseLeastLoaded(loads, occupied);
      inflight_load_[target] += orphan_mass;
      for (ReplacementCandidate& c : loads) {
        if (c.id == target) {
          c.load += orphan_mass;
          break;
        }
      }
    } else {
      for (size_t step = 0; step < candidates.size(); ++step) {
        NodeId c =
            candidates[(replacement_cursor_ + step) % candidates.size()];
        if (occupied.count(c) == 0) {
          target = c;
          replacement_cursor_ =
              (replacement_cursor_ + step + 1) % candidates.size();
          break;
        }
      }
      if (target == kInvalidId) {
        target = candidates[replacement_cursor_ % candidates.size()];
        replacement_cursor_ = (replacement_cursor_ + 1) % candidates.size();
      }
    }
    node_of[frag] = target;
    occupied.insert(target);
    // Crash-time state semantics. Operator state (windows, panes) lives in
    // the shared QueryGraph, so hosting the fragment elsewhere as-is would
    // resume it with the crashed node's live state, which no real runtime
    // can reach. kReset clears the fragment's operators; kCheckpoint
    // restores each from its last image in the crashed node's store (which
    // models a durable backup and survives the crash), then moves the
    // image to the new host so a second crash there restores the right
    // state.
    switch (options_.crash_state) {
      case CrashStateMode::kReset:
        for (OperatorId oid : graph->fragment_ops(frag)) {
          graph->op(oid)->ResetState(nullptr);
        }
        break;
      case CrashStateMode::kCheckpoint: {
        CheckpointStore* src = nodes_[crashed]->checkpoint_store();
        CheckpointStore* dst = nodes_[target]->checkpoint_store();
        for (OperatorId oid : graph->fragment_ops(frag)) {
          RestoreOrResetOperator(graph->op(oid), q, src);
          src->MoveEntry(q, oid, dst);
        }
        break;
      }
    }
    nodes_[target]->HostFragment(graph, frag);
    coord->AddHost(target, nodes_[target].get());
    churn_stats_.replaced_fragments += 1;
  }

  nodes_[crashed]->UnhostQuery(q);
  coord->RemoveHost(crashed);
  if (coord->home() == crashed) {
    // The root fragment moved with the rest; dissemination latencies now
    // originate from its new host (same shard, so the coordinator's event
    // queue stays valid).
    coord->SetHome(node_of[graph->root_fragment()]);
  }
}

double Fsps::NodeLoadSignal(NodeId id, SimTime now) {
  Node* n = nodes_[id].get();
  if (options_.elastic) return n->OfferedLoadUs(now);
  double accepted = 0.0;
  for (QueryId q : n->HostedQueries()) {
    accepted += n->AcceptedSic(q, now);
  }
  return accepted;
}

std::vector<QueryId> Fsps::query_ids() const {
  std::vector<QueryId> ids;
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (queries_[q].graph) ids.push_back(static_cast<QueryId>(q));
  }
  return ids;
}

const QueryGraph* Fsps::graph(QueryId q) const {
  if (q < 0 || static_cast<size_t>(q) >= queries_.size()) return nullptr;
  return queries_[q].graph.get();
}

QueryCoordinator* Fsps::coordinator(QueryId q) {
  DeployedQuery* dq = deployed(q);
  return dq == nullptr ? nullptr : dq->coordinator.get();
}

double Fsps::QuerySic(QueryId q) {
  QueryCoordinator* c = coordinator(q);
  return c == nullptr ? 0.0 : c->CurrentSic();
}

std::vector<double> Fsps::AllQuerySics() {
  std::vector<double> sics;
  for (QueryId q : query_ids()) {
    sics.push_back(queries_[q].coordinator->CurrentSic());
  }
  return sics;
}

NodeStats Fsps::TotalNodeStats() const {
  NodeStats total;
  for (const auto& n : nodes_) {
    const NodeStats& s = n->stats();
    total.tuples_received += s.tuples_received;
    total.tuples_processed += s.tuples_processed;
    total.tuples_shed += s.tuples_shed;
    total.batches_received += s.batches_received;
    total.batches_processed += s.batches_processed;
    total.batches_shed += s.batches_shed;
    total.shed_invocations += s.shed_invocations;
    total.detector_invocations += s.detector_invocations;
    total.batches_dropped_dead += s.batches_dropped_dead;
    total.tuples_dropped_dead += s.tuples_dropped_dead;
    total.busy_time += s.busy_time;
  }
  return total;
}

size_t Fsps::BatchBytes(const Batch& b) {
  // 10-byte SIC header (§7.6) + a flat 16 bytes per tuple payload estimate.
  return 10 + 16 * b.size();
}

void Fsps::RouteBatch(NodeId from, QueryId query, FragmentId to_fragment,
                      Batch batch) {
  const DeployedQuery* dq = deployed(query);
  if (dq == nullptr ||
      static_cast<size_t>(to_fragment) >= dq->node_of.size()) {
    return;
  }
  NodeId dest = dq->node_of[to_fragment];
  if (dest == kInvalidId) return;
  Node* dest_node = nodes_[dest].get();
  size_t bytes = BatchBytes(batch);
  auto hop = [dest_node, b = std::move(batch)]() mutable {
    dest_node->Receive(std::move(b));
  };
  // Every simulated message runs this closure: stored inline, a hop does
  // not allocate.
  static_assert(UniqueFunction::kFitsInline<decltype(hop)>,
                "the network hop closure must fit UniqueFunction inline");
  network_.Send(from, dest, bytes, std::move(hop));
}

void Fsps::DeliverResult(QueryId query, SimTime now,
                         const std::vector<Tuple>& results) {
  if (DeployedQuery* dq = deployed(query)) {
    dq->coordinator->OnResult(now, results);
  }
}

}  // namespace themis
