#include "federation/autoscaler.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace themis {

namespace {

// Grow when utilization stays above this for kHysteresisTicks ticks.
constexpr double kGrowUtilization = 0.85;
// Consecutive out-of-band ticks required before acting: one bursty second
// must not trigger a join wave.
constexpr int kHysteresisTicks = 2;
// Nodes added per grow action (decommissioned nodes restore first).
constexpr int kGrowStep = 2;
// Nodes decommissioned per shrink action.
constexpr int kShrinkStep = 1;
// Re-balance, even without an action, when max shard load exceeds mean
// shard load by this factor (load skew from churn or uneven arrivals).
constexpr double kRebalanceSkew = 1.5;

}  // namespace

Autoscaler::Autoscaler(Fsps* fsps, const ScaleScenario& scenario,
                       AutoscalerOptions options)
    : fsps_(fsps),
      options_(options),
      clusters_(scenario.options.clusters),
      lan_latency_(scenario.options.lan_latency),
      stw_(fsps->options().node.stw),
      cluster_of_node_(scenario.cluster_of_node) {
  THEMIS_CHECK(stw_ > 0);
}

double Autoscaler::Utilization(SimTime now) const {
  // Offered busy-microseconds over the trailing STW, against the live
  // capacity over the same window (each node contributes stw_ microseconds
  // of processing time; cpu_speed is already folded into OfferedLoadUs).
  std::vector<NodeId> live = fsps_->live_node_ids();
  if (live.empty()) return 0.0;
  double offered = 0.0;
  for (NodeId id : live) offered += fsps_->node(id)->OfferedLoadUs(now);
  return offered /
         (static_cast<double>(live.size()) * static_cast<double>(stw_));
}

int Autoscaler::BusiestCluster(SimTime now) {
  std::vector<double> load(clusters_, 0.0);
  for (NodeId id : fsps_->live_node_ids()) {
    load[cluster_of_node_[id]] += fsps_->node(id)->OfferedLoadUs(now);
  }
  int best = 0;
  for (int c = 1; c < clusters_; ++c) {
    if (load[c] > load[best]) best = c;  // strict >: ties keep the lowest id
  }
  return best;
}

double Autoscaler::ShardSkew(SimTime now) {
  int shards = fsps_->engine()->num_shards();
  if (shards <= 1) return 1.0;
  std::vector<double> load(shards, 0.0);
  for (NodeId id : fsps_->live_node_ids()) {
    load[fsps_->shard_of(id)] += fsps_->node(id)->OfferedLoadUs(now);
  }
  double total = 0.0, max = 0.0;
  for (double l : load) {
    total += l;
    max = std::max(max, l);
  }
  if (total == 0.0) return 0.0;
  return max / (total / static_cast<double>(shards));
}

Status Autoscaler::Tick() {
  SimTime now = fsps_->now();
  stats_.ticks += 1;
  double util = Utilization(now);
  last_utilization_ = util;

  if (util > kGrowUtilization) {
    ++grow_streak_;
    shrink_streak_ = 0;
  } else if (util < options_.shrink_utilization) {
    ++shrink_streak_;
    grow_streak_ = 0;
  } else {
    grow_streak_ = 0;
    shrink_streak_ = 0;
  }
  // Decision inputs, captured before acting resets the streaks: the audit
  // log must show the values the decision was made on.
  const int grow_streak = grow_streak_;
  const int shrink_streak = shrink_streak_;
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    tel->metrics().GetCounter("autoscaler.ticks")->Add(1);
    tel->metrics().GetGauge("autoscaler.utilization")->Set(util);
  }

  // Stage the whole decision on one plan; bookkeeping (added_ /
  // decommissioned_ / cluster map / stats) commits only if the plan does.
  TopologyPlan plan = fsps_->PlanTopology();
  struct PendingAdd {
    NodeId id;
    int cluster;
  };
  std::vector<PendingAdd> pending_adds;
  std::vector<NodeId> pending_restores;
  std::vector<NodeId> pending_decoms;
  bool acted = false;

  if (grow_streak_ >= kHysteresisTicks) {
    grow_streak_ = 0;
    int cluster = BusiestCluster(now);
    int shards = fsps_->engine()->num_shards();
    size_t restorable = decommissioned_.size();
    for (int i = 0; i < kGrowStep; ++i) {
      if (pending_restores.size() < restorable) {
        // Re-grow from the decommission pool first: the node object, its
        // links and its shard pinning are all still there.
        pending_restores.push_back(
            decommissioned_[restorable - 1 - pending_restores.size()]);
        plan.Restore(pending_restores.back());
        continue;
      }
      if (options_.max_added_nodes > 0 &&
          static_cast<int>(added_.size() + pending_adds.size()) >=
              options_.max_added_nodes) {
        break;
      }
      // A fresh join lands in the busiest cluster, pinned to that
      // cluster's shard (the cluster-aligned map keeps LAN links
      // shard-local, so the epoch width stays WAN-wide), wired with LAN
      // links to every current member — including joins staged earlier in
      // this same plan.
      int shard = shards > 1 ? static_cast<int>(static_cast<int64_t>(cluster) *
                                                shards / clusters_)
                             : 0;
      NodeId id = plan.AddNode(fsps_->options().node, shard);
      for (size_t n = 0; n < cluster_of_node_.size(); ++n) {
        if (cluster_of_node_[n] == cluster) {
          plan.SetLinkLatency(id, static_cast<NodeId>(n), lan_latency_);
        }
      }
      for (const PendingAdd& prev : pending_adds) {
        if (prev.cluster == cluster) {
          plan.SetLinkLatency(id, prev.id, lan_latency_);
        }
      }
      pending_adds.push_back({id, cluster});
    }
    acted = !pending_adds.empty() || !pending_restores.empty();
  } else if (shrink_streak_ >= kHysteresisTicks) {
    shrink_streak_ = 0;
    // Decommission the least-loaded of the nodes this autoscaler added
    // (the base federation never shrinks); ties break by ascending id.
    std::vector<std::pair<double, NodeId>> candidates;
    for (NodeId id : added_) {
      if (!fsps_->node_alive(id)) continue;
      candidates.push_back({fsps_->node(id)->OfferedLoadUs(now), id});
    }
    std::sort(candidates.begin(), candidates.end());
    int take = std::min<int>(kShrinkStep,
                             static_cast<int>(candidates.size()));
    for (int i = 0; i < take; ++i) {
      pending_decoms.push_back(candidates[i].second);
      plan.Crash(pending_decoms.back());
    }
    acted = !pending_decoms.empty();
  }

  bool want_rebalance = acted || ShardSkew(now) > kRebalanceSkew;
  bool staged_rebalance = false;
  if (want_rebalance && fsps_->engine()->num_shards() > 1) {
    std::vector<int> groups = cluster_of_node_;
    for (const PendingAdd& a : pending_adds) groups.push_back(a.cluster);
    plan.Rebalance(std::move(groups));
    staged_rebalance = true;
  }

  // Structured decision audit log: one key=value line per tick with the
  // signal, the thresholds and streaks it was judged against, and the
  // committed action. "hold" ticks log at Debug, actions at Info; tests
  // capture these through Logging::SetSink (ScopedLogCapture).
  const char* action = "hold";
  if (!pending_adds.empty() || !pending_restores.empty()) {
    action = "grow";
  } else if (!pending_decoms.empty()) {
    action = "shrink";
  } else if (staged_rebalance) {
    action = "rebalance";
  }
  {
    internal::LogMessage line(
        acted || staged_rebalance ? LogLevel::kInfo : LogLevel::kDebug,
        __FILE__, __LINE__);
    char util_buf[32];
    std::snprintf(util_buf, sizeof(util_buf), "%.4f", util);
    line << "autoscaler decision t_us=" << now << " util=" << util_buf
         << " grow_util=" << kGrowUtilization
         << " shrink_util=" << options_.shrink_utilization
         << " grow_streak=" << grow_streak
         << " shrink_streak=" << shrink_streak << " action=" << action
         << " adds=" << pending_adds.size()
         << " restores=" << pending_restores.size()
         << " decoms=" << pending_decoms.size()
         << " rebalance=" << (staged_rebalance ? 1 : 0);
  }

  if (plan.size() == 0) return Status::OK();
  THEMIS_RETURN_NOT_OK(plan.Apply());

  // The plan committed: fold the decision into our books.
  if (!pending_restores.empty() || !pending_adds.empty()) {
    stats_.grow_actions += 1;
  }
  for (size_t i = 0; i < pending_restores.size(); ++i) {
    decommissioned_.pop_back();
    stats_.nodes_restored += 1;
  }
  for (const PendingAdd& a : pending_adds) {
    cluster_of_node_.push_back(a.cluster);
    added_.push_back(a.id);
    stats_.nodes_added += 1;
  }
  if (!pending_decoms.empty()) stats_.shrink_actions += 1;
  for (NodeId id : pending_decoms) {
    decommissioned_.push_back(id);
    stats_.nodes_decommissioned += 1;
  }
  if (staged_rebalance) stats_.rebalances_requested += 1;
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    telemetry::MetricRegistry& m = tel->metrics();
    if (!pending_restores.empty() || !pending_adds.empty()) {
      m.GetCounter("autoscaler.grow_actions")->Add(1);
    }
    if (!pending_decoms.empty()) {
      m.GetCounter("autoscaler.shrink_actions")->Add(1);
    }
    m.GetCounter("autoscaler.nodes_added")->Add(pending_adds.size());
    m.GetCounter("autoscaler.nodes_restored")->Add(pending_restores.size());
    m.GetCounter("autoscaler.nodes_decommissioned")
        ->Add(pending_decoms.size());
    if (staged_rebalance) m.GetCounter("autoscaler.rebalances")->Add(1);
  }
  return Status::OK();
}

}  // namespace themis
