// Logically-centralised per-query coordinator (§6): accumulates the query's
// result SIC over the sliding STW and periodically disseminates the current
// q_SIC value to every node hosting one of the query's fragments — the
// updateSIC(Q) mechanism that makes independent shedding decisions converge
// globally (§5.2, Fig. 4).
#ifndef THEMIS_FEDERATION_COORDINATOR_H_
#define THEMIS_FEDERATION_COORDINATOR_H_

#include <map>
#include <vector>

#include "node/node.h"
#include "runtime/query_graph.h"
#include "sic/stw_tracker.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/timer.h"

namespace themis {

/// One recorded result emission (used by the §7.1 correctness experiments).
struct ResultRecord {
  SimTime time = 0;
  double sic = 0.0;
  ValueList values;
};

/// \brief Tracks and disseminates one query's result SIC.
class QueryCoordinator {
 public:
  struct Options {
    SimDuration stw = Seconds(10);
    /// Dissemination period (paper: 250 ms, matching the shedding interval).
    SimDuration update_interval = Millis(250);
    /// Record result tuples for offline correctness comparison. Off by
    /// default: multi-node experiments would hold megabytes of payloads.
    bool record_results = false;
    /// Dissemination on/off; off reproduces the Fig. 4 "without
    /// updateSIC(Q)" ablation where nodes shed in isolation.
    bool disseminate = true;
  };

  QueryCoordinator(const QueryGraph* graph, Options options, EventQueue* queue,
                   Network* network);

  /// Registers a node hosting fragments of this query. `home` designates the
  /// node the coordinator is co-located with (the root fragment's node); the
  /// dissemination latency to each host is the network latency from `home`.
  void SetHome(NodeId home) { home_ = home; }
  void AddHost(NodeId node_id, Node* node);
  /// Deregisters a host that no longer runs fragments of this query (node
  /// crash with re-placement): dissemination stops addressing it.
  void RemoveHost(NodeId node_id);
  NodeId home() const { return home_; }

  /// Starts the periodic dissemination timer.
  void Start();

  /// Moves the coordinator to another shard's event queue (a re-balance:
  /// the coordinator follows its home node's shard so dissemination sends
  /// and OnResult calls stay shard-local). Only legal between engine runs.
  /// The dissemination timer re-arms on the new queue at its original
  /// deadline (see sim/timer.h).
  void MigrateQueue(EventQueue* queue) { timer_.MoveTo(queue); }
  EventQueue* queue() const { return timer_.queue(); }

  /// Stops dissemination and ignores further results (query undeployment).
  /// The object must stay alive until pending timer events have fired; Fsps
  /// retires stopped coordinators instead of destroying them.
  void Stop() {
    stopped_ = true;
    timer_.Cancel();
  }
  bool stopped() const { return stopped_; }

  /// Result delivery from the root operator's node.
  void OnResult(SimTime now, const std::vector<Tuple>& results);

  /// Current Eq. (4) value over the trailing STW.
  double CurrentSic();

  const QueryGraph* graph() const { return graph_; }
  const std::vector<ResultRecord>& results() const { return results_; }
  uint64_t result_tuples() const { return result_tuples_; }

 private:
  /// Dissemination-timer callback: one updateSIC(Q) round.
  void Disseminate();

  const QueryGraph* graph_;
  Options options_;
  Network* network_;
  Timer<QueryCoordinator, &QueryCoordinator::Disseminate> timer_;
  StwTracker tracker_;
  NodeId home_ = 0;
  std::map<NodeId, Node*> hosts_;
  std::vector<ResultRecord> results_;
  uint64_t result_tuples_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace themis

#endif  // THEMIS_FEDERATION_COORDINATOR_H_
