#include "node/node.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"

namespace themis {

Node::Node(NodeId id, NodeOptions options, EventQueue* queue,
           BatchRouter* router, std::unique_ptr<Shedder> shedder)
    : id_(id),
      options_(options),
      router_(router),
      shed_timer_(this, queue),
      processing_(this, queue),
      ctl_(options.shed_interval, options.stw, std::move(shedder), &stats_),
      stamper_(options.stw) {
  ib_.set_pool(&pool_);
}

void Node::HostFragment(const QueryGraph* graph, FragmentId fragment) {
  QueryId q = graph->id();
  if (static_cast<size_t>(q) >= hosted_.size()) {
    hosted_.resize(q + 1);
  }
  HostedState& hs = hosted_[q];
  if (hs.graph != graph) {
    hs = HostedState{};
    hs.graph = graph;
    hs.hosted_op.assign(graph->num_operators(), 0);
  }
  for (OperatorId op : graph->fragment_ops(fragment)) hs.hosted_op[op] = 1;

  // Rebuild the flattened pump order from the hosted fragments (ascending
  // fragments, topo order within a fragment).
  hs.pump_ops.clear();
  for (FragmentId frag : graph->fragment_ids()) {
    const std::vector<OperatorId>& ops = graph->fragment_ops(frag);
    if (hs.hosted_op[ops.front()] == 0) continue;
    hs.pump_ops.insert(hs.pump_ops.end(), ops.begin(), ops.end());
  }
}

void Node::UnhostQuery(QueryId q) {
  if (q >= 0 && static_cast<size_t>(q) < hosted_.size()) {
    hosted_[q] = HostedState{};
  }
  ctl_.RemoveQuery(q);
  stamper_.RemoveQuery(q);
  ib_.RemoveQuery(q);
}

void Node::Start() {
  if (started_) return;
  started_ = true;
  if (alive_) {
    shed_timer_.Arm(queue()->now() + options_.shed_interval);
  }
}

void Node::Crash() {
  if (!alive_) return;
  alive_ = false;
  // The input buffer drains straight back to the pool: in-flight state dies
  // with the node, but its buffers recycle (nothing leaks, nothing is
  // double-released — a popped batch is never in the buffer).
  stats_.tuples_dropped_dead += ib_.Clear();
}

void Node::Restore() {
  if (alive_) return;
  alive_ = true;
  // A pending pre-crash tick (possibly moved since) keeps the chain armed;
  // it fires on a live node and carries on as usual.
  if (started_ && !shed_timer_.armed()) {
    shed_timer_.Arm(queue()->now() + options_.shed_interval);
  }
}

SimTime Node::Watermark() const {
  // Windows may close `window_grace` behind the clock, but never past the
  // creation time of the oldest batch still queued: under overload the
  // input buffer holds up to a couple of shedding intervals of data, and
  // closing a window while one input stream's batches for it are still
  // queued would systematically starve multi-input operators.
  SimTime wm = queue()->now() - options_.window_grace;
  if (!ib_.empty()) {
    wm = std::min(wm, ib_.batches().front().header.created);
  }
  return wm;
}

void Node::Receive(Batch batch) {
  if (!alive_) {
    // Crashed: the delivery dies on the doorstep. Not counted as received —
    // a dead node observes nothing — but the buffer still recycles.
    stats_.batches_dropped_dead += 1;
    stats_.tuples_dropped_dead += batch.size();
    pool_.Release(std::move(batch));
    return;
  }
  SimTime now = queue()->now();
  stats_.batches_received += 1;
  stats_.tuples_received += batch.size();

  HostedState* hs = hosted_state(batch.header.query_id);
  if (hs == nullptr) {
    // Unknown query: either never hosted here or undeployed while this
    // batch was in flight. Drop at ingress (recycling the buffer).
    pool_.Release(std::move(batch));
    return;
  }

  // Source batches carry unstamped tuples; apply Eq. (1) using the online
  // rate estimate for this (query, source) pair (§6 "SIC maintenance").
  stamper_.StampSourceBatch(&batch, now, hs->graph->num_sources());

  // Offered-load accounting (before admission: shed tuples still count —
  // the placement signal should see demand, not the shedder's verdict).
  if (options_.track_arrivals) {
    if (!hs->arrivals) {
      hs->arrivals = std::make_unique<StwTracker>(options_.stw);
    }
    hs->arrivals->AddResultSic(now, static_cast<double>(batch.size()));
  }

  ib_.Push(std::move(batch));
  ScheduleProcessing();
}

double Node::ArrivalTuplesStw(QueryId q, SimTime now) {
  HostedState* hs = hosted_state(q);
  return hs == nullptr || !hs->arrivals ? 0.0 : hs->arrivals->RawSum(now);
}

double Node::OfferedLoadUs(QueryId q, SimTime now) {
  // PerTupleUs() is measured from interval busy time, which already folds
  // in cpu_speed — the product is simulated processing-µs directly.
  return ArrivalTuplesStw(q, now) * ctl_.cost_model().PerTupleUs();
}

double Node::OfferedLoadUs(SimTime now) {
  double total = 0.0;
  for (HostedState& hs : hosted_) {
    if (hs.arrivals) total += hs.arrivals->RawSum(now);
  }
  return total * ctl_.cost_model().PerTupleUs();
}

std::vector<QueryId> Node::HostedQueries() const {
  std::vector<QueryId> out;
  for (size_t q = 0; q < hosted_.size(); ++q) {
    if (hosted_[q].graph != nullptr) out.push_back(static_cast<QueryId>(q));
  }
  return out;
}

void Node::ScheduleProcessing() {
  if (processing_.armed() || ib_.empty()) return;
  processing_.Arm(std::max(queue()->now(), busy_until_));
}

void Node::ProcessNext() {
  SimTime now = queue()->now();
  if (now < busy_until_) {
    // A shed pass or re-schedule raced us; resume when the CPU frees up.
    ScheduleProcessing();
    return;
  }
  std::optional<Batch> batch = ib_.Pop();
  if (!batch) return;

  ctl_.Admit(batch->header.query_id, batch->header.sic, batch->size(), now);
  SimDuration work = static_cast<SimDuration>(ExecuteBatch(*batch));
  busy_until_ = now + work;
  ctl_.ChargeBusy(work);
  pool_.Release(std::move(*batch));

  ScheduleProcessing();
}

double Node::ExecuteBatch(const Batch& batch) {
  HostedState* hs = hosted_state(batch.header.query_id);
  if (hs == nullptr) {
    THEMIS_LOG(Warn) << "node " << id_ << ": batch for unknown query "
                     << batch.header.query_id;
    return 0.0;
  }
  Operator* target = hs->graph->op(batch.header.dest_op);
  if (target == nullptr) return 0.0;

  double work_us =
      static_cast<double>(batch.size()) * target->cost_us_per_tuple() /
      options_.cpu_speed;
  target->Ingest(batch.tuples, batch.header.dest_port);
  PumpGraph(*hs, &work_us);
  return work_us;
}

void Node::PumpGraph(const HostedState& hs, double* work_us) {
  const QueryGraph* graph = hs.graph;
  SimTime wm = Watermark();
  // pump_ops stores hosted fragments' operators topologically, so one pass
  // suffices for chains within a fragment: upstream emissions are ingested
  // (and re-advanced) before downstream operators are visited.
  for (OperatorId op_id : hs.pump_ops) {
    Operator* op = graph->op(op_id);
    // Reuse one scratch buffer for all pumped operators: RouteOutputs
    // finishes synchronously (consumers copy on Ingest) before the next
    // operator overwrites it.
    scratch_outputs_.clear();
    op->Advance(wm, &scratch_outputs_);
    if (!scratch_outputs_.empty()) {
      RouteOutputs(hs, op_id, scratch_outputs_, work_us);
    }
  }
}

void Node::RouteOutputs(const HostedState& hs, OperatorId op,
                        const std::vector<Tuple>& outputs, double* work_us) {
  SimTime now = queue()->now();
  const QueryGraph* graph = hs.graph;

  if (op == graph->root()) {
    router_->DeliverResult(graph->id(), now, outputs);
    return;
  }

  for (const Edge& e : graph->out_edges(op)) {
    if (hs.hosted_op[e.to] != 0) {
      Operator* consumer = graph->op(e.to);
      if (work_us != nullptr) {
        *work_us += static_cast<double>(outputs.size()) *
                    consumer->cost_us_per_tuple() / options_.cpu_speed;
      }
      consumer->Ingest(outputs, e.port);
    } else {
      Batch b = BuildBatch(graph->id(), e.to, e.port, now, outputs);
      router_->RouteBatch(id_, graph->id(), graph->fragment_of(e.to),
                          std::move(b));
    }
  }
}

Batch Node::BuildBatch(QueryId query, OperatorId op, int port, SimTime created,
                       const std::vector<Tuple>& tuples) {
  Batch b = pool_.Acquire();
  b.header.query_id = query;
  b.header.dest_op = op;
  b.header.dest_port = port;
  b.header.created = created;
  b.tuples.assign(tuples.begin(), tuples.end());
  b.RefreshHeaderSic();
  return b;
}

void Node::OnShedTimer() {
  // Crashed between ticks: let the timer chain die (Restore re-arms it).
  if (!alive_) return;
  SimTime now = queue()->now();
  telemetry::TraceScope span("node.shed_tick");
  ctl_.BeginTick();
  // Close windows that became due even if no batch arrived lately
  // (ascending query order).
  for (const HostedState& hs : hosted_) {
    if (hs.graph != nullptr) PumpGraph(hs, nullptr);
  }
  ctl_.CaptureCheckpoints(now, [this](const auto& capture) {
    for (const HostedState& hs : hosted_) {
      if (hs.graph == nullptr) continue;
      for (OperatorId oid : hs.pump_ops) {
        capture(hs.graph->op(oid), hs.graph->id());
      }
    }
  });
  ctl_.Decide(now, &ib_, pool_, hosted_.size());
  shed_timer_.Arm(now + options_.shed_interval);
}

}  // namespace themis
