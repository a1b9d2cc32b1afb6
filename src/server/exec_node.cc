#include "server/exec_node.h"

#include <chrono>
#include <utility>

#include "runtime/operator.h"

namespace themis {

ExecNode::ExecNode(ServerSite* site, Scheduler* sched,
                   const QueryGraph* graph, OperatorId op,
                   size_t channel_capacity)
    : site_(site),
      sched_(sched),
      graph_(graph),
      op_id_(op),
      input_(channel_capacity, this) {}

void ExecNode::NotifyCharged() {
  next_charged_.store(true, std::memory_order_release);
  sched_->Notify(this);
}

void ExecNode::NotifyUncharged() { sched_->Notify(this); }

bool ExecNode::FlushPending() {
  while (!pending_.empty()) {
    PendingPush& p = pending_.front();
    if (!p.channel->TryPush(&p.batch, this, sched_)) return false;
    pending_.pop_front();
  }
  return true;
}

bool ExecNode::RouteOutputs(const std::vector<Tuple>& outputs, bool charged) {
  if (op_id_ == graph_->root()) {
    site_->DeliverResult(graph_->id(), outputs, site_->Now());
    return true;
  }
  SimTime now = site_->Now();
  bool all_pushed = true;
  for (const Edge& e : graph_->out_edges(op_id_)) {
    ExecNode* consumer = peers_[e.to];
    // Mirror the DES: the consumer's ingest cost is charged by the producer
    // at emission time (Node::RouteOutputs), even if the push then parks in
    // the channel for a while.
    if (charged) {
      site_->ChargeModeled(static_cast<double>(outputs.size()) *
                           graph_->op(e.to)->cost_us_per_tuple() /
                           site_->cpu_speed());
    }
    Batch b = site_->AcquireBatch();
    b.header.query_id = graph_->id();
    b.header.dest_op = e.to;
    b.header.dest_port = e.port;
    b.header.created = now;
    b.tuples.assign(outputs.begin(), outputs.end());
    b.RefreshHeaderSic();
    if (!consumer->input_.TryPush(&b, this, sched_)) {
      pending_.push_back(PendingPush{&consumer->input_, std::move(b)});
      all_pushed = false;
    }
  }
  return all_pushed;
}

RunStatus ExecNode::RunSlice() {
  bool charged = next_charged_.exchange(false, std::memory_order_acq_rel);
  bool measured = site_->measured_accounting();
  auto t0 = measured ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{};

  // Backpressure: while stashed emissions cannot be delivered downstream,
  // do not consume upstream input either — that pause is what propagates
  // the full buffer toward the sources.
  if (!FlushPending()) {
    if (charged) next_charged_.store(true, std::memory_order_release);
    return RunStatus::kBlocked;
  }

  Operator* op = graph_->op(op_id_);
  while (std::optional<Batch> b = input_.TryPop()) {
    op->Ingest(b->tuples, b->header.dest_port);
    site_->ReleaseBatch(std::move(*b));
    input_.GrantCredit(sched_);
  }

  scratch_.clear();
  op->Advance(site_->Watermark(), &scratch_);
  bool ok = scratch_.empty() || RouteOutputs(scratch_, charged);

  if (measured) {
    site_->RecordMeasuredBusy(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  return ok ? RunStatus::kIdle : RunStatus::kBlocked;
}

}  // namespace themis
