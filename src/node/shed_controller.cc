#include "node/shed_controller.h"

#include <algorithm>
#include <utility>

namespace themis {

ShedController::ShedController(SimDuration shed_interval, SimDuration stw,
                               double headroom,
                               std::unique_ptr<Shedder> shedder,
                               ShedStats* stats)
    : shed_interval_(shed_interval),
      stw_(stw),
      shedder_(std::move(shedder)),
      stats_(stats),
      detector_(headroom) {}

void ShedController::Admit(QueryId q, double sic, size_t tuples,
                           SimTime now) {
  accepted_.try_emplace(q, stw_).first->second.Add(now, sic, tuples);
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    query_telemetry_.RecordAccepted(tel, q, sic, tuples);
  }
  stats_->batches_processed += 1;
  stats_->tuples_processed += tuples;
  interval_tuples_ += tuples;
}

void ShedController::RemoveQuery(QueryId q) {
  query_sic_.erase(q);
  accepted_.erase(q);
  efficiency_.erase(q);
}

double ShedController::AcceptedSic(QueryId q, SimTime now) {
  auto it = accepted_.find(q);
  return it == accepted_.end() ? 0.0 : it->second.tracker.QuerySic(now);
}

double ShedController::AcceptedSicTotal(QueryId q) const {
  auto it = accepted_.find(q);
  return it == accepted_.end() ? 0.0 : it->second.total_sic;
}

uint64_t ShedController::AcceptedTuplesTotal(QueryId q) const {
  auto it = accepted_.find(q);
  return it == accepted_.end() ? 0 : it->second.total_tuples;
}

void ShedController::BeginTick() {
  stats_->detector_invocations += 1;
  cost_model_.RecordInterval(interval_tuples_, interval_busy_);
  interval_tuples_ = 0;
  interval_busy_ = 0;
}

bool ShedController::CheckpointDue(SimTime now) {
  if (ckpt_store_ == nullptr || !ckpt_config_.enabled) return false;
  if (now < ckpt_next_due_) return false;
  ckpt_next_due_ = now + ckpt_config_.cadence;
  return true;
}

bool ShedController::Decide(SimTime now, InputBuffer* ib,
                            const BatchPool& pool, size_t query_slots,
                            size_t capacity_scale) {
  size_t capacity =
      cost_model_.EstimateCapacity(shed_interval_) * capacity_scale;
  stats_->last_capacity = capacity;

  // Refresh per-query efficiency estimates (result SIC per accepted SIC).
  // The disseminated value lags the accept level by the operator pipeline
  // latency, so the ratio is smoothed with a slow EWMA.
  for (auto& [q, acc] : accepted_) {
    double accepted = acc.tracker.QuerySic(now);
    if (accepted > 0.02) {
      if (auto it = query_sic_.find(q); it != query_sic_.end()) {
        double ratio = std::clamp(it->second / accepted, 0.0, 1.2);
        auto [eff_it, ins] = efficiency_.try_emplace(q, Ewma(0.05));
        eff_it->second.Update(ratio);
      }
    }
  }

  bool overloaded = detector_.IsOverloaded(ib->num_tuples(), capacity);
  telemetry::Telemetry* tel = telemetry::Get();
  if (tel != nullptr) {
    RecordShedTick(tel, ib->num_tuples(), capacity, overloaded);
    pool_telemetry_.Publish(tel, pool.stats());
    if (ckpt_store_ != nullptr && ckpt_config_.enabled) {
      ckpt_telemetry_.Publish(tel, *ckpt_store_);
    }
  }
  if (!overloaded) return false;

  accepted_snapshot_.assign(query_slots, 0.0);
  for (auto& [q, acc] : accepted_) {
    double eff = 1.0;
    if (auto it = efficiency_.find(q); it != efficiency_.end()) {
      if (it->second.has_value()) eff = std::max(it->second.value(), 0.05);
    }
    if (static_cast<size_t>(q) >= accepted_snapshot_.size()) {
      accepted_snapshot_.resize(q + 1, 0.0);
    }
    accepted_snapshot_[q] = acc.tracker.QuerySic(now) * eff;
  }
  ShedContext ctx;
  ctx.capacity_tuples = capacity;
  ctx.now = now;
  ctx.query_sic = &query_sic_;
  ctx.local_accepted_sic = &accepted_snapshot_;
  std::vector<size_t> keep = shedder_->SelectBatchesToKeep(ib->batches(), ctx);
  if (tel != nullptr) {
    RecordShedDrops(tel, &query_telemetry_, ib->batches(), keep);
  }
  size_t before_batches = ib->num_batches();
  size_t dropped = ib->RetainIndices(keep);
  if (dropped > 0) {
    stats_->shed_invocations += 1;
    stats_->tuples_shed += dropped;
    stats_->batches_shed += before_batches - ib->num_batches();
  }
  return true;
}

}  // namespace themis
