#include "node/shed_controller.h"

#include <algorithm>
#include <utility>

#include "shedding/overload_detector.h"

namespace themis {

ShedController::ShedController(SimDuration shed_interval, SimDuration stw,
                               std::unique_ptr<Shedder> shedder,
                               ShedStats* stats)
    : shed_interval_(shed_interval),
      stw_(stw),
      shedder_(std::move(shedder)),
      stats_(stats) {}

void ShedController::Admit(QueryId q, double sic, size_t tuples,
                           SimTime now) {
  QuerySlot& slot = Slot(q);
  if (!slot.accepted) slot.accepted = std::make_unique<SicAccount>(stw_);
  slot.accepted->Add(now, sic, tuples);
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    query_telemetry_.RecordAccepted(tel, q, sic, tuples);
  }
  stats_->batches_processed += 1;
  stats_->tuples_processed += tuples;
  interval_tuples_ += tuples;
}

void ShedController::RemoveQuery(QueryId q) {
  if (static_cast<size_t>(q) < slots_.size()) slots_[q] = QuerySlot{};
}

SicAccount* ShedController::Account(QueryId q) const {
  return static_cast<size_t>(q) < slots_.size() ? slots_[q].accepted.get()
                                                : nullptr;
}

double ShedController::AcceptedSic(QueryId q, SimTime now) {
  SicAccount* acc = Account(q);
  return acc == nullptr ? 0.0 : acc->tracker.QuerySic(now);
}

double ShedController::AcceptedSicTotal(QueryId q) const {
  const SicAccount* acc = Account(q);
  return acc == nullptr ? 0.0 : acc->total_sic;
}

uint64_t ShedController::AcceptedTuplesTotal(QueryId q) const {
  const SicAccount* acc = Account(q);
  return acc == nullptr ? 0 : acc->total_tuples;
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
  for (QuerySlot& slot : slots_) {
    if (!slot.accepted) continue;
    double accepted = slot.accepted->tracker.QuerySic(now);
    if (accepted > 0.02 && slot.sic) {
      slot.efficiency.Update(std::clamp(*slot.sic / accepted, 0.0, 1.2));
    }
  }

  bool overloaded = IsOverloaded(ib->num_tuples(), capacity);
  telemetry::Telemetry* tel = telemetry::Get();
  if (tel != nullptr) {
    RecordShedTick(tel, ib->num_tuples(), capacity, overloaded);
    pool_telemetry_.Publish(tel, pool.stats());
    if (ckpt_store_ != nullptr && ckpt_config_.enabled) {
      ckpt_telemetry_.Publish(tel, *ckpt_store_);
    }
  }
  if (!overloaded) return false;

  size_t slots = std::max(query_slots, slots_.size());
  query_sic_snapshot_.assign(slots, 0.0);
  accepted_snapshot_.assign(slots, 0.0);
  for (size_t q = 0; q < slots_.size(); ++q) {
    QuerySlot& slot = slots_[q];
    query_sic_snapshot_[q] = slot.sic.value_or(0.0);
    if (!slot.accepted) continue;
    double eff = slot.efficiency.has_value()
                     ? std::max(slot.efficiency.value(), 0.05)
                     : 1.0;
    accepted_snapshot_[q] = slot.accepted->tracker.QuerySic(now) * eff;
  }
  ShedContext ctx;
  ctx.capacity_tuples = capacity;
  ctx.now = now;
  ctx.query_sic = &query_sic_snapshot_;
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
