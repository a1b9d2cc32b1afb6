#include "workload/sources.h"

#include <algorithm>
#include <cmath>

namespace themis {

SourceDriver::SourceDriver(SourceId source, QueryId query, OperatorId target_op,
                           int target_port, SourceModel model,
                           EventQueue* queue, Rng rng,
                           std::function<void(Batch)> deliver, BatchPool* pool)
    : source_(source),
      query_(query),
      target_op_(target_op),
      target_port_(target_port),
      model_(model),
      timer_(this, queue),
      deliver_(std::move(deliver)),
      pool_(pool),
      rng_(rng) {
  if (!model_.payload) {
    value_gen_ = ValueGenerator::Make(model_.dataset, rng_.Fork(), model_.mean);
  }
  int bps = std::max(model_.batches_per_sec, 1);
  period_ = kSecond / bps;
  base_batch_size_ = static_cast<size_t>(
      std::llround(std::max(model_.tuples_per_sec / bps, 1.0)));
}

void SourceDriver::Start() {
  if (started_) return;
  started_ = true;
  // Stagger the first emission so sources do not fire in lockstep.
  SimDuration offset =
      static_cast<SimDuration>(rng_.UniformInt(0, period_ - 1));
  timer_.Arm(queue()->now() + offset);
}

size_t SourceDriver::CurrentBatchSize() {
  if (model_.burst_prob > 0.0) {
    SimTime second = queue()->now() / kSecond;
    if (second > burst_rolled_until_) {
      burst_rolled_until_ = second;
      bursting_ = rng_.Bernoulli(model_.burst_prob);
    }
  }
  // Diurnal factor: a pure-integer-phase triangle wave in
  // [1 - amplitude, 1 + amplitude] (phase 0 -> trough, period/2 -> peak).
  // 1.0 exactly when the knob is off, so the historical arithmetic below is
  // untouched byte-for-byte.
  double diurnal = 1.0;
  if (model_.diurnal_amplitude > 0.0 && model_.diurnal_period > 0) {
    SimTime phase = queue()->now() % model_.diurnal_period;
    SimTime half = model_.diurnal_period / 2;
    double tri = phase <= half
                     ? -1.0 + 2.0 * static_cast<double>(phase) /
                                  static_cast<double>(half)
                     : 1.0 - 2.0 * static_cast<double>(phase - half) /
                                 static_cast<double>(half);
    diurnal = 1.0 + model_.diurnal_amplitude * tri;
  }
  if (!bursting_) {
    if (diurnal == 1.0) return base_batch_size_;  // precomputed constant rate
    double scaled = static_cast<double>(base_batch_size_) * diurnal;
    return static_cast<size_t>(std::llround(std::max(scaled, 1.0)));
  }
  double per_batch = model_.tuples_per_sec * model_.burst_multiplier /
                     std::max(model_.batches_per_sec, 1) * diurnal;
  return static_cast<size_t>(std::llround(std::max(per_batch, 1.0)));
}

void SourceDriver::GenerateBatch() {
  // Fsps starts every driver, including one stopped before Start: its
  // first emission fires here and ends the chain.
  if (stopped_) return;
  SimTime now = queue()->now();
  size_t n = CurrentBatchSize();

  // Generate straight into a (pooled) batch buffer; source tuples carry
  // sic == 0 until Eq. (1) stamping at node ingress.
  Batch b = pool_ != nullptr ? pool_->Acquire() : Batch{};
  b.tuples.reserve(n);
  b.header.query_id = query_;
  b.header.dest_op = target_op_;
  b.header.dest_port = target_port_;
  b.header.created = now;
  b.header.source = source_;
  for (size_t i = 0; i < n; ++i) {
    Tuple& t = b.tuples.emplace_back();
    t.timestamp = now;
    if (model_.payload) {
      t.values = model_.payload(now);
    } else {
      t.values.push_back(value_gen_->Next(now));
    }
  }
  tuples_generated_ += n;
  b.RefreshHeaderSic();
  deliver_(std::move(b));

  timer_.Arm(queue()->now() + period_);
}

}  // namespace themis
