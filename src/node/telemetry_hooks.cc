#include "node/telemetry_hooks.h"

#include <cstdio>
#include <string>

namespace themis {
namespace {

telemetry::Counter* QueryCounter(telemetry::Telemetry* t, QueryId q,
                                 const char* suffix) {
  char name[64];
  std::snprintf(name, sizeof(name), "query.%lld.%s",
                static_cast<long long>(q), suffix);
  return t->metrics().GetCounter(name);
}

}  // namespace

QueryTelemetry::PerQuery* QueryTelemetry::Resolve(telemetry::Telemetry* t,
                                                  QueryId q) {
  if (owner_ != t) {
    by_query_.clear();
    owner_ = t;
  }
  size_t idx = static_cast<size_t>(q);
  if (idx >= by_query_.size()) by_query_.resize(idx + 1);
  PerQuery& pq = by_query_[idx];
  if (pq.accepted_sic == nullptr) {
    pq.accepted_sic = QueryCounter(t, q, "accepted_sic_fp");
    pq.accepted_tuples = QueryCounter(t, q, "accepted_tuples");
    pq.dropped_sic = QueryCounter(t, q, "dropped_sic_fp");
    pq.dropped_tuples = QueryCounter(t, q, "dropped_tuples");
  }
  return &pq;
}

void QueryTelemetry::RecordAccepted(telemetry::Telemetry* t, QueryId q,
                                    double sic, uint64_t tuples) {
  PerQuery* pq = Resolve(t, q);
  pq->accepted_sic->Add(
      static_cast<uint64_t>(telemetry::FixedFromDouble(sic)));
  pq->accepted_tuples->Add(tuples);
}

void QueryTelemetry::RecordDropped(telemetry::Telemetry* t, QueryId q,
                                   double sic, uint64_t tuples) {
  PerQuery* pq = Resolve(t, q);
  pq->dropped_sic->Add(
      static_cast<uint64_t>(telemetry::FixedFromDouble(sic)));
  pq->dropped_tuples->Add(tuples);
}

void PoolTelemetry::Publish(telemetry::Telemetry* t,
                            const BatchPool::Stats& s) {
  if (owner_ != t) {
    telemetry::MetricRegistry& m = t->metrics();
    h_.row_hits = m.GetCounter("infra.pool.row_hits");
    h_.row_misses = m.GetCounter("infra.pool.row_misses");
    h_.row_released = m.GetCounter("infra.pool.row_released");
    h_.row_evicted = m.GetCounter("infra.pool.row_evicted");
    h_.row_pooled = m.GetGauge("infra.pool.row_pooled");
    h_.row_peak = m.GetGauge("infra.pool.row_peak");
    owner_ = t;
    last_ = BatchPool::Stats{};  // new registry: counters restart from zero
  }
  h_.row_hits->Add(s.row_hits - last_.row_hits);
  h_.row_misses->Add(s.row_misses - last_.row_misses);
  h_.row_released->Add(s.row_released - last_.row_released);
  h_.row_evicted->Add(s.row_evicted - last_.row_evicted);
  h_.row_pooled->SetRaw(static_cast<int64_t>(s.row_pooled));
  h_.row_peak->SetRaw(static_cast<int64_t>(s.row_peak));
  last_ = s;
}

void CheckpointTelemetry::Publish(telemetry::Telemetry* t,
                                  const CheckpointStore& store) {
  if (owner_ != t) {
    telemetry::MetricRegistry& m = t->metrics();
    h_.taken = m.GetCounter("infra.ckpt.taken");
    h_.skipped_clean = m.GetCounter("infra.ckpt.skipped_clean");
    h_.restores = m.GetCounter("infra.ckpt.restores");
    h_.missed = m.GetCounter("infra.ckpt.missed");
    h_.bytes_written = m.GetCounter("infra.ckpt.bytes_written");
    h_.images = m.GetGauge("infra.ckpt.images");
    h_.resident_bytes = m.GetGauge("infra.ckpt.resident_bytes");
    owner_ = t;
    last_ = CheckpointStore::Stats{};
  }
  const CheckpointStore::Stats& s = store.stats();
  h_.taken->Add(s.taken - last_.taken);
  h_.skipped_clean->Add(s.skipped_clean - last_.skipped_clean);
  h_.restores->Add(s.restores - last_.restores);
  h_.missed->Add(s.missed - last_.missed);
  h_.bytes_written->Add(s.bytes_written - last_.bytes_written);
  h_.images->SetRaw(static_cast<int64_t>(store.size()));
  h_.resident_bytes->SetRaw(static_cast<int64_t>(store.resident_bytes()));
  last_ = s;
}

void RecordShedTick(telemetry::Telemetry* t, uint64_t ib_tuples,
                    uint64_t capacity, bool overloaded) {
  telemetry::MetricRegistry& m = t->metrics();
  m.GetCounter("shed.ticks")->Add(1);
  if (overloaded) m.GetCounter("shed.overloaded_ticks")->Add(1);
  m.GetHistogram("shed.ib_tuples")->Observe(static_cast<double>(ib_tuples));
  m.GetHistogram("shed.capacity")->Observe(static_cast<double>(capacity));
}

void RecordShedDrops(telemetry::Telemetry* t, QueryTelemetry* queries,
                     const std::deque<Batch>& ib,
                     const std::vector<size_t>& keep) {
  uint64_t total_tuples = 0;
  uint64_t dropped_tuples = 0;
  uint64_t dropped_batches = 0;
  size_t next_keep = 0;
  for (size_t i = 0; i < ib.size(); ++i) {
    const Batch& b = ib[i];
    total_tuples += b.size();
    if (next_keep < keep.size() && keep[next_keep] == i) {
      ++next_keep;
      continue;
    }
    dropped_tuples += b.size();
    dropped_batches += 1;
    queries->RecordDropped(t, b.header.query_id, b.header.sic, b.size());
  }
  if (dropped_batches == 0) return;
  telemetry::MetricRegistry& m = t->metrics();
  m.GetCounter("shed.dropped_tuples")->Add(dropped_tuples);
  m.GetCounter("shed.dropped_batches")->Add(dropped_batches);
  m.GetHistogram("shed.fraction")
      ->Observe(static_cast<double>(dropped_tuples) /
                static_cast<double>(total_tuples));
}

}  // namespace themis
