#include "sim/parallel_engine.h"

#include <algorithm>
#include <barrier>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace themis {

namespace {

// Shard the calling thread is currently executing, for pinning assertions:
// EnqueueRemote must only ever be reached from the sending shard's worker.
thread_local int tls_running_shard = -1;

}  // namespace

ParallelEngine::ParallelEngine(int shards) {
  THEMIS_CHECK(shards >= 1);
  queues_.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    queues_.push_back(std::make_unique<EventQueue>());
  }
  rings_.resize(static_cast<size_t>(shards) * shards);
  scratch_.resize(shards);
}

ParallelEngine::~ParallelEngine() = default;

uint64_t ParallelEngine::executed() const {
  uint64_t total = 0;
  for (const auto& q : queues_) total += q->executed();
  return total;
}

void ParallelEngine::EnqueueRemote(int from_shard, int to_shard,
                                   SimTime deliver_time, int32_t tag,
                                   UniqueFunction cb) {
  THEMIS_CHECK(tls_running_shard == from_shard);
  // Cross-shard traffic requires a positive epoch width: with lookahead <= 0
  // a shard runs straight to the target and a remote delivery inside that
  // stretch would be missed. Fsps derives the lookahead from the topology
  // whenever any node pair crosses shards, so this firing means a
  // zero-latency cross-shard link (or a bypassed Fsps::Start).
  THEMIS_CHECK(lookahead_ > 0);
  rings_[static_cast<size_t>(from_shard) * queues_.size() + to_shard]
      .items.push_back({deliver_time, tag, std::move(cb)});
}

void ParallelEngine::MergeInbox(int shard) {
  const size_t shards = queues_.size();
  std::vector<Pending>& merged = scratch_[shard].items;
  merged.clear();
  for (size_t from = 0; from < shards; ++from) {
    std::vector<Pending>& ring = rings_[from * shards + shard].items;
    for (Pending& p : ring) merged.push_back(std::move(p));
    ring.clear();  // keeps capacity: rings are allocation-free in steady state
  }
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    tel->metrics()
        .GetHistogram("infra.parsim.inbox_depth")
        ->Observe(static_cast<double>(merged.size()));
  }
  // Rings were appended in (from_shard, ring_seq) order; the stable sort
  // over delivery time alone therefore realises the documented total order
  // (deliver_time, from_shard, ring_seq) without materialising the key.
  std::stable_sort(
      merged.begin(), merged.end(),
      [](const Pending& a, const Pending& b) { return a.time < b.time; });
  EventQueue* q = queues_[shard].get();
  for (Pending& p : merged) q->Schedule(p.time, std::move(p.cb), p.tag);
  merged.clear();
}

void ParallelEngine::RunUntil(SimTime t) {
  telemetry::TraceScope run_span("parsim.run_until");
  const int shards = num_shards();
  if (t <= now_) {
    // RunFor(0) semantics: run events at exactly the current clock, shard
    // by shard on the driver thread (deterministic), then merge once so
    // any cross-shard sends are queued for the next run.
    for (int s = 0; s < shards; ++s) {
      tls_running_shard = s;
      queues_[s]->RunUntil(std::max(queues_[s]->now(), t));
    }
    for (int s = 0; s < shards; ++s) MergeInbox(s);
    tls_running_shard = -1;
    return;
  }
  if (shards == 1) {
    // One shard: no cross-shard traffic possible, no epoch machinery — the
    // driver thread runs the single queue straight to the target.
    queues_[0]->RunUntil(t);
    now_ = t;
    return;
  }

  std::barrier barrier(shards);
  const SimTime start = now_;
  const SimDuration lookahead = lookahead_;
  // Epoch metrics: handles resolved once per run, shared by all workers
  // (per-lane slots make the writes contention- and merge-order-free).
  telemetry::Telemetry* tel = telemetry::Get();
  telemetry::Counter* epochs_c = nullptr;
  telemetry::Histogram* busy_h = nullptr;
  telemetry::Histogram* wait_h = nullptr;
  if (tel != nullptr) {
    epochs_c = tel->metrics().GetCounter("infra.parsim.epochs");
    busy_h = tel->metrics().GetHistogram("infra.parsim.epoch_busy_us");
    wait_h = tel->metrics().GetHistogram("infra.parsim.epoch_wait_us");
  }
  auto worker = [this, start, t, lookahead, &barrier, tel, epochs_c, busy_h,
                 wait_h](int shard) {
    tls_running_shard = shard;
    telemetry::SetLane(shard);
    EventQueue* q = queues_[shard].get();
    // Zero-width boundary epoch first: events pending at exactly `start`
    // (scheduled by the driver between runs, or clamped to the clock) run
    // and merge before any shard moves past `start`. Afterwards every epoch
    // covers the half-open range (cur, next]: an event executing at time
    // x > cur sends deliveries to >= x + lookahead > next, so they land in
    // a strictly later epoch — and a delivery at exactly `next + lookahead`
    // still merges before the epoch that ends there runs. Without the
    // boundary epoch, a send at exactly `start` with latency == lookahead
    // would deliver at the first epoch's own end, after the destination
    // already ran past it.
    SimTime cur = start;
    bool boundary = lookahead > 0;
    while (boundary || cur < t) {
      SimTime next;
      if (boundary) {
        next = cur;
        boundary = false;
      } else if (lookahead > 0) {
        next = std::min<SimTime>(t, cur + lookahead);
      } else {
        next = t;
      }
      uint64_t t0 = tel != nullptr ? tel->tracer().NowMicros() : 0;
      q->RunUntil(next);
      if (tel != nullptr) {
        uint64_t t1 = tel->tracer().NowMicros();
        busy_h->Observe(static_cast<double>(t1 - t0));
        t0 = t1;
      }
      barrier.arrive_and_wait();  // all sends of this epoch are buffered
      if (tel != nullptr) {
        wait_h->Observe(
            static_cast<double>(tel->tracer().NowMicros() - t0));
        epochs_c->Add(1);
      }
      MergeInbox(shard);
      barrier.arrive_and_wait();  // merges done before anyone writes rings
      cur = next;
    }
    tls_running_shard = -1;
    telemetry::SetLane(0);
  };

  std::vector<std::thread> threads;
  threads.reserve(shards - 1);
  for (int s = 1; s < shards; ++s) {
    threads.emplace_back(worker, s);
  }
  worker(0);  // the driver thread runs shard 0
  for (std::thread& th : threads) th.join();
  now_ = t;
}

}  // namespace themis
