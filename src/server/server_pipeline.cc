#include "server/server_pipeline.h"

#include <algorithm>
#include <utility>

#include "runtime/operator.h"

namespace themis {

namespace {

// Credits per execution-node input channel, in both accounting modes.
// Paced (kModeled) admission puts one batch per modeled busy period into a
// channel, so an oracle run never waits on them.
constexpr size_t kChannelCredits = 64;

}  // namespace

class ServerPipeline::IngressTask : public Task {
 public:
  explicit IngressTask(ServerPipeline* owner) : owner_(owner) {}
  RunStatus RunSlice() override { return owner_->IngressSlice(); }

 private:
  ServerPipeline* owner_;
};

ServerPipeline::ServerPipeline(ServerOptions options, Clock* clock,
                               std::unique_ptr<Shedder> shedder)
    : options_(options),
      clock_(clock),
      sched_(options.workers),
      stamper_(options.stw),
      ctl_(options.shed_interval, options.stw, std::move(shedder), &stats_),
      ingress_(std::make_unique<IngressTask>(this)) {
  ib_.set_pool(&pool_);
}

ServerPipeline::~ServerPipeline() { Stop(); }

void ServerPipeline::AddQuery(const QueryGraph* graph) {
  QueryId q = graph->id();
  HostedQuery& hq = queries_[q];
  hq.graph = graph;
  hq.by_op.resize(graph->num_operators());
  hq.pump.clear();
  // Pump order: fragments ascending, topological order within a fragment —
  // the order window pumps visit operators.
  for (size_t frag = 0; frag < graph->num_fragments(); ++frag) {
    for (OperatorId op :
         graph->fragment_ops(static_cast<FragmentId>(frag))) {
      hq.by_op[op] = std::make_unique<ExecNode>(
          static_cast<ServerSite*>(this), &sched_, graph, op,
          kChannelCredits);
      hq.pump.push_back(hq.by_op[op].get());
    }
  }
  std::vector<ExecNode*> peers(hq.by_op.size(), nullptr);
  for (size_t i = 0; i < hq.by_op.size(); ++i) peers[i] = hq.by_op[i].get();
  for (auto& node : hq.by_op) {
    if (node != nullptr) node->set_peers(peers);
  }
}

void ServerPipeline::Start() {
  if (started_) return;
  started_ = true;
  stop_flag_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_tick_ = clock_->NowMicros() + options_.shed_interval;
  }
  if (options_.workers > 0) {
    sched_.Start();
    // Modeled (oracle) runs are tick-driven by the caller via DriveTick; a
    // free-running ticker would race the deterministic schedule.
    if (measured_accounting()) {
      ticker_ = std::thread([this] { TickerLoop(); });
    }
  }
}

void ServerPipeline::Stop() {
  if (!started_) return;
  stop_flag_.store(true, std::memory_order_release);
  clock_->Interrupt();
  {
    std::lock_guard<std::mutex> lock(mu_);
    source_cv_.notify_all();
  }
  if (ticker_.joinable()) ticker_.join();
  sched_.Stop();
  started_ = false;
}

bool ServerPipeline::Push(Batch batch) {
  // Ingest/stamp stage timing (kMeasured only: oracle runs on a manual
  // clock and must not read the wall clock on the data path).
  telemetry::Telemetry* tel = telemetry::Get();
  const bool timed = tel != nullptr && measured_accounting();
  uint64_t ingest_t0 = timed ? tel->tracer().NowMicros() : 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.ib_high_watermark > 0) {
    // Hysteresis: a full IB closes the gate for every source until the
    // ingress (or the shedder) drains it to the low watermark.
    if (ib_.num_tuples() >= options_.ib_high_watermark) {
      source_gate_closed_ = true;
    }
    source_cv_.wait(lock, [this] {
      return stop_flag_.load(std::memory_order_acquire) ||
             !source_gate_closed_;
    });
  }
  if (stop_flag_.load(std::memory_order_acquire)) {
    pool_.Release(std::move(batch));
    return false;
  }
  SimTime now = clock_->NowMicros();
  stats_.batches_received += 1;
  stats_.tuples_received += batch.size();
  auto it = queries_.find(batch.header.query_id);
  if (it == queries_.end()) {
    // Unknown query: drop at ingress, recycling the buffer (as the DES
    // node does).
    pool_.Release(std::move(batch));
    return true;
  }
  if (timed) {
    uint64_t stamp_t0 = tel->tracer().NowMicros();
    stamper_.StampSourceBatch(&batch, now, it->second.graph->num_sources());
    uint64_t stamp_t1 = tel->tracer().NowMicros();
    telemetry::MetricRegistry& m = tel->metrics();
    m.GetHistogram("infra.server.stamp_us")
        ->Observe(static_cast<double>(stamp_t1 - stamp_t0));
    m.GetHistogram("infra.server.ingest_us")
        ->Observe(static_cast<double>(stamp_t1 - ingest_t0));
  } else {
    stamper_.StampSourceBatch(&batch, now, it->second.graph->num_sources());
  }
  ib_.Push(std::move(batch));
  lock.unlock();
  sched_.Notify(ingress_.get());
  return true;
}

RunStatus ServerPipeline::IngressSlice() {
  // Bounded slice: admit up to a fistful of batches, then yield so peers
  // (and, with one worker, execution nodes) interleave.
  for (int budget = 0; budget < 64; ++budget) {
    QueryId q;
    double sic;
    size_t n;
    OperatorId dest_op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!staged_) {
        SimTime now = clock_->NowMicros();
        // Oracle pacing: one batch per modeled busy period, exactly like
        // ProcessNext scheduled at max(now, busy_until).
        if (!measured_accounting() && now < busy_until_) {
          return RunStatus::kIdle;
        }
        std::optional<Batch> b = ib_.Pop();
        WakeSourcesIfDrainedLocked();
        if (!b) return RunStatus::kIdle;
        staged_ = std::move(*b);
      }
      q = staged_->header.query_id;
      sic = staged_->header.sic;
      n = staged_->size();
      dest_op = staged_->header.dest_op;
    }
    // queries_ is immutable after Start; safe to read without the lock.
    auto it = queries_.find(q);
    if (it == queries_.end()) {
      std::lock_guard<std::mutex> lock(mu_);
      pool_.Release(std::move(*staged_));
      staged_.reset();
      continue;
    }
    ExecNode* dest = it->second.by_op[dest_op].get();
    if (!dest->input()->TryPush(&*staged_, ingress_.get(), &sched_)) {
      // Downstream full: stay paused with the batch staged. Admission
      // accounting happens only when it actually lands.
      if (telemetry::Telemetry* tel = telemetry::Get()) {
        tel->metrics().GetCounter("infra.server.credit_stalls")->Add(1);
      }
      return RunStatus::kBlocked;
    }
    staged_.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ctl_.Admit(q, sic, n, clock_->NowMicros());
      if (options_.accounting == CostAccounting::kModeled) {
        ChargeModeledLocked(static_cast<double>(n) *
                            it->second.graph->op(dest_op)
                                ->cost_us_per_tuple() /
                            options_.cpu_speed);
      }
    }
    // Charged wakeups in pump order: the admitted batch's ingest, then a
    // window pass over its query.
    for (ExecNode* e : it->second.pump) e->NotifyCharged();
  }
  return RunStatus::kMoreWork;
}

void ServerPipeline::ChargeModeledLocked(double work_us) {
  // Per-piece truncation; the DES truncates the per-admission sum once.
  // Identical only when each piece is integral — oracle scenarios pin
  // operator costs and cpu_speed so that holds.
  SimDuration w = static_cast<SimDuration>(work_us);
  SimTime now = clock_->NowMicros();
  if (busy_until_ < now) busy_until_ = now;
  busy_until_ += w;
  ctl_.ChargeBusy(w);
}

SimTime ServerPipeline::Watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  SimTime wm = clock_->NowMicros() - options_.window_grace;
  if (!ib_.empty()) {
    wm = std::min(wm, ib_.batches().front().header.created);
  }
  return wm;
}

void ServerPipeline::ChargeModeled(double work_us) {
  if (options_.accounting != CostAccounting::kModeled) return;
  std::lock_guard<std::mutex> lock(mu_);
  ChargeModeledLocked(work_us);
}

void ServerPipeline::RecordMeasuredBusy(SimDuration busy_us) {
  if (options_.accounting != CostAccounting::kMeasured) return;
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    // Operator-execute stage: the slice already measured its own busy
    // time, so this costs no extra clock read.
    tel->metrics()
        .GetHistogram("infra.server.execute_us")
        ->Observe(static_cast<double>(busy_us));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ctl_.ChargeBusy(busy_us);
}

void ServerPipeline::DeliverResult(QueryId query,
                                   const std::vector<Tuple>& results,
                                   SimTime now) {
  double sum = 0.0;
  for (const Tuple& t : results) sum += t.sic;
  std::lock_guard<std::mutex> lock(mu_);
  results_.try_emplace(query, options_.stw)
      .first->second.Add(now, sum, results.size());
}

Batch ServerPipeline::AcquireBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_.Acquire();
}

void ServerPipeline::ReleaseBatch(Batch b) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_.Release(std::move(b));
}

void ServerPipeline::BeginTick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ctl_.BeginTick();
  }
  // Uncharged window pump: ascending queries, pump order within a query.
  for (auto& [q, hq] : queries_) {
    for (ExecNode* e : hq.pump) e->NotifyUncharged();
  }
}

void ServerPipeline::DecideTick(bool capture) {
  telemetry::Telemetry* tel = telemetry::Get();
  const bool timed = tel != nullptr && measured_accounting();
  uint64_t shed_t0 = timed ? tel->tracer().NowMicros() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SimTime now = clock_->NowMicros();
    if (capture) {
      ctl_.CaptureCheckpoints(now, [this](const auto& capture_op) {
        ForEachHostedOperator(capture_op);
      });
    }
    // Local stand-in for coordinator dissemination (§5.2): feed the result
    // sinks' trailing-STW SIC back into the shedder's query_sic view. Not
    // under kModeled: the DES twin has no coordinator either.
    if (measured_accounting()) {
      for (auto& [q, acc] : results_) {
        ctl_.UpdateQuerySic(q, acc.tracker.QuerySic(now));
      }
    }
    // Measured busy time is summed across workers; capacity scales with
    // them.
    size_t capacity_scale =
        measured_accounting() ? std::max<size_t>(options_.workers, 1) : 1;
    size_t query_slots = 0;
    if (!queries_.empty()) {
      query_slots = static_cast<size_t>(queries_.rbegin()->first) + 1;
    }
    if (ctl_.Decide(now, &ib_, pool_, query_slots, capacity_scale)) {
      WakeSourcesIfDrainedLocked();
    }
  }
  if (timed) {
    telemetry::MetricRegistry& m = tel->metrics();
    m.GetHistogram("infra.server.shed_us")
        ->Observe(static_cast<double>(tel->tracer().NowMicros() - shed_t0));
    m.GetGauge("infra.server.queue_depth")
        ->Set(static_cast<double>(sched_.queue_depth()));
  }
  sched_.Notify(ingress_.get());
}

void ServerPipeline::TickerLoop() {
  SimTime next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next = next_tick_;
  }
  while (!stop_flag_.load(std::memory_order_acquire)) {
    clock_->WaitUntil(next, stop_flag_);
    if (stop_flag_.load(std::memory_order_acquire)) return;
    if (clock_->NowMicros() < next) continue;  // spurious wakeup
    // Real-time ticks run both halves back to back: the window pump
    // quiesces concurrently with detection, an accepted approximation of
    // DriveTick's pump-then-shed barrier (see EXPERIMENTS.md). Without the
    // barrier no capture is safe, so the ticker takes no checkpoints.
    BeginTick();
    DecideTick(/*capture=*/false);
    next += options_.shed_interval;
    std::lock_guard<std::mutex> lock(mu_);
    next_tick_ = next;
  }
}

void ServerPipeline::WakeSourcesIfDrainedLocked() {
  if (options_.ib_high_watermark == 0) return;
  if (source_gate_closed_ &&
      ib_.num_tuples() <= options_.ib_low_watermark) {
    source_gate_closed_ = false;
    source_cv_.notify_all();
  }
}

void ServerPipeline::NotifyIngress() { sched_.Notify(ingress_.get()); }

void ServerPipeline::RunUntilIdle() { sched_.RunUntilIdle(); }

void ServerPipeline::WaitIdle() { sched_.WaitIdle(); }

void ServerPipeline::Quiesce() {
  if (options_.workers > 0) {
    sched_.WaitIdle();
  } else {
    sched_.RunUntilIdle();
  }
}

SimTime ServerPipeline::NextAdmissionTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  SimTime now = clock_->NowMicros();
  if (staged_.has_value()) return now;
  if (ib_.empty()) return kNever;
  if (measured_accounting()) return now;
  return std::max(busy_until_, now);
}

SimTime ServerPipeline::NextTickTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_tick_;
}

void ServerPipeline::DriveTick() {
  BeginTick();
  Quiesce();  // the window pump settles before capture and detection
  DecideTick(/*capture=*/true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_tick_ += options_.shed_interval;
  }
  Quiesce();
}

void ServerPipeline::EnableCheckpoints(CheckpointStore* store,
                                       CheckpointConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  ctl_.ConfigureCheckpoints(store, config);
}

void ServerPipeline::RestoreHostedFromStore() {
  CheckpointStore* store = ctl_.checkpoint_store();
  if (store == nullptr) return;
  ForEachHostedOperator([store](Operator* op, QueryId q) {
    RestoreOrResetOperator(op, q, store);
  });
}

size_t ServerPipeline::ib_tuples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ib_.num_tuples();
}

double ServerPipeline::AcceptedSic(QueryId q, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  return ctl_.AcceptedSic(q, now);
}

double ServerPipeline::AcceptedSicTotal(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ctl_.AcceptedSicTotal(q);
}

uint64_t ServerPipeline::AcceptedTuplesTotal(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ctl_.AcceptedTuplesTotal(q);
}

uint64_t ServerPipeline::ResultTuplesTotal(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = results_.find(q);
  return it == results_.end() ? 0 : it->second.total_tuples;
}

}  // namespace themis
