// The wall-clock workload: one ServerPipeline site with 2 workers and its
// shed ticker, fed by an open-loop generator on the calling thread (4
// threads in all). 32 queries (AVG, 0.99-quantile, top-5 and group-by AVG
// over 250 ms windows sliding by 25 ms) with per-query rates weighted
// 1/2/4 run a nominal phase at 800K tuples/s and then an overload phase at
// 2.8M tuples/s, during whose middle third one query bursts 4x. Every
// tuple is stamped with the time it was due, so a generator that falls
// behind shows up as latency instead of as a lighter load.
//
// Windows no longer than the 250 ms shed interval keep the cost model's
// per-interval busy time proportional to the tuples admitted in that
// interval. With 1 s windows sliding by 100 ms (the same ten copies per
// tuple), the pane work of the last second lands on intervals whose
// admissions the shedder already cut, the per-tuple cost estimate climbs
// and capacity collapses in some runs: on a 4-vCPU VM the capacity
// estimate's interquartile range across seeds was 32% of its median,
// against 6% with these windows.
//
// Probe operators wrapped around each query measure, on the pipeline's own
// clock, the delay from due time to the first operator (admission) and
// from pane end to the result's arrival at the root (result latency).
#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "measure.h"
#include "runtime/clock.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "runtime/operators/statistics.h"
#include "runtime/operators/topk.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"

namespace themis {
namespace e2e {
namespace {

constexpr int kQueries = 32;
constexpr size_t kBatchTuples = 100;
constexpr int64_t kKeys = 16;
constexpr SourceId kFirstSource = 100;
constexpr double kBurstFactor = 4.0;
constexpr size_t kWorkers = 2;
/// Set-ups per run, the live episode's included: one is a few ms, too
/// short for a single sample to be stable.
constexpr int kSetups = 10;
constexpr SimDuration kWindow = Millis(250);
constexpr SimDuration kSlide = Millis(25);

struct Rates {
  double nominal = 8e5;      ///< tuples/s offered in warm-up and nominal phase
  double overload = 2.8e6;  ///< tuples/s offered in the overload phase
};

/// (reference time, latency) pairs in pipeline-clock microseconds, appended
/// from worker threads. Storage is reserved up front so recording never
/// allocates on the data path.
class LatencyLog {
 public:
  explicit LatencyLog(size_t capacity) { entries_.reserve(capacity); }

  void Record(SimTime at, SimTime latency) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() < entries_.capacity()) {
      entries_.emplace_back(at, latency);
    } else {
      ++overflow_;
    }
  }

  /// Latencies (ms) of entries whose reference time is in [from, to).
  Samples Between(SimTime from, SimTime to) const {
    std::lock_guard<std::mutex> lock(mu_);
    Samples out;
    for (const auto& [at, latency] : entries_) {
      if (at >= from && at < to) out.Add(static_cast<double>(latency) / 1e3);
    }
    return out;
  }

  uint64_t overflow() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overflow_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<SimTime, SimTime>> entries_;
  uint64_t overflow_ = 0;
};

/// First operator of every query: records due time -> ingest per batch.
class AdmitProbe : public ReceiverOp {
 public:
  AdmitProbe(const Clock* clock, LatencyLog* log) : clock_(clock), log_(log) {}

  void Ingest(const std::vector<Tuple>& tuples, int port) override {
    if (!tuples.empty()) {
      SimTime due = tuples.front().timestamp;
      log_->Record(due, clock_->NowMicros() - due);
    }
    ReceiverOp::Ingest(tuples, port);
  }

 private:
  const Clock* clock_;
  LatencyLog* log_;
};

/// Root of every query: records pane end -> arrival per result pane (all
/// results of one pane carry its end as their timestamp).
class ResultProbe : public OutputOp {
 public:
  ResultProbe(const Clock* clock, LatencyLog* log) : clock_(clock), log_(log) {}

  void Ingest(const std::vector<Tuple>& tuples, int port) override {
    SimTime now = clock_->NowMicros();
    SimTime last = -1;
    for (const Tuple& t : tuples) {
      if (t.timestamp == last) continue;
      last = t.timestamp;
      log_->Record(t.timestamp, now - t.timestamp);
    }
    OutputOp::Ingest(tuples, port);
  }

 private:
  const Clock* clock_;
  LatencyLog* log_;
};

std::unique_ptr<Operator> MakeQueryOperator(int kind) {
  const WindowSpec window = WindowSpec::SlidingTime(kWindow, kSlide);
  switch (kind) {
    case 0:
      return std::make_unique<AggregateOp>(AggregateKind::kAvg, 0, window);
    case 1:
      return std::make_unique<QuantileOp>(0.99, 0, window);
    case 2:
      return std::make_unique<TopKOp>(5, 0, 1, window);
    default:
      return std::make_unique<GroupByAggregateOp>(AggregateKind::kAvg, 1, 0,
                                                  window);
  }
}

/// One due batch of the open-loop schedule.
struct Arrival {
  SimTime due = 0;  ///< offset from the start of the schedule, us
  int query = 0;
};

double Weight(int query) { return static_cast<double>(1 << (query % 3)); }

/// The open-loop arrival schedule, generated as the run goes: each query's
/// next due batch, earliest first and ties by query id. Per-query rates are
/// weighted 1/2/4, and one query bursts through the middle third of the
/// overload phase.
class Schedule {
 public:
  Schedule(uint64_t seed, const Rates& rates, SimTime nominal_end,
           SimTime overload_end)
      : rates_(rates), nominal_end_(nominal_end), overload_end_(overload_end) {
    Rng rng(seed);
    burst_query_ = static_cast<int>(rng.UniformInt(0, kQueries - 1));
    burst_from_ = nominal_end + (overload_end - nominal_end) / 3;
    burst_to_ = nominal_end + 2 * (overload_end - nominal_end) / 3;
    double total_weight = 0.0;
    for (int q = 0; q < kQueries; ++q) total_weight += Weight(q);
    for (int q = 0; q < kQueries; ++q) {
      share_[q] = Weight(q) / total_weight;
      next_[q] = rng.Uniform(0.0, PeriodUs(q, 0));
    }
  }

  /// The next due batch; false once the schedule has ended.
  bool Next(Arrival* arrival) {
    int first = 0;
    for (int q = 1; q < kQueries; ++q) {
      if (Due(q) < Due(first)) first = q;
    }
    const SimTime at = Due(first);
    if (at >= overload_end_) return false;
    *arrival = Arrival{at, first};
    next_[first] += PeriodUs(first, at);
    return true;
  }

 private:
  SimTime Due(int q) const { return static_cast<SimTime>(next_[q]); }

  double PeriodUs(int q, SimTime at) const {
    double rate = (at < nominal_end_ ? rates_.nominal : rates_.overload) *
                  share_[q];
    if (q == burst_query_ && at >= burst_from_ && at < burst_to_) {
      rate *= kBurstFactor;
    }
    return 1e6 * static_cast<double>(kBatchTuples) / rate;
  }

  const Rates rates_;
  const SimTime nominal_end_;
  const SimTime overload_end_;
  int burst_query_ = 0;
  SimTime burst_from_ = 0;
  SimTime burst_to_ = 0;
  double share_[kQueries] = {};
  double next_[kQueries] = {};
};

/// The generated inputs of one live episode: query graphs with their
/// probes, and the arrival schedule.
struct Scenario {
  Scenario(uint64_t seed, const Rates& rates, double warm_s, double phase_s)
      : warm_end(Seconds(warm_s)),
        nominal_end(warm_end + Seconds(phase_s)),
        overload_end(nominal_end + Seconds(phase_s)),
        expected_batches(static_cast<size_t>(
            (rates.nominal * ToSeconds(nominal_end) +
             rates.overload * phase_s * 1.5) /
            static_cast<double>(kBatchTuples))),
        admit(expected_batches + 1024),
        results(static_cast<size_t>(kQueries * 1.2 *
                                    ToSeconds(overload_end) /
                                    ToSeconds(kSlide)) +
                1024),
        schedule(seed, rates, nominal_end, overload_end) {}

  const SimTime warm_end;
  const SimTime nominal_end;
  const SimTime overload_end;
  /// Upper estimate of the batches the schedule yields (the burst
  /// included), for reserving sample storage up front.
  const size_t expected_batches;
  LatencyLog admit;
  LatencyLog results;
  std::vector<std::unique_ptr<QueryGraph>> graphs;
  Schedule schedule;
};

/// Builds the inputs: 32 probe-wrapped query graphs and the schedule.
std::unique_ptr<Scenario> BuildScenario(const Clock* clock, uint64_t seed,
                                        const Rates& rates, double warm_s,
                                        double phase_s) {
  auto s = std::make_unique<Scenario>(seed, rates, warm_s, phase_s);
  for (int q = 0; q < kQueries; ++q) {
    QueryBuilder b(q, "e2e-" + std::to_string(q));
    OperatorId recv =
        b.Add(std::make_unique<AdmitProbe>(clock, &s->admit), 0);
    OperatorId op = b.Add(MakeQueryOperator(q % 4), 0);
    OperatorId out =
        b.Add(std::make_unique<ResultProbe>(clock, &s->results), 0);
    b.Connect(recv, op)
        .Connect(op, out)
        .BindSource(kFirstSource + q, recv)
        .SetRoot(out);
    s->graphs.push_back(std::move(b.Build()).TakeValue());
  }
  return s;
}

/// Counters read at a phase boundary.
struct Snapshot {
  double wall = 0.0;
  ServerStats stats;
  uint64_t result_tuples = 0;
  uint64_t allocs = 0;
  uint64_t pushed = 0;
};

Snapshot Take(const ServerPipeline& p, uint64_t pushed) {
  Snapshot s;
  s.wall = NowSeconds();
  s.allocs = Allocations();
  s.stats = p.stats();
  for (int q = 0; q < kQueries; ++q) {
    s.result_tuples += p.ResultTuplesTotal(q);
  }
  s.pushed = pushed;
  return s;
}

/// Set-up timings of one pipeline.
struct Setup {
  double scenario_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
  Samples add_query_s;
};

/// A started pipeline with its inputs. Members are destroyed in reverse
/// order: the pipeline stops before the graphs and clock it uses go.
struct Live {
  std::unique_ptr<WallClock> clock;
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<ServerPipeline> pipeline;
};

/// Scenario generation, pipeline construction, AddQuery per query, Start.
Live SetUp(uint64_t seed, const Rates& rates, double warm_s, double phase_s,
           Setup* setup) {
  const double start = NowSeconds();
  Live live;
  live.clock = std::make_unique<WallClock>();
  Samples scenario_s, build_s;
  {
    Stopwatch sw("e2e.scenario_build", &scenario_s);
    live.scenario =
        BuildScenario(live.clock.get(), seed, rates, warm_s, phase_s);
  }
  {
    Stopwatch sw("e2e.pipeline_build", &build_s);
    ServerOptions options;
    options.workers = kWorkers;
    options.window_grace = Millis(20);
    // A source time window well inside the ~9 s phases: with the default
    // 10 s, stamps stay inflated by the rate jump for most of the overload.
    options.stw = Seconds(2);
    auto shedder = std::make_unique<BalanceSicShedder>(Rng(seed));
    live.pipeline = std::make_unique<ServerPipeline>(options, live.clock.get(),
                                                     std::move(shedder));
    for (const auto& graph : live.scenario->graphs) {
      Stopwatch add("e2e.add_query", &setup->add_query_s);
      live.pipeline->AddQuery(graph.get());
    }
    live.pipeline->Start();
  }
  setup->scenario_s = scenario_s.Sum();
  setup->build_s = build_s.Sum();
  setup->total_s = NowSeconds() - start;
  return live;
}

/// What one live episode measured.
struct Episode {
  Setup setup;
  Snapshot nominal_start, overload_start, overload_end;
  /// Per 1 s window of the overload phase: admitted tuples/s, and Jain's
  /// index and mean of the queries' trailing-STW accepted SIC at its end.
  Samples goodput, window_jain, window_mean_sic;
  Samples push_nominal_s;
  Samples lag_s;
  Samples admit_nominal_ms, result_nominal_ms, result_overload_ms;
  uint64_t pushed = 0;
  uint64_t refused = 0;
  uint64_t log_overflow = 0;
  ServerStats final_stats;
  std::vector<uint64_t> results_per_query;
  double shed_interval_s = 0.0;
  double live_wall_s = 0.0;
};

Episode RunLive(uint64_t seed, const Rates& rates, double warm_s,
                double phase_s) {
  Episode ep;
  Live live = SetUp(seed, rates, warm_s, phase_s, &ep.setup);
  ServerPipeline& p = *live.pipeline;
  Scenario& s = *live.scenario;
  const Clock& clock = *live.clock;
  ep.shed_interval_s = ToSeconds(p.options().shed_interval);
  ep.push_nominal_s.Reserve(s.expected_batches);
  ep.lag_s.Reserve(s.expected_batches);

  Rng values(seed ^ 0x9e3779b97f4a7c15ull);
  const double live_start = NowSeconds();
  const SimTime base = clock.NowMicros();
  int phase = 0;  // 0 warm-up, 1 nominal, 2 overload
  SimTime next_window = s.nominal_end + kSecond;
  uint64_t window_processed = 0;
  double window_wall = 0.0;
  std::vector<double> sic(kQueries);
  Arrival a;
  while (s.schedule.Next(&a)) {
    if (phase == 0 && a.due >= s.warm_end) {
      ep.nominal_start = Take(p, ep.pushed);
      phase = 1;
    }
    if (phase == 1 && a.due >= s.nominal_end) {
      ep.overload_start = Take(p, ep.pushed);
      window_processed = ep.overload_start.stats.tuples_processed;
      window_wall = ep.overload_start.wall;
      phase = 2;
    }
    if (phase == 2 && a.due >= next_window) {
      const ServerStats st = p.stats();
      const double now = NowSeconds();
      const double admitted =
          static_cast<double>(st.tuples_processed - window_processed);
      ep.goodput.Add(admitted / (now - window_wall));
      window_processed = st.tuples_processed;
      window_wall = now;
      next_window += kSecond;
      for (int q = 0; q < kQueries; ++q) {
        sic[q] = p.AcceptedSic(q, clock.NowMicros());
      }
      ep.window_jain.Add(Jain(sic));
      double mean = 0.0;
      for (double x : sic) mean += x / kQueries;
      ep.window_mean_sic.Add(mean);
    }

    const SimTime due = base + a.due;
    SimTime now = clock.NowMicros();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      now = clock.NowMicros();
    }
    if (phase > 0) ep.lag_s.Add(static_cast<double>(now - due) / 1e6);

    std::vector<Tuple> tuples;
    tuples.reserve(kBatchTuples);
    for (size_t i = 0; i < kBatchTuples; ++i) {
      uint64_t r = values.engine()();
      double value = static_cast<double>(r >> 11) * 0x1.0p-53 * 100.0;
      int64_t key = static_cast<int64_t>(r % kKeys);
      tuples.push_back(Tuple(due, 0.0, {Value(value), Value(key)}));
    }
    Batch batch = MakeBatch(a.query, /*op=*/0, /*port=*/0, due,
                            std::move(tuples));
    batch.header.source = kFirstSource + a.query;
    bool ok = false;
    {
      telemetry::TraceScope span("e2e.push");
      const double t0 = NowSeconds();
      ok = p.Push(std::move(batch));
      if (phase == 1) ep.push_nominal_s.Add(NowSeconds() - t0);
    }
    ep.pushed += kBatchTuples;
    if (!ok) ++ep.refused;
  }
  ep.overload_end = Take(p, ep.pushed);
  // Let the last panes close and their results reach the roots.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  p.Stop();
  ep.live_wall_s = NowSeconds() - live_start;
  ep.final_stats = p.stats();
  for (int q = 0; q < kQueries; ++q) {
    ep.results_per_query.push_back(p.ResultTuplesTotal(q));
  }

  ep.admit_nominal_ms =
      s.admit.Between(base + s.warm_end, base + s.nominal_end);
  ep.result_nominal_ms =
      s.results.Between(base + s.warm_end, base + s.nominal_end);
  ep.result_overload_ms =
      s.results.Between(base + s.nominal_end, base + s.overload_end);
  ep.log_overflow = s.admit.overflow() + s.results.overflow();
  return ep;
}

}  // namespace

void RunServerWorkload(const RunOptions& options, Report* report) {
  Rates rates;
  double warm_s = 1.0;
  if (options.smoke) {
    rates.nominal = 2e5;
    rates.overload = 6e5;
    warm_s = 0.5;
  }
  // The budget: a few set-ups, then one live episode (two in a traced
  // run, untraced then traced) of warm-up + nominal + overload.
  const int live_episodes = options.traced() ? 2 : 1;
  const double phase_s =
      std::max(1.2, (options.seconds / live_episodes - warm_s - 1.0) / 2.0);

  Samples setup_s, scenario_s, build_s, add_query_s, speed;
  // Half the set-ups before the live episode and half after: a sub-ms
  // set-up is at the mercy of the host's state at that moment, and
  // sampling it at both ends of the run halves its spread across runs.
  auto set_up = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Setup setup;
      SetUp(options.seed, rates, warm_s, phase_s, &setup);
      setup_s.Add(setup.total_s);
      scenario_s.Add(setup.scenario_s);
      build_s.Add(setup.build_s);
    }
  };
  speed.Add(MeasureHostSpeed());
  set_up(kSetups / 2);
  speed.Add(MeasureHostSpeed());
  Episode ep = RunLive(options.seed, rates, warm_s, phase_s);
  speed.Add(MeasureHostSpeed());
  set_up(kSetups / 2 - 1);
  std::unique_ptr<telemetry::Telemetry> tel;
  Episode traced;
  if (options.traced()) {
    telemetry::TelemetryOptions to;
    to.trace_ring_capacity = size_t{1} << 20;
    tel = std::make_unique<telemetry::Telemetry>(to);
    telemetry::Install(tel.get());
    traced = RunLive(options.seed, rates, warm_s, phase_s);
    telemetry::Uninstall();
  }
  for (const Episode* e : {&ep, &traced}) {
    if (e->pushed == 0) continue;
    setup_s.Add(e->setup.total_s);
    scenario_s.Add(e->setup.scenario_s);
    build_s.Add(e->setup.build_s);
    add_query_s.Append(e->setup.add_query_s);
  }

  for (const Episode* e : {&ep, &traced}) {
    if (e->pushed == 0) continue;
    const ServerStats& st = e->final_stats;
    report->AddOps(e->pushed / kBatchTuples, e->refused);
    report->Check(st.tuples_received == e->pushed,
                  "pushed tuples equal stats().tuples_received");
    report->Check(st.tuples_processed + st.tuples_shed <= st.tuples_received,
                  "processed + shed <= received");
    bool all_results = true;
    for (uint64_t n : e->results_per_query) all_results = all_results && n > 0;
    report->Check(all_results, "every query delivered results");
    report->Check(e->log_overflow == 0, "probe logs kept every sample");
    report->Check(e->goodput.size() > 0,
                  "the overload phase spans at least one 1 s window");
  }
  const double jain = ep.window_jain.Median();
  report->Check(jain >= 1.0 / kQueries - 1e-12 && jain <= 1.0 + 1e-12,
                "jain lies in [1/n, 1]");

  const Snapshot& n0 = ep.nominal_start;
  const Snapshot& o0 = ep.overload_start;
  const Snapshot& o1 = ep.overload_end;
  const double overload_wall = o1.wall - o0.wall;

  // End to end.
  SetWallClockMetrics(ep.goodput, setup_s, speed, report);
  report->Set("allocs_per_offered_tuple",
              Ratio(static_cast<double>(o1.allocs - n0.allocs),
                    static_cast<double>(o1.pushed - n0.pushed)));
  report->Set("jain", jain, ep.window_jain.size());
  report->Set("mean_sic", ep.window_mean_sic.Median(),
              ep.window_mean_sic.size());

  // Per layer, from the untraced episode.
  report->Set("workload.scenario_build_ms", scenario_s.Median() * 1e3,
              scenario_s.size());
  report->Set("deploy.build_ms", build_s.Median() * 1e3, build_s.size());
  report->Set("deploy.query_us_p50", add_query_s.Percentile(50) * 1e6,
              add_query_s.size());
  report->Set("deploy.query_us_p99", add_query_s.Percentile(99) * 1e6,
              add_query_s.size());
  report->Set("server.push_us_p50", ep.push_nominal_s.Percentile(50) * 1e6,
              ep.push_nominal_s.size());
  report->Set("server.push_us_p99", ep.push_nominal_s.Percentile(99) * 1e6,
              ep.push_nominal_s.size());
  report->Set("server.admit_latency_ms_p50",
              ep.admit_nominal_ms.Percentile(50), ep.admit_nominal_ms.size());
  report->Set("server.admit_latency_ms_p99",
              ep.admit_nominal_ms.Percentile(99), ep.admit_nominal_ms.size());
  report->Set("server.result_latency_ms_p50",
              ep.result_nominal_ms.Percentile(50), ep.result_nominal_ms.size());
  report->Set("server.result_latency_ms_p99",
              ep.result_nominal_ms.Percentile(99), ep.result_nominal_ms.size());
  report->Set("server.overload_result_latency_ms_p50",
              ep.result_overload_ms.Percentile(50),
              ep.result_overload_ms.size());
  report->Set("server.generator_lag_ms_p99", ep.lag_s.Percentile(99) * 1e3,
              ep.lag_s.size());
  report->Set("server.capacity_tuples_per_s",
              static_cast<double>(o1.stats.last_capacity) / ep.shed_interval_s);
  report->Set("runtime.results_per_offered_tuple",
              Ratio(static_cast<double>(o1.result_tuples - n0.result_tuples),
                    static_cast<double>(o1.pushed - n0.pushed)));
  const uint64_t ticks =
      o1.stats.detector_invocations - o0.stats.detector_invocations;
  report->Set("node.shed_ticks", static_cast<double>(ticks));
  report->Set("node.busy_share",
              Ratio(ToSeconds(o1.stats.busy_time - o0.stats.busy_time),
                    static_cast<double>(kWorkers) * overload_wall));
  report->Set("shedding.shed_fraction",
              Ratio(static_cast<double>(o1.stats.tuples_shed -
                                        o0.stats.tuples_shed),
                    static_cast<double>(o1.stats.tuples_received -
                                        o0.stats.tuples_received)));
  report->Set("shedding.overloaded_tick_ratio",
              Ratio(static_cast<double>(o1.stats.shed_invocations -
                                        o0.stats.shed_invocations),
                    static_cast<double>(ticks)));
  report->Note("shards", "1");

  if (tel == nullptr) return;
  // Per layer, from the traced episode's stage metrics.
  telemetry::MetricRegistry& m = tel->metrics();
  const telemetry::Histogram* shed = m.GetHistogram("infra.server.shed_us");
  const telemetry::Histogram* stamp = m.GetHistogram("infra.server.stamp_us");
  const telemetry::Histogram* execute =
      m.GetHistogram("infra.server.execute_us");
  const double hits =
      static_cast<double>(m.GetCounter("infra.pool.row_hits")->Value());
  const double misses =
      static_cast<double>(m.GetCounter("infra.pool.row_misses")->Value());
  report->Set("node.shed_tick_us_mean",
              Ratio(shed->Sum(), static_cast<double>(shed->Count())));
  report->Set("node.shed_tick_share",
              Ratio(shed->Sum() / 1e6, traced.live_wall_s));
  report->Set("server.stamp_us_mean",
              Ratio(stamp->Sum(), static_cast<double>(stamp->Count())));
  report->Set("server.execute_share",
              Ratio(execute->Sum() / 1e6,
                    static_cast<double>(kWorkers) * traced.live_wall_s));
  report->Set("server.credit_stalls",
              static_cast<double>(
                  m.GetCounter("infra.server.credit_stalls")->Value()));
  report->Set("runtime.pool_hit_ratio", Ratio(hits, hits + misses));
  // Occupancy gauges hold plain counts in the raw slot.
  report->Set("runtime.pool_peak_batches",
              static_cast<double>(m.GetGauge("infra.pool.row_peak")->Raw()));
  report->Set("trace.overhead_pct",
              (ep.goodput.Median() / traced.goodput.Median() - 1.0) * 100.0,
              traced.goodput.size());
  ExportTrace(tel.get(), options.trace_file, report);
}

}  // namespace e2e
}  // namespace themis
