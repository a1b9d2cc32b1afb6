// Wall-clock benchmark of the real-time server pipeline (themis_server).
// Three configurations:
//
//   throughput     closed-loop ingest through a 3-operator AVG query on
//                  live worker threads, source-backpressured by the IB
//                  watermarks. The regression gate pins the calibration-
//                  normalized tuples/s via bench/baseline.json; the repo
//                  targets >= 2M wall-clock tuples/s on an unloaded host.
//   overload-*     open-loop 3x overload with a CPU-burning receiver, once
//                  under BALANCE-SIC and once under random shedding.
//                  Reports Jain's index over per-query accepted SIC
//                  (report-only: wall-clock runs are not deterministic).
//   oracle         deterministic self-check: the server in modeled/paced
//                  mode on a manual clock must reproduce the discrete-event
//                  Node bit for bit on a pinned overloaded scenario. Any
//                  mismatch fails the bench (exit 1).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench/perf.h"
#include "node/node.h"
#include "runtime/clock.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "server/oracle_driver.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"
#include "shedding/random_shedder.h"
#include "sim/event_queue.h"

namespace themis {
namespace bench {
namespace {

std::unique_ptr<QueryGraph> MakeAvgGraph(QueryId q, SourceId src) {
  QueryBuilder b(q, "avg");
  OperatorId recv = b.Add(std::make_unique<ReceiverOp>(), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(src, recv).SetRoot(out);
  return std::move(b.Build()).TakeValue();
}

Batch SourceBatch(QueryId q, SourceId src, SimTime now, size_t n) {
  std::vector<Tuple> ts;
  ts.reserve(n);
  for (size_t i = 0; i < n; ++i) ts.push_back(Tuple(now, 0.0, {Value(1.0)}));
  Batch b = MakeBatch(q, /*op=*/0, /*port=*/0, now, std::move(ts));
  b.header.source = src;
  return b;
}

// ---------------------------------------------------------------------
// Config 1: closed-loop throughput.
// ---------------------------------------------------------------------

void RunThroughput(PerfRecorder& perf, bool quick,
                   const char* config = "throughput") {
  const uint64_t kBatchTuples = 1024;
  const uint64_t kBatches = quick ? 2000 : 10000;

  WallClock clock;
  ServerOptions opts;
  opts.workers = 4;
  opts.ib_high_watermark = 48 * 1024;
  opts.ib_low_watermark = 16 * 1024;
  ServerPipeline p(opts, &clock, std::make_unique<BalanceSicShedder>(Rng(1)));
  auto graph = MakeAvgGraph(1, /*src=*/10);
  p.AddQuery(graph.get());
  p.Start();

  perf.BeginRun(config);
  for (uint64_t i = 0; i < kBatches; ++i) {
    p.Push(SourceBatch(1, 10, clock.NowMicros(), kBatchTuples));
  }
  // Drain: wait until everything admitted so far has been executed.
  while (p.ib_tuples() > 0) std::this_thread::yield();
  p.WaitIdle();
  uint64_t processed = p.stats().tuples_processed;
  perf.EndRun(processed);
  p.Stop();

  std::printf("%s: %llu of %llu tuples processed\n", config,
              static_cast<unsigned long long>(processed),
              static_cast<unsigned long long>(kBatches * kBatchTuples));
}

// ---------------------------------------------------------------------
// Config 2: overload fairness, BALANCE-SIC vs random.
// ---------------------------------------------------------------------

// Receiver that burns real CPU per ingested tuple: the wall-clock stand-in
// for an expensive user operator, driving genuine (measured) overload.
class SpinReceiverOp : public ReceiverOp {
 public:
  explicit SpinReceiverOp(double spin_us) : spin_us_(spin_us) {}
  void Ingest(const std::vector<Tuple>& tuples, int port) override {
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::nanoseconds(static_cast<int64_t>(
                     spin_us_ * 1e3 * static_cast<double>(tuples.size())));
    while (std::chrono::steady_clock::now() < until) {
    }
    ReceiverOp::Ingest(tuples, port);
  }

 private:
  double spin_us_;
};

std::unique_ptr<QueryGraph> MakeSpinGraph(QueryId q, SourceId src,
                                          double spin_us) {
  QueryBuilder b(q, "spin-avg");
  OperatorId recv = b.Add(std::make_unique<SpinReceiverOp>(spin_us), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(src, recv).SetRoot(out);
  return std::move(b.Build()).TakeValue();
}

double Jain(const std::vector<double>& xs) {
  double sum = 0.0, sq = 0.0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

void RunOverload(PerfRecorder& perf, bool quick, bool balance) {
  // Three steady queries plus one that bursts 4x through the middle of the
  // measurement window. The burst outruns the query's trailing rate
  // estimate, so its tuples carry stale (inflated) SIC and it floods the
  // input buffer; blind random shedding keeps tuples in proportion and
  // hands the bursty query an outsized accepted-SIC share, while
  // BALANCE-SIC water-fills it back to the equal share (the paper's §7.5
  // burst story, on the wall clock).
  const int kQueries = 4;
  const double kSteadyRate = 12.0;  // batches/s per query
  const int kBurstQuery = 3;
  const double kBurstFactor = 4.0;
  const size_t kBatchTuples = 500;
  const double kSpinUs = 160.0;  // ~12.5k tuples/s drain on 2 workers
  const double kWarmSeconds = quick ? 0.75 : 2.0;
  const double kSeconds = quick ? 1.5 : 4.0;

  WallClock clock;
  ServerOptions opts;
  opts.workers = 2;
  std::unique_ptr<Shedder> shedder;
  if (balance) {
    shedder = std::make_unique<BalanceSicShedder>(Rng(7));
  } else {
    shedder = std::make_unique<RandomShedder>(Rng(7));
  }
  ServerPipeline p(opts, &clock, std::move(shedder));
  std::vector<std::unique_ptr<QueryGraph>> graphs;
  for (int q = 0; q < kQueries; ++q) {
    graphs.push_back(MakeSpinGraph(q, 10 + q, kSpinUs));
    p.AddQuery(graphs.back().get());
  }
  p.Start();

  // Merged open-loop schedule: (due microsecond offset, query). The warmup
  // phase (steady rates, not measured) converges the per-source rate
  // estimators; the bursty query then runs at kBurstFactor x through the
  // middle third of the measurement window.
  const int64_t warm_us = static_cast<int64_t>(kWarmSeconds * 1e6);
  const int64_t end_us = warm_us + static_cast<int64_t>(kSeconds * 1e6);
  std::vector<std::pair<int64_t, int>> schedule;
  for (int q = 0; q < kQueries; ++q) {
    const int64_t period = static_cast<int64_t>(1e6 / kSteadyRate);
    const int64_t burst_period =
        static_cast<int64_t>(1e6 / (kSteadyRate * kBurstFactor));
    const int64_t burst_from = warm_us + (end_us - warm_us) / 3;
    const int64_t burst_to = warm_us + 2 * (end_us - warm_us) / 3;
    int64_t t = period;
    while (t < end_us) {
      schedule.emplace_back(t, q);
      bool bursting =
          q == kBurstQuery && t >= burst_from && t < burst_to;
      t += bursting ? burst_period : period;
    }
  }
  std::sort(schedule.begin(), schedule.end());

  perf.BeginRun(balance ? "overload-balance-sic" : "overload-random");
  auto start = std::chrono::steady_clock::now();
  std::vector<double> warm_sic(kQueries, 0.0);
  bool warm_taken = false;
  for (const auto& [due, q] : schedule) {
    if (!warm_taken && due >= warm_us) {
      for (int i = 0; i < kQueries; ++i) warm_sic[i] = p.AcceptedSicTotal(i);
      warm_taken = true;
    }
    std::this_thread::sleep_until(start + std::chrono::microseconds(due));
    p.Push(SourceBatch(q, 10 + q, clock.NowMicros(), kBatchTuples));
  }
  // Let the final shed interval elapse so late arrivals get adjudicated.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Processed-tuple throughput here is a function of shed decisions and
  // thread interleaving (1.5x run-to-run swings are normal), so keep these
  // configs out of the throughput gate: 0 = "no tuple-count notion". The
  // fairness metrics below are the runs' actual output.
  perf.EndRun(0);

  std::vector<double> accepted;
  for (int q = 0; q < kQueries; ++q) {
    accepted.push_back(p.AcceptedSicTotal(q) - warm_sic[q]);
  }
  p.Stop();

  double jain = Jain(accepted);
  double mean = 0.0;
  for (double a : accepted) mean += a;
  mean /= kQueries;
  perf.AddMetric("jain", jain);
  perf.AddMetric("mean_accepted_sic", mean);
  std::printf("%s: jain=%.4f mean_accepted_sic=%.4f shed=%llu accepted=[",
              balance ? "overload-balance-sic" : "overload-random", jain,
              mean, static_cast<unsigned long long>(p.stats().tuples_shed));
  for (int q = 0; q < kQueries; ++q) {
    std::printf("%s%.4f", q ? " " : "", accepted[q]);
  }
  std::printf("]\n");
}

// ---------------------------------------------------------------------
// Config 3: oracle self-check against the discrete-event Node.
// ---------------------------------------------------------------------

// Pinned scenario; see tests/server_oracle_test.cc for why these constants
// make DES/server equality exact (integral modeled work, per-batch work
// under the shed interval, arrival periods coprime with the tick grid).
constexpr double kOracleCpuSpeed = 0.01;
constexpr int kOracleQueries = 4;
constexpr SimDuration kOraclePeriods[kOracleQueries] = {Millis(13), Millis(17),
                                                        Millis(19), Millis(23)};

std::vector<TimedBatch> MakeOracleArrivals(SimTime horizon) {
  std::vector<TimedBatch> arrivals;
  for (SimTime t = 0; t <= horizon; t += Millis(1)) {
    for (int q = 0; q < kOracleQueries; ++q) {
      if (t % kOraclePeriods[q] != 0) continue;
      arrivals.push_back(TimedBatch{t, SourceBatch(q, 10 + q, t, 100)});
    }
  }
  return arrivals;
}

class NullRouter : public BatchRouter {
 public:
  void RouteBatch(NodeId, QueryId, FragmentId, Batch) override {}
  void DeliverResult(QueryId, SimTime, const std::vector<Tuple>&) override {}
};

int RunOracle(PerfRecorder& perf, bool quick) {
  const SimTime kHorizon = quick ? Millis(1600) : Millis(3200);
  // Each runtime hosts its own graphs: operators carry window state, and
  // the server must start as empty as the DES did.
  auto make_graphs = [] {
    std::vector<std::unique_ptr<QueryGraph>> graphs;
    for (int q = 0; q < kOracleQueries; ++q) {
      graphs.push_back(MakeAvgGraph(q, 10 + q));
    }
    return graphs;
  };
  std::vector<std::unique_ptr<QueryGraph>> des_graphs = make_graphs();
  std::vector<std::unique_ptr<QueryGraph>> server_graphs = make_graphs();

  perf.BeginRun("oracle");
  EventQueue queue;
  NullRouter router;
  NodeOptions node_options;
  node_options.cpu_speed = kOracleCpuSpeed;
  Node node(0, node_options, &queue, &router,
            std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : des_graphs) node.HostFragment(g.get(), 0);
  node.Start();
  std::vector<TimedBatch> des_arrivals = MakeOracleArrivals(kHorizon);
  for (TimedBatch& a : des_arrivals) {
    Batch* b = &a.batch;
    queue.Schedule(a.at, [&node, b] { node.Receive(std::move(*b)); });
  }
  queue.RunUntil(kHorizon);

  ManualClock clock;
  ServerOptions opts;
  opts.workers = 0;
  opts.cpu_speed = kOracleCpuSpeed;
  opts.accounting = CostAccounting::kModeled;
  ServerPipeline pipeline(opts, &clock,
                          std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : server_graphs) pipeline.AddQuery(g.get());
  pipeline.Start();
  std::vector<TimedBatch> arrivals = MakeOracleArrivals(kHorizon);
  DriveDeterministic(&pipeline, &clock, &arrivals, kHorizon);
  pipeline.Stop();
  perf.EndRun(pipeline.stats().tuples_processed);

  int mismatches = 0;
  for (int q = 0; q < kOracleQueries; ++q) {
    if (pipeline.AcceptedTuplesTotal(q) != node.AcceptedTuplesTotal(q) ||
        pipeline.AcceptedSicTotal(q) != node.AcceptedSicTotal(q)) {
      std::fprintf(stderr,
                   "oracle MISMATCH query %d: server %llu tuples "
                   "(sic %.17g) vs DES %llu tuples (sic %.17g)\n",
                   q,
                   static_cast<unsigned long long>(
                       pipeline.AcceptedTuplesTotal(q)),
                   pipeline.AcceptedSicTotal(q),
                   static_cast<unsigned long long>(node.AcceptedTuplesTotal(q)),
                   node.AcceptedSicTotal(q));
      ++mismatches;
    }
  }
  if (pipeline.stats().tuples_processed != node.stats().tuples_processed ||
      pipeline.stats().tuples_shed != node.stats().tuples_shed ||
      pipeline.stats().shed_invocations != node.stats().shed_invocations) {
    std::fprintf(stderr,
                 "oracle MISMATCH totals: server %llu/%llu/%llu vs "
                 "DES %llu/%llu/%llu (processed/shed/invocations)\n",
                 static_cast<unsigned long long>(
                     pipeline.stats().tuples_processed),
                 static_cast<unsigned long long>(pipeline.stats().tuples_shed),
                 static_cast<unsigned long long>(
                     pipeline.stats().shed_invocations),
                 static_cast<unsigned long long>(
                     node.stats().tuples_processed),
                 static_cast<unsigned long long>(node.stats().tuples_shed),
                 static_cast<unsigned long long>(
                     node.stats().shed_invocations));
    ++mismatches;
  }
  if (node.stats().tuples_shed == 0) {
    std::fprintf(stderr, "oracle scenario did not shed: not a valid check\n");
    ++mismatches;
  }
  perf.AddMetric("oracle_match", mismatches == 0 ? 1.0 : 0.0);
  std::printf("oracle: %s (processed=%llu shed=%llu)\n",
              mismatches == 0 ? "server == DES, bit for bit" : "MISMATCH",
              static_cast<unsigned long long>(node.stats().tuples_processed),
              static_cast<unsigned long long>(node.stats().tuples_shed));
  return mismatches;
}

}  // namespace
}  // namespace bench
}  // namespace themis

int main(int argc, char** argv) {
  using namespace themis::bench;
  PerfRecorder perf(argc, argv, "bench_server_pipeline");
  bool with_telemetry = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--with-telemetry") == 0) with_telemetry = true;
  }
  std::printf("Real-time server pipeline: wall-clock throughput, overload "
              "fairness, DES oracle check.\n");

  RunThroughput(perf, perf.quick());
  // Opt-in overhead probe (CI gates it within 5% of the plain run): the
  // same closed-loop drive with a Telemetry installed, so the per-stage
  // wall-clock histograms and per-batch accepted hooks take their enabled
  // branches. Default invocations skip this, keeping stdout unchanged.
  if (with_telemetry) {
    std::unique_ptr<themis::telemetry::Telemetry> local;
    if (themis::telemetry::Get() == nullptr) {
      local = std::make_unique<themis::telemetry::Telemetry>();
      themis::telemetry::Install(local.get());
    }
    RunThroughput(perf, perf.quick(), "throughput+telemetry");
    if (local != nullptr) themis::telemetry::Uninstall();
  }
  RunOverload(perf, perf.quick(), /*balance=*/true);
  RunOverload(perf, perf.quick(), /*balance=*/false);
  int mismatches = RunOracle(perf, perf.quick());
  if (mismatches > 0) {
    std::fprintf(stderr, "bench_server_pipeline: oracle check FAILED\n");
    return 1;
  }
  return 0;
}
