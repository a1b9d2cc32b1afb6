// themis_telemetry tests: histogram bucket-boundary pins, deterministic
// merge (metric snapshots byte-identical run-to-run and across shard
// counts on a sharded scale scenario), zero allocations on the disabled
// path, tracer ring wraparound, the server-vs-DES snapshot oracle (the
// shared shed-seam hooks must make a kModeled server run's metric
// snapshot match the discrete-event Node's bit for bit), and the
// autoscaler's structured decision log captured through the logging sink.
//
// Every suite name starts with "Telemetry" so the TSan CI job's -R filter
// picks the whole file up: the registry's lanes and the tracer's rings
// are the layer's concurrency surface.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_counter.h"
#include "common/logging.h"
#include "federation/elastic_federation.h"
#include "federation/fsps.h"
#include "federation/scale_federation.h"
#include "node/node.h"
#include "node/telemetry_hooks.h"
#include "runtime/clock.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "server/oracle_driver.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"
#include "workload/scale_scenario.h"

namespace themis {
namespace {

using telemetry::Counter;
using telemetry::FixedFromDouble;
using telemetry::FixedToDouble;
using telemetry::Histogram;
using telemetry::MetricRegistry;
using telemetry::SpanTracer;
using telemetry::Telemetry;

// RAII install so a failing assertion can't leak a dangling registry into
// the next test.
class ScopedInstall {
 public:
  explicit ScopedInstall(Telemetry* t) { telemetry::Install(t); }
  ~ScopedInstall() { telemetry::Uninstall(); }
};

// --- fixed point and histogram buckets ----------------------------------

TEST(TelemetryFixedPointTest, RoundTripsTypicalValues) {
  // Dyadic values with <= 20 fractional bits are exactly representable.
  for (double v : {0.0, 1.0, 0.5, 0.25, 1234.75, 1e6, 98765.4375}) {
    EXPECT_DOUBLE_EQ(FixedToDouble(FixedFromDouble(v)), v) << v;
    EXPECT_DOUBLE_EQ(FixedToDouble(FixedFromDouble(-v)), -v) << -v;
  }
  // Q44.20: one ulp is 2^-20.
  EXPECT_EQ(FixedFromDouble(1.0), int64_t{1} << 20);
}

TEST(TelemetryHistogramTest, BucketBoundaries) {
  // Nonpositive values land in bucket 0.
  EXPECT_EQ(Histogram::BucketOf(0.0), 0);
  EXPECT_EQ(Histogram::BucketOf(-3.5), 0);
  // frexp exponent + bias: v in [2^(e-1), 2^e) -> bucket e + 32; exact
  // powers of two sit at the bottom of their bucket.
  EXPECT_EQ(Histogram::BucketOf(1.0), 33);
  EXPECT_EQ(Histogram::BucketOf(1.5), 33);
  EXPECT_EQ(Histogram::BucketOf(1.9999), 33);
  EXPECT_EQ(Histogram::BucketOf(2.0), 34);
  EXPECT_EQ(Histogram::BucketOf(0.5), 32);
  EXPECT_EQ(Histogram::BucketOf(0.25), 31);
  EXPECT_EQ(Histogram::BucketOf(100.0), 39);   // 2^6 <= 100 < 2^7
  EXPECT_EQ(Histogram::BucketOf(1024.0), 43);  // == 2^10
  // Clamp at both ends.
  EXPECT_EQ(Histogram::BucketOf(1e-30), 0);
  EXPECT_EQ(Histogram::BucketOf(1e30), Histogram::kBuckets - 1);
}

TEST(TelemetryHistogramTest, CountSumAndBucketsMerge) {
  Histogram h;
  telemetry::SetLane(0);
  h.Observe(1.5);
  h.Observe(1.25);
  telemetry::SetLane(3);
  h.Observe(100.0);
  telemetry::SetLane(0);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 102.75);
  EXPECT_EQ(h.BucketCount(33), 2u);
  EXPECT_EQ(h.BucketCount(39), 1u);
}

// --- deterministic concurrent merge -------------------------------------

TEST(TelemetryMergeTest, ConcurrentLaneWritesMergeExactly) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("merge.counter");
  Histogram* h = registry.GetHistogram("merge.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      telemetry::SetLane(t);
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->Observe(0.25);  // FixedFromDouble is exact: sums merge exactly
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->Count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->SumRaw(),
            int64_t{kThreads} * kPerThread * FixedFromDouble(0.25));
  EXPECT_EQ(h->BucketCount(Histogram::BucketOf(0.25)),
            uint64_t{kThreads} * kPerThread);
}

// One sharded scale run's metric snapshot, non-`infra.` lines only.
std::string ScaleSnapshot(int shards) {
  Telemetry telemetry;
  ScopedInstall install(&telemetry);
  ScaleScenarioOptions so;
  so.nodes = 16;
  so.clusters = 4;
  so.queries = 12;
  so.arrival_wave = 4;
  ScaleScenario scenario = MakeScaleScenario(so);
  FspsOptions fo;
  fo.shards = shards;
  auto fsps = MakeScaleFederation(scenario, fo);
  RunScaleScenario(fsps.get(), scenario, Seconds(5));
  std::string snapshot;
  telemetry.metrics().ExportProm(&snapshot, /*include_infra=*/false);
  return snapshot;
}

TEST(TelemetryMergeTest, ScaleSnapshotIdenticalAcrossShardCounts) {
  std::string at1 = ScaleSnapshot(1);
  EXPECT_FALSE(at1.empty());
  // The run actually exercised the instrumented seams.
  EXPECT_NE(at1.find("shed.ticks "), std::string::npos);
  EXPECT_NE(at1.find("query.0.accepted_tuples "), std::string::npos);
  EXPECT_EQ(ScaleSnapshot(4), at1);
  EXPECT_EQ(ScaleSnapshot(8), at1);
  // Run-to-run.
  EXPECT_EQ(ScaleSnapshot(4), ScaleSnapshot(4));
}

// --- disabled path is allocation-free ------------------------------------

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

TEST(TelemetryDisabledTest, HooksAllocateNothingWhenUninstalled) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());
  ASSERT_EQ(telemetry::Get(), nullptr);
  QueryTelemetry queries;
  std::deque<Batch> ib;
  std::vector<size_t> keep;
  uint64_t before = AllocCounter::allocations();
  for (int i = 0; i < 1000; ++i) {
    Telemetry* tel = telemetry::Get();
    if (tel != nullptr) {
      queries.RecordAccepted(tel, 0, 1.0, 10);
      RecordShedTick(tel, 100, 50, true);
      RecordShedDrops(tel, &queries, ib, keep);
    }
    telemetry::TraceScope span("disabled.span");
  }
  EXPECT_EQ(AllocCounter::allocations(), before);
}

// --- span tracer ---------------------------------------------------------

TEST(TelemetryTracerTest, RingWrapsKeepingNewestSpans) {
  SpanTracer tracer(/*ring_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.Record("span", static_cast<uint64_t>(i), 1);
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  std::string trace;
  tracer.ExportChromeTrace(&trace);
  // Only the 8 newest spans survive: starts 12..19 present, 11 evicted.
  for (int start = 12; start < 20; ++start) {
    std::string needle = "\"ts\":" + std::to_string(start) + ",";
    EXPECT_NE(trace.find(needle), std::string::npos) << start;
  }
  EXPECT_EQ(trace.find("\"ts\":11,"), std::string::npos);
}

TEST(TelemetryTracerTest, TraceScopeRecordsIntoInstalledTracer) {
  Telemetry telemetry;
  {
    ScopedInstall install(&telemetry);
    telemetry::TraceScope span("test.scope");
  }
  EXPECT_EQ(telemetry.tracer().recorded(), 1u);
  std::string trace;
  telemetry.tracer().ExportChromeTrace(&trace);
  EXPECT_NE(trace.find("\"name\":\"test.scope\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
}

// --- server-vs-DES snapshot oracle ---------------------------------------

// Pinned overloaded scenario; constants mirror tests/server_oracle_test.cc
// (integral modeled work, per-batch work under the shed interval, arrival
// periods coprime with the tick grid).
constexpr SimTime kOracleHorizon = Millis(3200);
constexpr double kOracleCpuSpeed = 0.01;
constexpr int kOracleQueries = 4;
constexpr SimDuration kOraclePeriods[kOracleQueries] = {
    Millis(13), Millis(17), Millis(19), Millis(23)};

Batch OracleBatch(QueryId q, SimTime now) {
  std::vector<Tuple> ts;
  ts.reserve(100);
  for (size_t i = 0; i < 100; ++i) {
    ts.push_back(Tuple(now, 0.0, {Value(static_cast<double>(q) + 1.0)}));
  }
  Batch b = MakeBatch(q, /*op=*/0, /*port=*/0, now, std::move(ts));
  b.header.source = 10 + q;
  return b;
}

std::vector<TimedBatch> OracleArrivals() {
  std::vector<TimedBatch> arrivals;
  for (SimTime t = 0; t <= kOracleHorizon; t += Millis(1)) {
    for (int q = 0; q < kOracleQueries; ++q) {
      if (t % kOraclePeriods[q] != 0) continue;
      arrivals.push_back(TimedBatch{t, OracleBatch(q, t)});
    }
  }
  return arrivals;
}

class NullRouter : public BatchRouter {
 public:
  void RouteBatch(NodeId, QueryId, FragmentId, Batch) override {}
  void DeliverResult(QueryId, SimTime, const std::vector<Tuple>&) override {}
};

std::string DesOracleSnapshot() {
  Telemetry telemetry;
  ScopedInstall install(&telemetry);
  std::vector<std::unique_ptr<QueryGraph>> graphs;
  for (int q = 0; q < kOracleQueries; ++q) {
    graphs.push_back(MakeAvgGraph(q, 10 + q));
  }
  EventQueue queue;
  NullRouter router;
  NodeOptions options;
  options.cpu_speed = kOracleCpuSpeed;
  Node node(0, options, &queue, &router,
            std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : graphs) node.HostFragment(g.get(), 0);
  node.Start();
  std::vector<TimedBatch> arrivals = OracleArrivals();
  for (TimedBatch& a : arrivals) {
    Batch* b = &a.batch;
    queue.Schedule(a.at, [&node, b] { node.Receive(std::move(*b)); });
  }
  queue.RunUntil(kOracleHorizon);
  EXPECT_GT(node.stats().tuples_shed, 0u);  // a valid overloaded scenario
  std::string snapshot;
  telemetry.metrics().ExportProm(&snapshot, /*include_infra=*/false);
  return snapshot;
}

std::string ServerOracleSnapshot() {
  Telemetry telemetry;
  ScopedInstall install(&telemetry);
  std::vector<std::unique_ptr<QueryGraph>> graphs;
  for (int q = 0; q < kOracleQueries; ++q) {
    graphs.push_back(MakeAvgGraph(q, 10 + q));
  }
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 0;
  opts.cpu_speed = kOracleCpuSpeed;
  opts.accounting = CostAccounting::kModeled;
  ServerPipeline pipeline(opts, &clock,
                          std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : graphs) pipeline.AddQuery(g.get());
  pipeline.Start();
  std::vector<TimedBatch> arrivals = OracleArrivals();
  DriveDeterministic(&pipeline, &clock, &arrivals, kOracleHorizon);
  pipeline.Stop();
  std::string snapshot;
  telemetry.metrics().ExportProm(&snapshot, /*include_infra=*/false);
  return snapshot;
}

TEST(TelemetryOracleTest, ServerModeledSnapshotMatchesDesBitForBit) {
  std::string des = DesOracleSnapshot();
  std::string server = ServerOracleSnapshot();
  EXPECT_FALSE(des.empty());
  EXPECT_NE(des.find("shed.dropped_tuples "), std::string::npos);
  EXPECT_NE(des.find("query.0.accepted_sic_fp "), std::string::npos);
  EXPECT_EQ(server, des);
}

// --- autoscaler decision log ---------------------------------------------

TEST(TelemetryAutoscalerLogTest, DecisionAuditLinesAreCaptured) {
  ScopedLogCapture capture(LogLevel::kDebug);
  Telemetry telemetry;
  ScopedInstall install(&telemetry);

  ChurnScenarioOptions co;
  co.scale.nodes = 16;
  co.scale.clusters = 8;
  co.scale.queries = 12;
  co.scale.arrival_wave = 4;
  co.scale.burst_prob = 0.10;
  co.scale.diurnal_amplitude = 0.5;
  co.scale.diurnal_period = Seconds(8);
  co.churn_horizon = Seconds(20);
  co.crashes_per_wave = 1;
  ChurnScenario scenario = MakeChurnScenario(co);
  AutoscalerOptions ao;
  ao.max_added_nodes = 8;
  FspsOptions fo;
  fo.shards = 1;
  auto fsps = MakeElasticFederation(scenario, fo);
  ElasticRunResult r = RunElasticScenario(fsps.get(), scenario, ao, Seconds(5));
  ASSERT_GT(r.autoscaler.ticks, 0u);
  ASSERT_GT(r.autoscaler.grow_actions, 0u);

  // Every tick logged one structured decision line; grows were acted on.
  EXPECT_TRUE(capture.Contains("autoscaler decision t_us="));
  EXPECT_TRUE(capture.Contains("action=grow"));
  size_t decisions = 0;
  for (const CapturedLog& line : capture.lines()) {
    if (line.msg.find("autoscaler decision ") == 0) {
      ++decisions;
      EXPECT_NE(line.msg.find(" util="), std::string::npos);
      EXPECT_NE(line.msg.find(" action="), std::string::npos);
      EXPECT_NE(line.msg.find(" grow_streak="), std::string::npos);
    }
  }
  EXPECT_EQ(decisions, r.autoscaler.ticks);

  // The same decisions surfaced as registry counters.
  EXPECT_EQ(
      telemetry.metrics().GetCounter("autoscaler.ticks")->Value(),
      r.autoscaler.ticks);
  EXPECT_EQ(
      telemetry.metrics().GetCounter("autoscaler.grow_actions")->Value(),
      r.autoscaler.grow_actions);
}

// --- logging sink --------------------------------------------------------

TEST(TelemetryLogSinkTest, ScopedCaptureFiltersByLevelAndRestores) {
  {
    ScopedLogCapture capture(LogLevel::kInfo);
    THEMIS_LOG(Debug) << "below capture level";
    THEMIS_LOG(Info) << "captured info";
    THEMIS_LOG(Warn) << "captured warn";
    EXPECT_FALSE(capture.Contains("below capture level"));
    EXPECT_TRUE(capture.Contains("captured info"));
    EXPECT_TRUE(capture.Contains("captured warn"));
    ASSERT_EQ(capture.lines().size(), 2u);
    EXPECT_EQ(capture.lines()[0].level, LogLevel::kInfo);
  }
  // Sink restored: logging after the capture must not crash (stderr sink)
  // and the level is back at its default.
  THEMIS_LOG(Info) << "after capture";
}

}  // namespace
}  // namespace themis
