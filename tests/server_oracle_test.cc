// Oracle equivalence: the real-time server in deterministic mode (manual
// clock, modeled cost accounting, paced admission) must reproduce the
// discrete-event Node's schedule exactly — same admissions, same shed
// decisions, same accepted-SIC totals, busy time, capacity estimates and
// checkpoint captures, bit for bit — on a pinned overloaded multi-query
// scenario. Run both caller-driven (0 workers) and on one real worker
// thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "node/node.h"
#include "runtime/checkpoint.h"
#include "runtime/clock.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "server/oracle_driver.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"

namespace themis {
namespace {

// The pinned scenario. Constraints that make DES/server equality exact:
//  - every operator cost divided by cpu_speed is an integral microsecond
//    count (the DES truncates per-admission work sums once, the server
//    truncates per charge; integral pieces make both exact),
//  - per-batch work stays below the 250 ms shed interval (ticks then always
//    precede same-time admissions, as the event queue schedules them),
//  - arrival times avoid the 250 ms tick grid (coprime periods; first
//    collision at 3.25 s, past the 3.2 s horizon).
constexpr SimTime kHorizon = Millis(3200);
constexpr double kCpuSpeed = 0.01;  // 1 us/tuple costs become 100 us/tuple
constexpr int kQueries = 4;
constexpr SimDuration kPeriods[kQueries] = {Millis(13), Millis(17),
                                            Millis(19), Millis(23)};
constexpr size_t kBatchTuples = 100;

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
  for (size_t i = 0; i < n; ++i) {
    ts.push_back(Tuple(now, 0.0, {Value(static_cast<double>(q) + 1.0)}));
  }
  Batch b = MakeBatch(q, /*op=*/0, /*port=*/0, now, std::move(ts));
  b.header.source = src;
  return b;
}

// Arrival timeline, sorted ascending; same-time order is query order (the
// DES schedules its events in exactly this order, so FIFO ties match).
std::vector<TimedBatch> MakeArrivals(SimTime until = kHorizon) {
  std::vector<TimedBatch> arrivals;
  for (SimTime t = 0; t <= until; t += Millis(1)) {
    for (int q = 0; q < kQueries; ++q) {
      if (t % kPeriods[q] != 0) continue;
      arrivals.push_back(
          TimedBatch{t, SourceBatch(q, /*src=*/10 + q, t, kBatchTuples)});
    }
  }
  return arrivals;
}

std::vector<std::unique_ptr<QueryGraph>> MakeGraphs() {
  std::vector<std::unique_ptr<QueryGraph>> graphs;
  for (int q = 0; q < kQueries; ++q) {
    graphs.push_back(MakeAvgGraph(q, 10 + q));
  }
  return graphs;
}

CheckpointConfig CaptureEvery(SimDuration cadence) {
  CheckpointConfig config;
  config.enabled = true;
  config.cadence = cadence;
  return config;
}

// What one run of either runtime decided.
struct RunOutcome {
  std::map<QueryId, double> accepted_sic;
  std::map<QueryId, uint64_t> accepted_tuples;
  ShedStats stats;
  CheckpointStore::Stats ckpt;
};

// `Runtime` is Node or ServerPipeline: both expose the same accessors.
template <typename Runtime>
RunOutcome Collect(const Runtime& runtime, const CheckpointStore* store) {
  RunOutcome out;
  for (int q = 0; q < kQueries; ++q) {
    out.accepted_sic[q] = runtime.AcceptedSicTotal(q);
    out.accepted_tuples[q] = runtime.AcceptedTuplesTotal(q);
  }
  out.stats = runtime.stats();
  if (store != nullptr) out.ckpt = store->stats();
  return out;
}

void ExpectSameDecisions(const RunOutcome& a, const RunOutcome& b) {
  for (int q = 0; q < kQueries; ++q) {
    SCOPED_TRACE(q);
    EXPECT_EQ(a.accepted_tuples.at(q), b.accepted_tuples.at(q));
    EXPECT_EQ(a.accepted_sic.at(q), b.accepted_sic.at(q));
  }
  EXPECT_EQ(a.stats.tuples_processed, b.stats.tuples_processed);
  EXPECT_EQ(a.stats.tuples_shed, b.stats.tuples_shed);
  EXPECT_EQ(a.stats.batches_shed, b.stats.batches_shed);
  EXPECT_EQ(a.stats.shed_invocations, b.stats.shed_invocations);
}

class NullRouter : public BatchRouter {
 public:
  void RouteBatch(NodeId, QueryId, FragmentId, Batch) override {}
  void DeliverResult(QueryId, SimTime, const std::vector<Tuple>&) override {}
};

RunOutcome RunDes(const CheckpointConfig& ckpt) {
  std::vector<std::unique_ptr<QueryGraph>> graphs = MakeGraphs();
  EventQueue queue;
  NullRouter router;
  NodeOptions options;
  options.cpu_speed = kCpuSpeed;
  Node node(0, options, &queue, &router,
            std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : graphs) node.HostFragment(g.get(), 0);
  node.ConfigureCheckpoints(ckpt);
  node.Start();  // first tick scheduled before any arrival: ties tick-first

  std::vector<TimedBatch> arrivals = MakeArrivals();
  for (TimedBatch& a : arrivals) {
    Batch* b = &a.batch;
    queue.Schedule(a.at, [&node, b] { node.Receive(std::move(*b)); });
  }
  queue.RunUntil(kHorizon);
  return Collect(node, node.checkpoint_store());
}

ServerOptions OracleServerOptions(size_t workers) {
  ServerOptions opts;
  opts.workers = workers;
  opts.cpu_speed = kCpuSpeed;
  // Paced admission, caller-driven ticks, no result-SIC feedback and no
  // channel backpressure: the DES twin has none of them.
  opts.accounting = CostAccounting::kModeled;
  return opts;
}

// Runs the server on fresh graphs; `store` null leaves capture off.
RunOutcome RunServer(size_t workers, CheckpointStore* store,
                     const CheckpointConfig& ckpt) {
  std::vector<std::unique_ptr<QueryGraph>> graphs = MakeGraphs();
  ManualClock clock;
  ServerPipeline pipeline(OracleServerOptions(workers), &clock,
                          std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : graphs) pipeline.AddQuery(g.get());
  if (store != nullptr) pipeline.EnableCheckpoints(store, ckpt);
  pipeline.Start();
  std::vector<TimedBatch> arrivals = MakeArrivals();
  DriveDeterministic(&pipeline, &clock, &arrivals, kHorizon);
  pipeline.Stop();
  return Collect(pipeline, store);
}

void RunServerAndCompare(size_t workers) {
  const CheckpointConfig ckpt = CaptureEvery(Millis(500));
  RunOutcome des = RunDes(ckpt);
  // Sanity: the scenario genuinely overloads the node, sheds and captures.
  ASSERT_GT(des.stats.tuples_shed, 0u);
  ASSERT_GT(des.stats.tuples_processed, 0u);
  ASSERT_GT(des.ckpt.taken, 0u);

  CheckpointStore store;
  RunOutcome server = RunServer(workers, &store, ckpt);
  ExpectSameDecisions(server, des);
  EXPECT_EQ(server.stats.busy_time, des.stats.busy_time);
  EXPECT_EQ(server.stats.last_capacity, des.stats.last_capacity);
  EXPECT_EQ(server.stats.detector_invocations,
            des.stats.detector_invocations);
  EXPECT_EQ(server.ckpt.taken, des.ckpt.taken);
  EXPECT_EQ(server.ckpt.skipped_clean, des.ckpt.skipped_clean);
  EXPECT_EQ(server.ckpt.bytes_written, des.ckpt.bytes_written);
}

TEST(ServerOracleTest, CallerDrivenMatchesDes) { RunServerAndCompare(0); }

TEST(ServerOracleTest, SingleWorkerThreadMatchesDes) { RunServerAndCompare(1); }

// Records the disseminated result SIC the shedder is shown, then defers to
// BALANCE-SIC.
class SicViewRecorder : public Shedder {
 public:
  std::vector<size_t> SelectBatchesToKeep(const std::deque<Batch>& ib,
                                          const ShedContext& ctx) override {
    calls += 1;
    for (double sic : *ctx.query_sic) {
      max_query_sic = std::max(max_query_sic, sic);
    }
    return inner_.SelectBatchesToKeep(ib, ctx);
  }
  const char* name() const override { return "sic-view-recorder"; }

  int calls = 0;
  double max_query_sic = 0.0;

 private:
  BalanceSicShedder inner_{Rng(7)};
};

// The DES twin has no coordinator, so a kModeled server must not feed its
// result SIC back to the shedder either, however long results flow. (The
// pinned scenario above ends before its first window closes, so it cannot
// tell.)
TEST(ServerOracleTest, ModeledRunShowsTheShedderNoResultSic) {
  const SimTime until = Seconds(8);
  std::vector<std::unique_ptr<QueryGraph>> graphs = MakeGraphs();
  ManualClock clock;
  auto recorder = std::make_unique<SicViewRecorder>();
  SicViewRecorder* view = recorder.get();
  ServerPipeline pipeline(OracleServerOptions(/*workers=*/0), &clock,
                          std::move(recorder));
  for (const auto& g : graphs) pipeline.AddQuery(g.get());
  pipeline.Start();
  std::vector<TimedBatch> arrivals = MakeArrivals(until);
  DriveDeterministic(&pipeline, &clock, &arrivals, until);
  pipeline.Stop();
  for (int q = 0; q < kQueries; ++q) {
    EXPECT_GT(pipeline.ResultTuplesTotal(q), 0u) << q;
  }
  EXPECT_GT(view->calls, 0);
  EXPECT_EQ(view->max_query_sic, 0.0);
}

// --- server checkpoint seam ----------------------------------------------

// Capture rides the server's tick as it rides the DES shed tick: enabling
// checkpoints in deterministic mode must not change a single accepted
// tuple, SIC total or shed decision. The tick also exports the captures as
// infra.ckpt.* telemetry.
TEST(ServerCheckpointTest, CaptureIsByteIdenticalToOff) {
  const CheckpointConfig ckpt = CaptureEvery(Millis(500));
  RunOutcome off = RunServer(/*workers=*/0, nullptr, ckpt);

  telemetry::Telemetry telemetry;
  telemetry::Install(&telemetry);
  CheckpointStore store;
  RunOutcome on = RunServer(/*workers=*/0, &store, ckpt);
  telemetry::Uninstall();

  ASSERT_GT(store.stats().taken, 0u);  // genuinely captured
  ExpectSameDecisions(on, off);
  EXPECT_EQ(telemetry.metrics().GetCounter("infra.ckpt.taken")->Value(),
            store.stats().taken);
}

// Process-restart model: a fresh pipeline hosting twin graphs restores the
// previous incarnation's operator state from the shared store before
// Start(). The twins' re-serialized images are byte-equal to the stored
// ones — the restore hit every (query, operator) pair, none were missed.
TEST(ServerCheckpointTest, RestartRestoresEveryOperatorFromTheStore) {
  std::vector<std::unique_ptr<QueryGraph>> graphs = MakeGraphs();
  ManualClock clock;
  const ServerOptions opts = OracleServerOptions(/*workers=*/0);
  CheckpointStore store;
  const CheckpointConfig config = CaptureEvery(Millis(250));
  {
    ServerPipeline pipeline(opts, &clock,
                            std::make_unique<BalanceSicShedder>(Rng(7)));
    for (const auto& g : graphs) pipeline.AddQuery(g.get());
    pipeline.EnableCheckpoints(&store, config);
    pipeline.Start();
    std::vector<TimedBatch> arrivals = MakeArrivals();
    DriveDeterministic(&pipeline, &clock, &arrivals, kHorizon);
    pipeline.Stop();
  }
  // Every operator of every query has an image (3 ops per avg graph).
  ASSERT_EQ(store.size(), static_cast<size_t>(3 * kQueries));

  // "Restart": twin graphs (same builder, same ids), fresh pipeline, same
  // durable store.
  std::vector<std::unique_ptr<QueryGraph>> twins = MakeGraphs();
  ManualClock clock2;
  ServerPipeline restarted(opts, &clock2,
                           std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : twins) restarted.AddQuery(g.get());
  restarted.EnableCheckpoints(&store, config);
  restarted.RestoreHostedFromStore();
  EXPECT_EQ(store.stats().restores, static_cast<uint64_t>(3 * kQueries));
  EXPECT_EQ(store.stats().missed, 0u);

  for (int q = 0; q < kQueries; ++q) {
    const QueryGraph* twin = twins[q].get();
    for (FragmentId frag : twin->fragment_ids()) {
      for (OperatorId oid : twin->fragment_ops(frag)) {
        SCOPED_TRACE(testing::Message() << "q=" << q << " op=" << oid);
        const CheckpointStore::Entry* entry = store.Find(q, oid);
        ASSERT_NE(entry, nullptr);
        CheckpointWriter w;
        twin->op(oid)->Checkpoint(&w);
        EXPECT_EQ(w.bytes(), entry->bytes);
      }
    }
  }
}

}  // namespace
}  // namespace themis
