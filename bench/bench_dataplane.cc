// Data-plane microbenchmark: raw tuple throughput through one node, with no
// overload and no network, plus the steady-state allocation rate of the
// batch -> ingress-stamping -> window -> aggregate -> result pipeline. This
// is the purest regression signal for the zero-allocation data plane (Value
// scalars, inline tuple payloads, BatchPool recycling, slab event queue);
// the figure benches measure the same machinery under full simulations.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/perf.h"
#include "common/alloc_counter.h"
#include "node/node.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "shedding/random_shedder.h"
#include "sim/event_queue.h"

namespace themis {
namespace bench {
namespace {

// Swallows results.
class NullRouter : public BatchRouter {
 public:
  void RouteBatch(NodeId, QueryId, FragmentId, Batch) override {}
  void DeliverResult(QueryId, SimTime, const std::vector<Tuple>&) override {}
};

// Single-fragment AVG query: receiver -> avg(1s window) -> output.
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

struct Outcome {
  uint64_t tuples = 0;
  uint64_t allocations = 0;
};

// Pushes `batches` batches of `batch_size` tuples through the node, driving
// the event queue to completion after each simulated batch interval. With a
// fast CPU there is no overload, so every tuple is processed.
Outcome Drive(uint64_t batches, size_t batch_size) {
  EventQueue queue;
  NullRouter router;
  NodeOptions options;
  options.cpu_speed = 1000.0;  // never overloaded: pure data-plane path
  Node node(0, options, &queue, &router,
            std::make_unique<RandomShedder>(Rng(7)));
  auto graph = MakeAvgGraph(/*q=*/0, /*src=*/0);
  node.HostFragment(graph.get(), 0);
  node.Start();

  const SimDuration interval = Millis(10);
  Outcome out;
  uint64_t warmup = batches / 10;
  for (uint64_t i = 0; i < batches; ++i) {
    if (i == warmup) {
      // Pools, window buffers and the event slab are warm; what follows is
      // the steady state the zero-allocation design targets.
      out.allocations = AllocCounter::allocations();
      out.tuples = node.stats().tuples_processed;
    }
    Batch b = node.batch_pool()->Acquire();
    b.header.query_id = 0;
    b.header.dest_op = 0;
    b.header.dest_port = 0;
    b.header.source = 0;
    b.header.created = queue.now();
    for (size_t t = 0; t < batch_size; ++t) {
      Tuple& tup = b.tuples.emplace_back();
      tup.timestamp = queue.now();
      tup.values.push_back(static_cast<double>(t));
    }
    node.Receive(std::move(b));
    queue.RunUntil(queue.now() + interval);
  }
  queue.RunUntil(queue.now() + Seconds(2));  // drain the last windows
  out.allocations = AllocCounter::allocations() - out.allocations;
  out.tuples = node.stats().tuples_processed - out.tuples;
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace themis

int main(int argc, char** argv) {
  using namespace themis;
  using namespace themis::bench;
  PerfRecorder perf(argc, argv, "bench_dataplane");
  bool with_telemetry = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--with-telemetry") == 0) with_telemetry = true;
  }
  std::printf("Data-plane microbenchmark: single node, AVG pipeline, no "
              "overload.\n");

  const uint64_t batches = perf.quick() ? 60000 : 200000;
  for (size_t batch_size : {8, 80}) {
    std::string config = "batch_size=" + std::to_string(batch_size);
    perf.BeginRun(config);
    Outcome out = Drive(batches, batch_size);
    perf.EndRun(out.tuples);
    double per_tuple = out.tuples > 0 ? static_cast<double>(out.allocations) /
                                            static_cast<double>(out.tuples)
                                      : 0.0;
    std::printf("%-16s tuples=%-10llu steady-state allocs/tuple=%.4f%s\n",
                config.c_str(),
                static_cast<unsigned long long>(out.tuples), per_tuple,
                AllocCounter::active() ? "" : " (alloc counting inactive)");
  }

  // Opt-in overhead probe (CI gates it within 5% of the plain run): the
  // same hot path with a Telemetry installed, so every per-batch accepted-
  // mass hook and shed-tick hook takes its enabled branch. Default
  // invocations skip this block entirely, keeping their stdout bytes
  // unchanged.
  if (with_telemetry) {
    std::unique_ptr<telemetry::Telemetry> local;
    if (telemetry::Get() == nullptr) {
      local = std::make_unique<telemetry::Telemetry>();
      telemetry::Install(local.get());
    }
    perf.BeginRun("batch_size=80+telemetry");
    Outcome out = Drive(batches, 80);
    perf.EndRun(out.tuples);
    if (local != nullptr) telemetry::Uninstall();
    std::printf("batch_size=80+telemetry tuples=%llu\n",
                static_cast<unsigned long long>(out.tuples));
  }
  return 0;
}
