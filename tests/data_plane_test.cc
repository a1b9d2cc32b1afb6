// Tests of the zero-allocation data plane: the 16-byte tagged Value with
// StringPool interning, the inline-payload ValueList, BatchPool recycling,
// window-buffer recycling, the move-only UniqueFunction event callback, and
// an end-to-end steady-state allocation regression bound backed by the
// opt-in counting allocator.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/alloc_counter.h"
#include "common/function.h"
#include "common/rng.h"
#include "federation/fsps.h"
#include "runtime/batch_pool.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/statistics.h"
#include "runtime/operators/topk.h"
#include "runtime/schema.h"
#include "runtime/string_pool.h"
#include "runtime/tuple.h"
#include "runtime/value.h"
#include "workload/workloads.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// StringPool + string Values
// ---------------------------------------------------------------------------

TEST(StringPoolTest, InternsAndDeduplicates) {
  StringPool pool;
  uint32_t a = pool.Intern("host-17");
  uint32_t b = pool.Intern("host-42");
  uint32_t a2 = pool.Intern("host-17");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Get(a), "host-17");
  EXPECT_EQ(pool.Get(b), "host-42");
}

TEST(StringPoolTest, ValueEqualityIsContentEqualityWithinAPool) {
  StringPool pool;
  Value a(std::string_view("alpha"), &pool);
  Value b(std::string_view("alpha"), &pool);
  Value c(std::string_view("beta"), &pool);
  EXPECT_TRUE(a.is_string());
  EXPECT_EQ(a, b);  // same content -> same interned id
  EXPECT_NE(a, c);
  EXPECT_EQ(AsStringView(a, &pool), "alpha");
}

TEST(StringPoolTest, DefaultPoolBacksPlainStringValues) {
  Value v(std::string("gamma"));
  EXPECT_EQ(ValueToString(v), "gamma");
  EXPECT_EQ(v, Value(std::string("gamma")));
  // Strings coerce to 0 in numeric views (pre-existing contract).
  EXPECT_DOUBLE_EQ(AsDouble(v), 0.0);
  EXPECT_EQ(AsInt(v), 0);
}

TEST(StringPoolTest, SchemaOwnsASharedPool) {
  Schema s({{"name", FieldType::kString}});
  uint32_t id = s.pool().Intern("x");
  Schema copy = s;  // copies share the pool
  EXPECT_EQ(copy.pool().Intern("x"), id);

  // Sharing holds regardless of copy/first-use ordering: the pool is
  // created with the schema, not lazily on first access.
  Schema original({{"name", FieldType::kString}});
  Schema early_copy = original;
  uint32_t a = original.pool().Intern("y");
  EXPECT_EQ(early_copy.pool().Intern("y"), a);
}

TEST(ValueTest, StaysSixteenBytesAndKindAware) {
  static_assert(sizeof(Value) == 16);
  EXPECT_NE(Value(int64_t{7}), Value(7.0));  // kinds distinguish
  EXPECT_EQ(Value(int64_t{7}), Value(int64_t{7}));
  EXPECT_EQ(Value(7.0), Value(7.0));
}

// ---------------------------------------------------------------------------
// ValueList: inline vs spilled payloads
// ---------------------------------------------------------------------------

TEST(ValueListTest, InlinePayloadDoesNotSpill) {
  ValueList v;
  for (int i = 0; i < 4; ++i) v.push_back(Value(static_cast<double>(i)));
  EXPECT_EQ(v.size(), 4u);
  EXPECT_FALSE(v.spilled());
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(AsDouble(v[i]), static_cast<double>(i));
  }
}

TEST(ValueListTest, WidePayloadSpillsAndKeepsContents) {
  ValueList v;
  for (int i = 0; i < 9; ++i) v.push_back(Value(int64_t{i * 10}));
  EXPECT_EQ(v.size(), 9u);
  EXPECT_TRUE(v.spilled());
  for (int i = 0; i < 9; ++i) EXPECT_EQ(AsInt(v[i]), i * 10);
}

TEST(ValueListTest, CopyAndMoveAcrossTheSpillBoundary) {
  ValueList wide;
  for (int i = 0; i < 6; ++i) wide.push_back(Value(static_cast<double>(i)));

  ValueList copy = wide;  // deep copy of a spilled list
  EXPECT_EQ(copy, wide);

  ValueList moved = std::move(wide);  // steals the heap block
  EXPECT_EQ(moved, copy);
  EXPECT_EQ(wide.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd

  ValueList narrow{Value(1.0), Value(2.0)};
  ValueList narrow_copy = narrow;
  EXPECT_FALSE(narrow_copy.spilled());
  EXPECT_EQ(narrow_copy, narrow);

  // Assigning a small payload over a spilled one reuses/abandons the heap
  // block without losing values.
  copy = narrow;
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_DOUBLE_EQ(AsDouble(copy[1]), 2.0);
}

TEST(ValueListTest, InitializerListAndTupleConstruction) {
  Tuple t(5, 0.25, {Value(int64_t{1}), Value(2.5)});
  EXPECT_EQ(t.timestamp, 5);
  EXPECT_DOUBLE_EQ(t.sic, 0.25);
  ASSERT_EQ(t.values.size(), 2u);
  EXPECT_EQ(AsInt(t.values[0]), 1);
  EXPECT_DOUBLE_EQ(AsDouble(t.values[1]), 2.5);
}

// ---------------------------------------------------------------------------
// BatchPool recycling
// ---------------------------------------------------------------------------

// A batch moves through the data plane and is never copied. Its move does
// not throw, which lets a network hop's closure hold a batch inline.
static_assert(!std::is_copy_constructible_v<Batch>);
static_assert(!std::is_copy_assignable_v<Batch>);
static_assert(std::is_nothrow_move_constructible_v<Batch>);

TEST(BatchPoolTest, RecyclesTupleBufferCapacity) {
  BatchPool pool;
  Batch b = pool.Acquire();
  EXPECT_EQ(pool.misses(), 1u);
  for (int i = 0; i < 100; ++i) {
    b.tuples.push_back(Tuple(i, 0.1, {Value(1.0)}));
  }
  size_t cap = b.tuples.capacity();
  pool.Release(std::move(b));
  EXPECT_EQ(pool.pooled(), 1u);

  Batch reused = pool.Acquire();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(reused.tuples.empty());
  EXPECT_GE(reused.tuples.capacity(), cap);  // capacity survived the trip
}

TEST(BatchPoolTest, AcquiredBatchHasFreshHeaderAndRefreshableSic) {
  BatchPool pool;
  Batch b = pool.Acquire();
  b.header.query_id = 9;
  b.header.sic = 123.0;
  b.tuples.push_back(Tuple(0, 0.5, {Value(1.0)}));
  pool.Release(std::move(b));

  Batch r = pool.Acquire();
  // The recycled batch must not leak the previous header or tuples.
  EXPECT_EQ(r.header.query_id, kInvalidId);
  EXPECT_DOUBLE_EQ(r.header.sic, 0.0);
  EXPECT_TRUE(r.empty());

  r.tuples.push_back(Tuple(0, 0.25, {Value(1.0)}));
  r.tuples.push_back(Tuple(1, 0.5, {Value(2.0)}));
  r.RefreshHeaderSic();
  EXPECT_DOUBLE_EQ(r.header.sic, 0.75);
}

TEST(BatchPoolTest, BoundsThePooledBufferCount) {
  BatchPool pool(/*max_pooled=*/2);
  for (int i = 0; i < 5; ++i) {
    Batch b;
    b.tuples.push_back(Tuple(0, 0.0, {Value(1.0)}));
    pool.Release(std::move(b));
  }
  EXPECT_EQ(pool.pooled(), 2u);
}

// ---------------------------------------------------------------------------
// UniqueFunction (move-only event callbacks)
// ---------------------------------------------------------------------------

TEST(UniqueFunctionTest, RunsInlineAndHeapCallables) {
  int hits = 0;
  UniqueFunction small([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(small));
  small();
  EXPECT_EQ(hits, 1);

  // A capture larger than the inline buffer goes through the heap path.
  struct Big {
    char data[2 * UniqueFunction::kInlineSize] = {};
  };
  Big big;
  big.data[0] = 42;
  UniqueFunction heap([big, &hits] { hits += big.data[0]; });
  heap();
  EXPECT_EQ(hits, 43);
}

TEST(UniqueFunctionTest, MovesOwnershipAndPayload) {
  // Move-only payload: std::function could not hold this lambda at all.
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  UniqueFunction f([p = std::move(payload), &seen] { seen = *p; });
  UniqueFunction g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(seen, 7);

  UniqueFunction h;
  h = std::move(g);
  h();
  EXPECT_EQ(seen, 7);
}

TEST(UniqueFunctionTest, DestroysTargetExactlyOnce) {
  struct Counter {
    explicit Counter(int* d) : dtors(d) {}
    Counter(Counter&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    ~Counter() {
      if (dtors != nullptr) ++*dtors;
    }
    int* dtors;
    void operator()() const {}
  };
  int dtors = 0;
  {
    UniqueFunction f{Counter(&dtors)};
    UniqueFunction g = std::move(f);
    g();
  }
  EXPECT_EQ(dtors, 1);
}

// A network hop (Fsps::RouteBatch) schedules a move-only closure holding the
// destination node's pointer and the moved Batch. Every simulated message
// runs one, so it must stay inline: on the heap it cost one allocation per
// message.
TEST(UniqueFunctionTest, NetworkHopClosureDoesNotAllocate) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());
  int delivered = 0;
  Batch batch = MakeBatch(/*query=*/0, /*op=*/0, /*port=*/0, /*created=*/0,
                          std::vector<Tuple>(3));
  uint64_t allocs_before = AllocCounter::allocations();
  {
    auto hop = [node = &delivered, b = std::move(batch)]() mutable {
      *node += static_cast<int>(b.size());
    };
    static_assert(sizeof(hop) == sizeof(void*) + sizeof(Batch));
    UniqueFunction f(std::move(hop));
    UniqueFunction g(std::move(f));
    UniqueFunction h;
    h = std::move(g);
    h();
  }
  EXPECT_EQ(AllocCounter::allocations() - allocs_before, 0u);
  EXPECT_EQ(delivered, 3);
}

// ---------------------------------------------------------------------------
// Steady-state allocation regression
// ---------------------------------------------------------------------------

// End-to-end single-node run: after warmup, the data plane (source batches,
// ingress stamping, windowing, aggregation, result delivery, pooled batch
// recycling, slab event queue) must run in (near-)zero-allocation steady
// state. The bound is per processed tuple and holds two orders of magnitude
// below the old vector<variant> data plane (which paid multiple allocations
// per tuple).
TEST(AllocationRegressionTest, SteadyStateSingleNodeRunIsAllocationFree) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());

  FspsOptions opts;
  opts.seed = 11;
  Fsps fsps(opts);
  fsps.AddNode();
  WorkloadFactory factory(11);
  for (QueryId q = 0; q < 4; ++q) {
    AggregateQueryOptions ao;
    ao.source_rate = 400.0;
    BuiltQuery built = factory.MakeAvg(q, ao);
    ASSERT_TRUE(fsps.Deploy(std::move(built.graph), {{0, 0}}).ok());
    ASSERT_TRUE(fsps.AttachSources(q, built.sources).ok());
  }

  // Warm up pools, window buffers, trackers and the event slab.
  fsps.RunFor(Seconds(15));

  uint64_t tuples_before = fsps.TotalNodeStats().tuples_processed;
  uint64_t allocs_before = AllocCounter::allocations();
  fsps.RunFor(Seconds(15));
  uint64_t tuples = fsps.TotalNodeStats().tuples_processed - tuples_before;
  uint64_t allocs = AllocCounter::allocations() - allocs_before;

  ASSERT_GT(tuples, 10000u);
  double per_tuple =
      static_cast<double>(allocs) / static_cast<double>(tuples);
  // Measured 0.0067 allocs/tuple (162 allocations over 24,000 tuples). It
  // was 0.0195 (467) while the network-hop closure overflowed
  // UniqueFunction's inline buffer: two thirds of it was one allocation per
  // hop. The old data plane paid >2 allocs/tuple. 0.2 leaves headroom
  // without ever letting per-tuple allocation churn back in.
  EXPECT_LT(per_tuple, 0.2) << "allocations per tuple regressed: allocs="
                            << allocs << " tuples=" << tuples;
}

// A delivery on a sharded network is the hop closure in the event slab plus
// its destination tag in the heap entry's padding: once the slab and heap
// are warm, a send allocates nothing, whatever the shard count.
TEST(AllocationRegressionTest, ShardedNetworkSendIsAllocationFree) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());
  ParallelEngine engine(2);
  Network net(&engine, Millis(1));
  net.SetShardMap({0, 1, 0});  // nodes 0 and 2 share shard 0
  int delivered = 0;
  std::vector<Batch> batches;
  for (int i = 0; i < 128; ++i) {
    batches.push_back(MakeBatch(/*query=*/0, /*op=*/0, /*port=*/0,
                                /*created=*/0, std::vector<Tuple>(1)));
  }
  auto send = [&](size_t first, size_t count) {
    for (size_t i = first; i < first + count; ++i) {
      net.Send(0, 2, 16,
               [node = &delivered, b = std::move(batches[i])]() mutable {
                 *node += static_cast<int>(b.size());
               });
    }
  };
  send(0, 64);
  engine.RunUntil(Millis(10));  // warms the slab and the heap

  uint64_t allocs_before = AllocCounter::allocations();
  send(64, 64);
  uint64_t allocs = AllocCounter::allocations() - allocs_before;
  engine.RunUntil(Millis(20));
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 128);
}

// The server workload's sliding operators (250 ms panes sliding by 25 ms,
// so every tuple lands in ten panes): after a warm-up second the sliding
// ring, the recycled pane buffers and the per-operator scratch are all
// reused, so ingesting and advancing make (almost) no heap allocation. A
// std::deque<Tuple> sliding buffer alone made one allocation per 5 tuples.
TEST(AllocationRegressionTest, SlidingOperatorsReuseTheirBuffers) {
  ForceLinkAllocCounter();
  ASSERT_TRUE(AllocCounter::active());

  const WindowSpec window = WindowSpec::SlidingTime(Millis(250), Millis(25));
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<AggregateOp>(AggregateKind::kAvg, 0, window));
  ops.push_back(std::make_unique<QuantileOp>(0.99, 0, window));
  ops.push_back(std::make_unique<TopKOp>(5, 0, 1, window));
  ops.push_back(
      std::make_unique<GroupByAggregateOp>(AggregateKind::kAvg, 1, 0, window));
  Rng rng(5);
  std::vector<Tuple> batch(100);
  std::vector<Tuple> out;
  uint64_t tuples = 0;
  uint64_t results = 0;
  // One second of 100-tuple batches every millisecond into every operator,
  // advancing every 5 ms with a 20 ms grace.
  auto run_second = [&](SimTime from) {
    for (SimTime now = from; now < from + kSecond; now += Millis(1)) {
      for (Tuple& t : batch) {
        t.timestamp = now;
        t.sic = 1e-6;
        t.values.clear();
        t.values.push_back(Value(rng.Uniform(0.0, 100.0)));
        t.values.push_back(Value(rng.UniformInt(0, 15)));
      }
      for (auto& op : ops) {
        op->Ingest(batch, 0);
        tuples += batch.size();
        if (now % Millis(5) == 0) {
          out.clear();
          op->Advance(now - Millis(20), &out);
          results += out.size();
        }
      }
    }
  };
  run_second(0);
  tuples = 0;
  results = 0;
  const uint64_t allocs_before = AllocCounter::allocations();
  run_second(kSecond);
  const uint64_t allocs = AllocCounter::allocations() - allocs_before;

  ASSERT_EQ(tuples, 400000u);
  ASSERT_GT(results, 0u);
  EXPECT_LT(allocs * 100, tuples) << "allocs=" << allocs;
}

}  // namespace
}  // namespace themis
