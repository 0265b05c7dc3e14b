// Microbenchmarks: PACM's eviction decision — the knapsack DP, the greedy
// fallback, and the fairness-constrained solve — at realistic AP scales
// (a 5 MB cache holds on the order of 100-1000 objects).
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "core/pacm.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ape;
using namespace ape::core;

std::vector<PacmObject> make_objects(std::size_t n, sim::Rng& rng,
                                     std::int64_t max_size_bytes = 100'000) {
  std::vector<PacmObject> objects;
  objects.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PacmObject o;
    o.key = i;
    o.app = static_cast<AppId>(i % 30);
    o.size_bytes = static_cast<std::size_t>(rng.uniform_int(1'000, max_size_bytes));
    o.priority = rng.bernoulli(0.4) ? 2 : 1;
    o.remaining_ttl_s = rng.uniform_real(30.0, 3600.0);
    o.fetch_latency_ms = rng.uniform_real(20.0, 50.0);
    objects.push_back(std::move(o));
  }
  return objects;
}

std::vector<std::pair<AppId, double>> make_frequencies() {
  std::vector<std::pair<AppId, double>> f;
  for (AppId a = 0; a < 30; ++a) f.emplace_back(a, 0.5 + static_cast<double>(a % 5));
  return f;
}

void BM_KnapsackDp(benchmark::State& state) {
  sim::Rng rng(7);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < state.range(0); ++i) {
    items.push_back(KnapsackItem{rng.uniform_real(1.0, 1000.0),
                                 static_cast<std::size_t>(rng.uniform_int(1'000, 100'000))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_knapsack(items, 5'000'000));
  }
}
BENCHMARK(BM_KnapsackDp)->Arg(50)->Arg(150)->Arg(400);

void BM_KnapsackGreedyFallback(benchmark::State& state) {
  sim::Rng rng(7);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < state.range(0); ++i) {
    items.push_back(KnapsackItem{rng.uniform_real(1.0, 1000.0),
                                 static_cast<std::size_t>(rng.uniform_int(1'000, 100'000))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_knapsack(items, 5'000'000, /*dp_budget=*/1));
  }
}
BENCHMARK(BM_KnapsackGreedyFallback)->Arg(150)->Arg(1000)->Arg(5000);

void BM_PacmSelectEvictions(benchmark::State& state) {
  ApeConfig config;
  PacmSolver solver(config);
  sim::Rng rng(11);
  const auto objects = make_objects(static_cast<std::size_t>(state.range(0)), rng);
  const auto frequencies = make_frequencies();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.select_evictions(objects, 50'000, frequencies));
  }
}
BENCHMARK(BM_PacmSelectEvictions)->Arg(50)->Arg(150)->Arg(400);

void BM_PacmSteadyState(benchmark::State& state) {
  // The solve an AP at capacity runs on every delegated insert: n cached
  // objects of about the default 5 MB in total, a capacity 512 B above
  // them, and one incoming 1-100 kB object.  The knapsack only has to
  // clear that object's overflow.  Equally popular apps keep the kept set
  // fair, so no repair round runs (as on all but ~1 % of paper_pacm solves).
  ApeConfig config;
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(19);
  const auto objects = make_objects(
      n, rng, static_cast<std::int64_t>(2 * config.cache_capacity_bytes / n) - 1'000);
  std::size_t cached_bytes = 0;
  for (const auto& o : objects) cached_bytes += o.size_bytes;
  config.cache_capacity_bytes = cached_bytes + 512;
  const auto incoming = static_cast<std::size_t>(rng.uniform_int(1'000, 100'000));
  PacmSolver solver(config);
  std::vector<std::pair<AppId, double>> frequencies;
  for (AppId a = 0; a < 30; ++a) frequencies.emplace_back(a, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.select_evictions(objects, incoming, frequencies));
  }
}
BENCHMARK(BM_PacmSteadyState)->Arg(100)->Arg(1000);

void BM_PacmFairnessRepair(benchmark::State& state) {
  // A hoarding app forces the repair loop to iterate.
  ApeConfig config;
  config.fairness_theta = 0.15;
  PacmSolver solver(config);
  sim::Rng rng(13);
  auto objects = make_objects(static_cast<std::size_t>(state.range(0)), rng);
  for (auto& o : objects) {
    if (o.app == 0) o.size_bytes *= 4;  // app 0 hoards
  }
  const auto frequencies = make_frequencies();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.select_evictions(objects, 50'000, frequencies));
  }
}
BENCHMARK(BM_PacmFairnessRepair)->Arg(100)->Arg(300);

void BM_FairnessGini(benchmark::State& state) {
  sim::Rng rng(17);
  const auto objects = make_objects(static_cast<std::size_t>(state.range(0)), rng);
  const std::vector<bool> kept(objects.size(), true);
  const auto frequencies = make_frequencies();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PacmSolver::fairness(objects, kept, frequencies));
  }
}
BENCHMARK(BM_FairnessGini)->Arg(100)->Arg(1000);

}  // namespace

APE_MICRO_BENCH_MAIN("micro_pacm")
