// Microbenchmarks: object-store operations under each eviction policy —
// the per-request cache work on the AP's hot path.
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "cache/fifo_policy.hpp"
#include "cache/lfu_policy.hpp"
#include "cache/lru_policy.hpp"
#include "cache/object_store.hpp"
#include "core/frequency_tracker.hpp"
#include "core/pacm_policy.hpp"
#include "sim/rng.hpp"

namespace {

using namespace ape;
using cache::CacheEntry;
using cache::CacheStore;

CacheEntry make_entry(std::size_t i, sim::Rng& rng) {
  CacheEntry e;
  e.key = i;
  e.size_bytes = static_cast<std::size_t>(rng.uniform_int(1'000, 100'000));
  e.app_id = static_cast<std::uint32_t>(i % 30);
  e.priority = rng.bernoulli(0.4) ? 2 : 1;
  e.expires = sim::Time{sim::seconds(3600.0)};
  e.fetch_latency = sim::milliseconds(rng.uniform_real(20.0, 50.0));
  return e;
}

template <typename PolicyFactory>
void churn(benchmark::State& state, PolicyFactory factory) {
  for (auto _ : state) {
    state.PauseTiming();
    CacheStore store(5'000'000, factory());
    sim::Rng rng(23);
    state.ResumeTiming();
    for (std::size_t i = 0; i < 500; ++i) {
      store.insert(make_entry(i, rng), sim::Time{sim::seconds(static_cast<double>(i))});
      benchmark::DoNotOptimize(
          store.get(i / 2, sim::Time{sim::seconds(1.0)}));
    }
    benchmark::DoNotOptimize(store.used_bytes());
  }
}

void BM_ChurnLru(benchmark::State& state) {
  churn(state, [] { return std::make_unique<cache::LruPolicy>(); });
}
BENCHMARK(BM_ChurnLru);

void BM_ChurnFifo(benchmark::State& state) {
  churn(state, [] { return std::make_unique<cache::FifoPolicy>(); });
}
BENCHMARK(BM_ChurnFifo);

void BM_ChurnLfu(benchmark::State& state) {
  churn(state, [] { return std::make_unique<cache::LfuPolicy>(); });
}
BENCHMARK(BM_ChurnLfu);

void BM_ChurnPacm(benchmark::State& state) {
  static sim::Simulator sim;
  static core::ApeConfig config;
  static core::FrequencyTracker freq(core::kAlpha, core::kFrequencyWindow);
  for (core::AppId a = 0; a < 30; ++a) freq.record_request(a, sim.now());
  churn(state, [] { return std::make_unique<core::PacmPolicy>(config, sim, freq); });
}
BENCHMARK(BM_ChurnPacm);

void BM_HitLookup(benchmark::State& state) {
  CacheStore store(50'000'000, std::make_unique<cache::LruPolicy>());
  sim::Rng rng(29);
  for (std::size_t i = 0; i < 400; ++i) {
    store.insert(make_entry(i, rng), sim::Time{});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.get(i++ % 400, sim::Time{sim::seconds(1.0)}));
  }
}
BENCHMARK(BM_HitLookup);

}  // namespace

APE_MICRO_BENCH_MAIN("micro_cache")
