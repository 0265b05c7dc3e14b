// Ablation study (DESIGN.md): which ingredients of PACM buy the latency?
//
//   1. cache-management policies at the AP under the identical APE-CACHE
//      workflow: PACM, LRU, LFU, FIFO, GDSF;
//   2. PACM variants: full, no-priority (p=1), no-fairness (theta
//      unconstrained), greedy-only (density heuristic instead of the DP);
//   3. the revalidation extension on top of full PACM.
//
// All runs share the default paper workload (30 apps, 1-100 kB objects,
// 3 runs/min, 5 MB AP cache, 45 simulated minutes).  The `--json` snapshot
// is committed as bench/baselines/ablation.json and diffed at zero
// tolerance over every gauge.
#include "bench_common.hpp"

using namespace ape;

namespace {

struct Row {
  std::string name;
  double latency_ms;
  double p95_ms;
  double hit;
  double high_hit;
};

Row run_case(const std::string& name, testbed::TestbedParams params,
             const std::vector<workload::AppSpec>* apps_override = nullptr) {
  const auto apps = apps_override ? *apps_override : bench::paper_workload();
  const auto config = bench::paper_config(3.0, 45.0);
  params.system = testbed::System::ApeCache;
  const auto result = testbed::run_system(testbed::System::ApeCache, std::move(params),
                                          apps, config);
  return Row{name, result.app_latency_ms.mean(), result.app_latency_ms.percentile(0.95),
             result.hit_ratio(), result.high_priority_hit_ratio()};
}

// Short-TTL, low-pressure variant: objects expire every 2-5 minutes and
// the working set fits the cache, so expired-but-present entries are
// common and revalidation has something to refresh.  (Under heavy churn
// stale copies are evicted before reuse and revalidation rarely fires —
// the 30-app rows above show that regime.)
std::vector<workload::AppSpec> short_ttl_workload() {
  workload::GeneratorParams gen;
  gen.app_count = 8;
  gen.min_ttl_minutes = 2;
  gen.max_ttl_minutes = 5;
  sim::Rng rng(bench::kSeed);
  return workload::generate_apps(gen, rng);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter(argc, argv, "ablation_pacm");
  bench::print_header("Ablation — PACM design choices and cache policies",
                      "extension study (no direct paper counterpart; see DESIGN.md)");

  std::vector<Row> rows;

  // --- policy family under the identical APE workflow --------------------
  rows.push_back(run_case("PACM (full)", {}));
  for (auto [name, policy] :
       {std::pair{"LRU", core::ApRuntime::Policy::Lru},
        std::pair{"LFU", core::ApRuntime::Policy::Lfu},
        std::pair{"FIFO", core::ApRuntime::Policy::Fifo},
        std::pair{"GDSF", core::ApRuntime::Policy::Gdsf}}) {
    testbed::TestbedParams params;
    params.policy_override = policy;
    rows.push_back(run_case(name, std::move(params)));
  }

  // --- PACM internal ablations -------------------------------------------
  {
    testbed::TestbedParams params;
    params.ape.pacm_use_priority = false;
    rows.push_back(run_case("PACM w/o priority", std::move(params)));
  }
  {
    testbed::TestbedParams params;
    params.ape.pacm_use_fairness = false;
    rows.push_back(run_case("PACM w/o fairness", std::move(params)));
  }
  {
    testbed::TestbedParams params;
    params.ape.pacm_force_greedy = true;
    rows.push_back(run_case("PACM greedy-only", std::move(params)));
  }

  // --- extension: conditional-GET revalidation ----------------------------
  {
    testbed::TestbedParams params;
    params.ape.enable_revalidation = true;
    rows.push_back(run_case("PACM + revalidation", std::move(params)));
  }
  {
    const auto short_ttl = short_ttl_workload();
    rows.push_back(run_case("PACM, short TTLs, 8 apps", {}, &short_ttl));
    testbed::TestbedParams params;
    params.ape.enable_revalidation = true;
    rows.push_back(
        run_case("PACM + reval, short TTLs, 8 apps", std::move(params), &short_ttl));
  }

  stats::Table table;
  table.header({"Variant", "app latency ms", "p95 ms", "hit ratio", "high-prio hit"});
  for (const auto& row : rows) {
    table.row({row.name, stats::Table::num(row.latency_ms, 1),
               stats::Table::num(row.p95_ms, 1), stats::Table::num(row.hit, 3),
               stats::Table::num(row.high_hit, 3)});
  }
  table.print(std::cout);

  for (const auto& row : rows) {
    reporter.gauge(row.name + ".latency_ms", row.latency_ms);
    reporter.gauge(row.name + ".p95_ms", row.p95_ms);
    reporter.gauge(row.name + ".hit_ratio", row.hit);
    reporter.gauge(row.name + ".high_hit_ratio", row.high_hit);
  }

  bench::print_note(
      "Reading guide: the priority term is what protects critical-path objects (compare "
      "full vs w/o-priority and vs the priority-blind classics); the exact DP matters at "
      "the margin vs greedy; fairness trades a little utility for per-app equity; "
      "revalidation recovers expired entries without WAN body transfers.");
  return reporter.finish();
}
