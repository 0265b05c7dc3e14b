#include "core/pacm.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

#include "obs/observer.hpp"
#include "obs/wallclock.hpp"
#include "stats/gini.hpp"

namespace ape::core {

namespace {
constexpr double kFrequencyFloor = 1e-3;

double frequency_of(AppId app, const std::vector<std::pair<AppId, double>>& frequencies) {
  for (const auto& [a, f] : frequencies) {
    if (a == app) return std::max(f, kFrequencyFloor);
  }
  return kFrequencyFloor;
}
}  // namespace

double PacmSolver::utility(const PacmObject& object, double app_frequency) {
  // U_d = R(A_d) * e_d * l_d * p_d.  Units: requests/window * seconds * ms
  // * priority — only relative magnitudes matter to the argmax.
  return std::max(app_frequency, kFrequencyFloor) * object.remaining_ttl_s *
         object.fetch_latency_ms * static_cast<double>(object.priority);
}

double PacmSolver::fairness(const std::vector<PacmObject>& objects,
                            const std::vector<bool>& kept,
                            const std::vector<std::pair<AppId, double>>& frequencies) {
  assert(objects.size() == kept.size());
  // Ordered by AppId so the efficiency vector (and hence the Gini fold) is
  // byte-identical across runs.
  std::map<AppId, double> bytes_by_app;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (kept[i]) bytes_by_app[objects[i].app] += static_cast<double>(objects[i].size_bytes);
  }
  if (bytes_by_app.size() < 2) return 0.0;  // one app cannot be unfair to itself

  std::vector<double> efficiency;
  efficiency.reserve(bytes_by_app.size());
  for (const auto& [app, bytes] : bytes_by_app) {
    efficiency.push_back(bytes / frequency_of(app, frequencies));
  }
  return stats::gini(efficiency);
}

void PacmSolver::record_solve(const PacmDecision& decision, std::size_t candidates,
                              const obs::WallClockTimer& timer) const {
  obs::MetricsRegistry& m = observer_->metrics();
  m.counter("pacm.solves").add();
  m.counter(decision.exact ? "pacm.exact" : "pacm.greedy").add();
  m.counter("pacm.evictions").add(decision.evict.size());
  if (!decision.fairness_satisfied) m.counter("pacm.fairness_unsatisfied").add();
  m.histogram("pacm.repair_rounds", "rounds")
      .record(static_cast<double>(decision.repair_rounds));
  m.histogram("pacm.candidates", "objects").record(static_cast<double>(candidates));
  m.histogram("pacm.kept_utility").record(decision.kept_utility);
  m.histogram("pacm.fairness_gini").record(decision.fairness);
  // Wall clock: host-dependent, hence volatile (excluded from stable
  // snapshots) and only measured when the observer opted in.
  if (timer.enabled()) {
    m.histogram("pacm.solve_us", "us", obs::Volatility::Volatile).record(timer.elapsed_us());
  }
}

PacmDecision PacmSolver::select_evictions(
    const std::vector<PacmObject>& cached, std::size_t incoming_size_bytes,
    const std::vector<std::pair<AppId, double>>& frequencies) const {
  const obs::WallClockTimer timer(observer_ != nullptr && observer_->wallclock_enabled());
  PacmDecision decision;
  if (cached.empty()) {
    if (observer_ != nullptr) record_solve(decision, 0, timer);
    return decision;
  }

  const std::size_t capacity =
      config_.cache_capacity_bytes > incoming_size_bytes
          ? config_.cache_capacity_bytes - incoming_size_bytes
          : 0;

  // `alive[i]` = object i is still a knapsack candidate (fairness repair
  // permanently demotes candidates).
  std::vector<bool> alive(cached.size(), true);
  std::vector<double> utilities(cached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    PacmObject object = cached[i];
    if (!config_.pacm_use_priority) object.priority = 1;  // ablation
    utilities[i] = utility(object, frequency_of(object.app, frequencies));
  }
  const std::size_t dp_budget = config_.pacm_force_greedy ? 1 : kKnapsackDpBudget;

  std::vector<bool> kept(cached.size(), false);

  for (int round = 0;; ++round) {
    // Knapsack over the live candidates.
    std::vector<KnapsackItem> items;
    std::vector<std::size_t> index;  // items -> cached
    items.reserve(cached.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
      if (!alive[i]) continue;
      items.push_back(KnapsackItem{utilities[i], cached[i].size_bytes});
      index.push_back(i);
    }

    const KnapsackResult packed = solve_knapsack(items, capacity, dp_budget);
    decision.exact = decision.exact && packed.exact;

    std::fill(kept.begin(), kept.end(), false);
    for (std::size_t j = 0; j < items.size(); ++j) {
      if (packed.selected[j]) kept[index[j]] = true;
    }
    decision.kept_utility = packed.total_value;
    decision.fairness = fairness(cached, kept, frequencies);
    decision.repair_rounds = round;

    if (!config_.pacm_use_fairness || decision.fairness <= config_.fairness_theta) {
      decision.fairness_satisfied = decision.fairness <= config_.fairness_theta;
      break;
    }

    // Fairness repair: the app hoarding the most per-request storage loses
    // its lowest-utility-density kept object.  Ordered map: the worst-app
    // argmax tie-breaks on the smallest AppId, deterministically.
    std::map<AppId, double> bytes_by_app;
    for (std::size_t i = 0; i < cached.size(); ++i) {
      if (kept[i]) bytes_by_app[cached[i].app] += static_cast<double>(cached[i].size_bytes);
    }
    AppId worst_app = 0;
    double worst_eff = -1.0;
    for (const auto& [app, bytes] : bytes_by_app) {
      const double eff = bytes / frequency_of(app, frequencies);
      if (eff > worst_eff) {
        worst_eff = eff;
        worst_app = app;
      }
    }

    std::size_t demote = cached.size();
    double worst_density = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cached.size(); ++i) {
      if (!kept[i] || cached[i].app != worst_app) continue;
      const double density =
          cached[i].size_bytes == 0
              ? utilities[i]
              : utilities[i] / static_cast<double>(cached[i].size_bytes);
      if (density < worst_density) {
        worst_density = density;
        demote = i;
      }
    }
    if (demote == cached.size()) {
      // Nothing left to demote; accept the unfair-but-optimal packing.
      decision.fairness_satisfied = false;
      break;
    }
    alive[demote] = false;
  }

  for (std::size_t i = 0; i < cached.size(); ++i) {
    if (!kept[i]) decision.evict.push_back(cached[i].key);
  }
  if (observer_ != nullptr) record_solve(decision, cached.size(), timer);
  return decision;
}

}  // namespace ape::core
