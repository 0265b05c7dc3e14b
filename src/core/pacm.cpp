// ape-lint: hot-path
#include "core/pacm.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/observer.hpp"
#include "obs/wallclock.hpp"
#include "stats/gini.hpp"

namespace ape::core {

namespace {
constexpr double kFrequencyFloor = 1e-3;

// U_d = R(A_d) * e_d * l_d * p_d.  Units: requests/window * seconds * ms
// * priority — only relative magnitudes matter to the argmax.
double utility_of(const PacmObject& object, double app_frequency, int priority) {
  return std::max(app_frequency, kFrequencyFloor) * object.remaining_ttl_s *
         object.fetch_latency_ms * static_cast<double>(priority);
}
}  // namespace

double PacmSolver::utility(const PacmObject& object, double app_frequency) {
  return utility_of(object, app_frequency, object.priority);
}

void PacmSolver::AppTable::build(const std::vector<PacmObject>& objects,
                                 const std::vector<std::pair<AppId, double>>& frequencies) {
  // Every app that has a frequency or an object, in AppId order.  R(a) is
  // the app's first listed frequency, clamped, or the floor when unlisted.
  // An app no object belongs to is never kept, so it changes neither F(A)
  // nor the repair.  PacmPolicy lists each app once, in order, so every
  // insertion lands at the end and every object's app is found.
  ids.clear();
  frequency.clear();
  const auto add = [this](AppId app, double f) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), app);
    if (it != ids.end() && *it == app) return;
    frequency.insert(frequency.begin() + (it - ids.begin()), std::max(f, kFrequencyFloor));
    ids.insert(it, app);
  };
  for (const auto& [app, f] : frequencies) add(app, f);
  for (const PacmObject& o : objects) add(o.app, kFrequencyFloor);
  of.clear();
  for (const PacmObject& o : objects) {
    of.push_back(static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), o.app) - ids.begin()));
  }
}

double PacmSolver::AppTable::fairness(const std::vector<PacmObject>& objects,
                                      const std::vector<bool>& kept) {
  assert(objects.size() == kept.size());
  bytes.assign(ids.size(), 0.0);
  present.assign(ids.size(), 0);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (!kept[i]) continue;
    bytes[of[i]] += static_cast<double>(objects[i].size_bytes);
    present[of[i]] = 1;
  }
  efficiency.clear();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (present[k] != 0) efficiency.push_back(bytes[k] / frequency[k]);
  }
  if (efficiency.size() < 2) return 0.0;  // one app cannot be unfair to itself
  std::sort(efficiency.begin(), efficiency.end());
  return stats::gini_of_sorted(efficiency);
}

double PacmSolver::fairness(const std::vector<PacmObject>& objects,
                            const std::vector<bool>& kept,
                            const std::vector<std::pair<AppId, double>>& frequencies) {
  AppTable apps;
  apps.build(objects, frequencies);
  return apps.fairness(objects, kept);
}

void PacmSolver::set_observer(obs::Observer* observer) {
  observer_ = observer;
  metrics_ = SolveMetrics{};
  if (observer_ == nullptr) return;
  obs::MetricsRegistry& m = observer_->metrics();
  metrics_.solves = {m, "pacm.solves"};
  metrics_.exact = {m, "pacm.exact"};
  metrics_.greedy = {m, "pacm.greedy"};
  metrics_.evictions = {m, "pacm.evictions"};
  metrics_.fairness_unsatisfied = {m, "pacm.fairness_unsatisfied"};
  metrics_.repair_rounds = {m, "pacm.repair_rounds", "rounds"};
  metrics_.candidates = {m, "pacm.candidates", "objects"};
  metrics_.kept_utility = {m, "pacm.kept_utility"};
  metrics_.fairness_gini = {m, "pacm.fairness_gini"};
  // Wall clock: host-dependent, hence volatile (excluded from stable
  // snapshots) and only measured when the observer opted in.
  metrics_.solve_us = {m, "pacm.solve_us", "us", obs::Volatility::Volatile};
}

void PacmSolver::record_solve(const PacmDecision& decision, std::size_t candidates,
                              const obs::WallClockTimer& timer) {
  metrics_.solves.add();
  (decision.exact ? metrics_.exact : metrics_.greedy).add();
  metrics_.evictions.add(decision.evict.size());
  if (!decision.fairness_satisfied) metrics_.fairness_unsatisfied.add();
  metrics_.repair_rounds.record(static_cast<double>(decision.repair_rounds));
  metrics_.candidates.record(static_cast<double>(candidates));
  metrics_.kept_utility.record(decision.kept_utility);
  metrics_.fairness_gini.record(decision.fairness);
  if (timer.enabled()) metrics_.solve_us.record(timer.elapsed_us());
}

PacmDecision PacmSolver::select_evictions(
    const std::vector<PacmObject>& cached, std::size_t incoming_size_bytes,
    const std::vector<std::pair<AppId, double>>& frequencies) {
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

  apps_.build(cached, frequencies);
  // `alive_[i]` = object i is still a knapsack candidate (fairness repair
  // permanently demotes candidates).
  alive_.assign(cached.size(), true);
  utilities_.resize(cached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    const int priority = config_.pacm_use_priority ? cached[i].priority : 1;  // ablation
    utilities_[i] = utility_of(cached[i], apps_.frequency[apps_.of[i]], priority);
  }
  const std::size_t dp_budget = config_.pacm_force_greedy ? 1 : kKnapsackDpBudget;

  kept_.assign(cached.size(), false);

  for (int round = 0;; ++round) {
    // Knapsack over the live candidates.
    items_.clear();
    index_.clear();
    for (std::size_t i = 0; i < cached.size(); ++i) {
      if (!alive_[i]) continue;
      items_.push_back(KnapsackItem{utilities_[i], cached[i].size_bytes});
      index_.push_back(i);
    }

    const KnapsackResult& packed = solve_knapsack(items_, capacity, dp_budget, knapsack_);
    decision.exact = decision.exact && packed.exact;

    std::fill(kept_.begin(), kept_.end(), false);
    for (std::size_t j = 0; j < items_.size(); ++j) {
      if (packed.selected[j]) kept_[index_[j]] = true;
    }
    decision.kept_utility = packed.total_value;
    decision.fairness = apps_.fairness(cached, kept_);
    decision.repair_rounds = round;

    if (!config_.pacm_use_fairness || decision.fairness <= config_.fairness_theta) {
      decision.fairness_satisfied = decision.fairness <= config_.fairness_theta;
      break;
    }

    // Fairness repair: the app hoarding the most per-request storage loses
    // its lowest-utility-density kept object.  The fairness pass above
    // left each app's kept bytes in apps_; walking them in AppId order
    // tie-breaks the worst-app argmax on the smallest AppId.
    std::size_t worst_app = 0;
    double worst_eff = -1.0;
    for (std::size_t k = 0; k < apps_.ids.size(); ++k) {
      if (apps_.present[k] == 0) continue;
      const double eff = apps_.bytes[k] / apps_.frequency[k];
      if (eff > worst_eff) {
        worst_eff = eff;
        worst_app = k;
      }
    }

    std::size_t demote = cached.size();
    double worst_density = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cached.size(); ++i) {
      if (!kept_[i] || apps_.of[i] != worst_app) continue;
      const double density =
          cached[i].size_bytes == 0
              ? utilities_[i]
              : utilities_[i] / static_cast<double>(cached[i].size_bytes);
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
    alive_[demote] = false;
  }

  decision.evict.reserve(
      static_cast<std::size_t>(std::count(kept_.begin(), kept_.end(), false)));
  for (std::size_t i = 0; i < cached.size(); ++i) {
    if (!kept_[i]) decision.evict.push_back(cached[i].key);
  }
  if (observer_ != nullptr) record_solve(decision, cached.size(), timer);
  return decision;
}

}  // namespace ape::core
