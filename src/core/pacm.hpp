// PACM — Priority-Aware Cache Management (paper Sec. IV-C).
//
// Given the currently cached objects, an incoming object of size S, the
// cache capacity C, per-app request frequencies R(a) and the fairness bound
// theta, select the subset O of cached objects to *keep*:
//
//     max  sum_d O_d * U_d            U_d = R(A_d) * e_d * l_d * p_d
//     s.t. sum_d O_d * s_d <= C - S
//          F(A) <= theta              (Gini over C_a = sum s_d / R(a))
//
// The Gini constraint is not separable, so after the exact knapsack DP a
// fairness-repair loop runs: while F exceeds theta, the worst-efficiency
// app (largest C_a) loses its lowest-utility-density kept object and the
// knapsack re-solves without it.  This converges because each round
// strictly shrinks the candidate set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/shard.hpp"
#include "common/url_hash.hpp"
#include "core/config.hpp"
#include "core/frequency_tracker.hpp"
#include "core/knapsack.hpp"
#include "obs/metrics.hpp"

namespace ape::obs {
class Observer;
class WallClockTimer;
}  // namespace ape::obs

namespace ape::core {

struct PacmObject {
  UrlHash key = 0;
  AppId app = 0;
  std::size_t size_bytes = 0;
  int priority = 1;
  // Solver-facing plain units: utility() multiplies seconds * ms * priority,
  // where only relative magnitudes matter — not a simulated timestamp.
  double remaining_ttl_s = 0.0;   // e_d  // ape-lint: allow(raw-seconds)
  double fetch_latency_ms = 0.0;  // l_d
};

struct PacmDecision {
  std::vector<UrlHash> evict;  // keys to remove
  double kept_utility = 0.0;
  double fairness = 0.0;           // F(A) of the kept set
  bool fairness_satisfied = true;
  bool exact = true;               // knapsack ran the exact DP
  int repair_rounds = 0;
};

class PacmSolver {
  APE_SHARD_CONTEXT(ap);

 public:
  explicit PacmSolver(const ApeConfig& config) : config_(config) {}

  // Optional instrumentation: when set, every solve records counters
  // ("pacm.solves", "pacm.exact" / "pacm.greedy") and histograms
  // ("pacm.repair_rounds", "pacm.kept_utility", "pacm.fairness_gini",
  // "pacm.candidates").  A wall-clock "pacm.solve_us" (volatile) is
  // recorded only when the observer has opted in via enable_wallclock().
  void set_observer(obs::Observer* observer);

  // `frequency(app)` must be positive for apps with cached objects; zero
  // frequencies are clamped to a small epsilon (an idle app's storage
  // efficiency would otherwise be infinite).  Not const: the solve reuses
  // the solver's buffers, so a steady stream of solves allocates only the
  // returned eviction list.
  [[nodiscard]] PacmDecision select_evictions(
      const std::vector<PacmObject>& cached, std::size_t incoming_size_bytes,
      const std::vector<std::pair<AppId, double>>& frequencies);

  // The utility function, exposed for tests and benches.
  [[nodiscard]] static double utility(const PacmObject& object, double app_frequency);

  // F(A): Gini coefficient over per-app storage efficiency for the subset
  // of `objects` flagged in `kept`.
  [[nodiscard]] static double fairness(
      const std::vector<PacmObject>& objects, const std::vector<bool>& kept,
      const std::vector<std::pair<AppId, double>>& frequencies);

 private:
  // The apps of one solve in AppId order, with each object's index into
  // them: F(A) and the repair loop sum per-app bytes in these flat arrays.
  struct AppTable {
    std::vector<AppId> ids;             // sorted, unique
    std::vector<double> frequency;      // R(a), clamped, parallel to ids
    std::vector<std::uint32_t> of;      // object -> index into ids
    std::vector<double> bytes;          // kept bytes per app
    std::vector<std::uint8_t> present;  // the app keeps at least one object
    std::vector<double> efficiency;     // Gini input, sorted in place

    void build(const std::vector<PacmObject>& objects,
               const std::vector<std::pair<AppId, double>>& frequencies);
    // F(A) of the objects flagged in `kept`; leaves bytes/present filled.
    double fairness(const std::vector<PacmObject>& objects, const std::vector<bool>& kept);
  };

  void record_solve(const PacmDecision& decision, std::size_t candidates,
                    const obs::WallClockTimer& timer);

  APE_SHARD_LOCAL(ap) const ApeConfig& config_;
  APE_SHARD_SHARED obs::Observer* observer_ = nullptr;

  // Per-solve buffers, reused across solves.
  APE_SHARD_LOCAL(ap) AppTable apps_;
  APE_SHARD_LOCAL(ap) std::vector<double> utilities_;
  APE_SHARD_LOCAL(ap) std::vector<bool> alive_;
  APE_SHARD_LOCAL(ap) std::vector<bool> kept_;
  APE_SHARD_LOCAL(ap) std::vector<KnapsackItem> items_;
  APE_SHARD_LOCAL(ap) std::vector<std::size_t> index_;  // items_ -> cached
  APE_SHARD_LOCAL(ap) KnapsackWorkspace knapsack_;

  // Solve instruments, bound once in set_observer (lazy, like
  // ApRuntime's): a solve bumps pointers instead of looking names up.
  struct SolveMetrics {
    obs::CounterHandle solves;
    obs::CounterHandle exact;
    obs::CounterHandle greedy;
    obs::CounterHandle evictions;
    obs::CounterHandle fairness_unsatisfied;
    obs::HistogramHandle repair_rounds;
    obs::HistogramHandle candidates;
    obs::HistogramHandle kept_utility;
    obs::HistogramHandle fairness_gini;
    obs::HistogramHandle solve_us;
  };
  APE_SHARD_SHARED SolveMetrics metrics_;
};

}  // namespace ape::core
