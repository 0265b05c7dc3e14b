// SloEvaluator — declarative SLO rules over timeline windows (DESIGN.md §5g).
//
// A rule states the condition that should HOLD, in a one-line text form:
//
//   [name:] <metric> [<field>] <op> <threshold>[unit] over <N> windows [resolve <M>]
//
//   ap.cache.hit_ratio >= 0.6 over 5 windows
//   client.total_ms p99 <= 40ms over 2 windows resolve 3
//
// <field> selects a histogram summary field (count|sum|mean|min|max|p50|
// p95|p99); without one the metric is read as a stable gauge, falling back
// to the window's counter delta.  A metric absent from a window freezes the
// rule's streaks for that window (no data is neither a violation nor a
// recovery).
//
// Alerting is a burn-rate style state machine evaluated once per window, in
// rule declaration order, so identically seeded runs produce an identical
// transition log:
//
//   Inactive --violation--> Pending --N consecutive--> Firing
//   Pending --condition holds--> Inactive
//   Firing --M consecutive holds--> Inactive            ("resolved")
//
// Every state change is appended to a transition log keyed by window index;
// tools/timeline_report.py --validate replays the log and rejects illegal
// sequences (a resolve without a prior firing, a from-state that does not
// match the previous to-state).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/timeline.hpp"

namespace ape::obs {

enum class SloField : std::uint8_t {
  Value,  // gauge value, or counter delta when no gauge exists
  Count,
  Sum,
  Mean,
  Min,
  Max,
  P50,
  P95,
  P99,
};

enum class SloOp : std::uint8_t { Ge, Le, Gt, Lt };

enum class AlertState : std::uint8_t { Inactive, Pending, Firing };

[[nodiscard]] std::string to_string(SloField field);
[[nodiscard]] std::string to_string(SloOp op);
[[nodiscard]] std::string to_string(AlertState state);

struct SloRule {
  std::string name;    // defaults to "<metric>[.<field>]" when not given
  std::string metric;  // dotted instrument name in the registry
  SloField field = SloField::Value;
  SloOp op = SloOp::Ge;
  double threshold = 0.0;
  std::uint32_t for_windows = 1;      // consecutive violations before Firing
  std::uint32_t resolve_windows = 1;  // consecutive holds before resolving

  [[nodiscard]] std::string text() const;  // round-trips through parse_slo_rule
};

[[nodiscard]] Result<SloRule> parse_slo_rule(const std::string& text);

struct AlertTransition {
  std::uint64_t window = 0;  // window index that triggered the change
  std::string rule;
  AlertState from = AlertState::Inactive;
  AlertState to = AlertState::Inactive;
  double value = 0.0;  // the observed value that drove the transition
};

class SloEvaluator {
 public:
  void add_rule(SloRule rule);

  // Evaluates every rule against one window.  Windows must be fed in
  // increasing index order (testbed::Site feeds each one as it captures it).
  void observe(const TimelineWindow& window);

  [[nodiscard]] std::size_t rule_count() const noexcept { return rules_.size(); }
  [[nodiscard]] std::vector<SloRule> rules() const;
  [[nodiscard]] const std::vector<AlertTransition>& transitions() const noexcept {
    return transitions_;
  }
  [[nodiscard]] AlertState state(const std::string& rule_name) const;
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t resolved() const noexcept { return resolved_; }

  void clear();

 private:
  struct RuleState {
    SloRule rule;
    AlertState state = AlertState::Inactive;
    std::uint32_t violate_streak = 0;
    std::uint32_t ok_streak = 0;
  };

  void transition(RuleState& rs, AlertState to, const TimelineWindow& window, double value);

  std::vector<RuleState> rules_;  // declaration order == evaluation order
  std::vector<AlertTransition> transitions_;
  std::uint64_t fired_ = 0;
  std::uint64_t resolved_ = 0;
};

}  // namespace ape::obs
