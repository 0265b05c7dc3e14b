// SpanLog — the per-run store of causal request spans, plus the analysis
// that turns a span dump into per-request latency attribution.
//
// Disabled by default: open() degrades to "return a null context" so the
// instrumented hot paths pay a branch and nothing else, and — because
// trace-context injection into DNS/HTTP messages is keyed on enabled() —
// default runs keep byte-identical wire traffic and exports.
//
// Capacity is bounded with drop-*newest* semantics: once full, open()
// stops minting spans and counts what it refused.  Dropping the newest
// (rather than ring-overwriting the oldest) keeps every recorded trace
// internally consistent — a span is only ever present together with all
// of its ancestors, so attribution over a truncated log still reconciles
// exactly; dropped() says how much of the tail is missing.
//
// The ambient-context stack bridges synchronous call chains that have no
// message to carry a TraceContext through (PACM solving inside an insert,
// a flash read inside the HTTP handler, TCP connects under a fetch): the
// caller pushes its span around the call, the callee parents under
// current_context().  Push/pop must bracket synchronous sections only —
// the stack is meaningless across scheduled events.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ape::obs {

class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit SpanLog(std::size_t capacity = kDefaultCapacity);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Opens a root span, minting a fresh TraceId.  Returns the span's
  // context — null when disabled or full.
  [[nodiscard]] TraceContext open_root(std::string name, std::string component,
                                       std::string key, sim::Time start);

  // Opens a child span under `parent`.  A null parent yields a null
  // context (no orphans: only explicit roots start traces).
  [[nodiscard]] TraceContext open(const TraceContext& parent, std::string name,
                                  std::string component, std::string key, sim::Time start);

  // Closes the span `ctx` refers to; no-op on null/unknown contexts and on
  // already-closed spans (first close wins).
  void close(const TraceContext& ctx, sim::Time end);

  // --- ambient context (synchronous propagation) -------------------------
  void push_context(const TraceContext& ctx) { ambient_.push_back(ctx); }
  void pop_context() { ambient_.pop_back(); }
  [[nodiscard]] TraceContext current_context() const {
    return ambient_.empty() ? TraceContext{} : ambient_.back();
  }

  // --- introspection -----------------------------------------------------
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t recorded() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t open_count() const noexcept { return open_count_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  void clear();

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;             // append-only; spans_[id - 1].id == id
  std::vector<TraceContext> ambient_;   // synchronous propagation stack
  TraceId next_trace_ = 1;
  std::size_t dropped_ = 0;             // opens refused at capacity
  std::size_t open_count_ = 0;          // opened but not yet closed
  bool enabled_ = false;
};

// RAII ambient-context scope; inert on null logs/contexts.
class ScopedTraceContext {
 public:
  ScopedTraceContext(SpanLog* log, const TraceContext& ctx)
      : log_(log != nullptr && ctx.valid() ? log : nullptr) {
    if (log_ != nullptr) log_->push_context(ctx);
  }
  ~ScopedTraceContext() {
    if (log_ != nullptr) log_->pop_context();
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  SpanLog* log_;
};

// Wraps the callback `fn` (a std::function) so that its first call closes
// `span` at clock.now(), just before `fn` runs — the one way a hop ends the
// span it opened around asynchronous work.  A null log or span returns `fn`
// unchanged, so untraced runs pay no wrapper.
template <typename Fn>
[[nodiscard]] Fn close_on_call(SpanLog* log, const TraceContext& span,
                               const sim::Simulator& clock, Fn fn) {
  if (log == nullptr || !span.valid()) return fn;
  return [log, span, &clock, fn = std::move(fn)](auto&&... args) mutable {
    log->close(span, clock.now());  // first close wins; later calls no-op
    fn(std::forward<decltype(args)>(args)...);
  };
}

// --- analysis -------------------------------------------------------------

// One structural defect in a span dump (unclosed span, orphan parent,
// multiple roots, child escaping its parent's bounds, sibling overlap).
struct SpanIssue {
  TraceId trace = 0;
  SpanId span = 0;
  std::string what;
};

// Structural invariants every complete trace must satisfy; an empty result
// is the precondition for exact attribution.
[[nodiscard]] std::vector<SpanIssue> validate_spans(const std::vector<Span>& spans);

// Per-request latency attribution: a span's *exclusive* time is its
// duration minus the time covered by its direct children.  Because spans
// nest strictly and siblings never overlap (validate_spans), the exclusive
// times of a trace sum *exactly* to the root's end-to-end duration — the
// reconciliation the acceptance tests assert.
struct SpanAttribution {
  const Span* span = nullptr;
  sim::Duration exclusive{0};
};

struct TraceAttribution {
  TraceId trace = 0;
  const Span* root = nullptr;
  sim::Duration end_to_end{0};
  sim::Duration exclusive_sum{0};
  bool reconciles = false;  // exclusive_sum == end_to_end (and exactly one root)
  std::vector<SpanAttribution> rows;  // span-open order
};

[[nodiscard]] std::vector<TraceAttribution> attribute_traces(const std::vector<Span>& spans);

// Folds per-span-kind latency histograms ("span.<name>_ms") into
// `registry`, starting at `from_index` (pass the previous return value to
// make repeated collection idempotent).  Returns spans.size().
std::size_t record_span_histograms(const std::vector<Span>& spans, MetricsRegistry& registry,
                                   std::size_t from_index = 0);

}  // namespace ape::obs
