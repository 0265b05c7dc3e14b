// The engine profiling plane (DESIGN.md §5k): per-event-kind cost
// attribution.  Covers the sim-layer pieces (kind interner, ProfileSink,
// SmallFn inline/heap boundary, arena generation wraparound) and the
// obs-layer assembly (EngineProfiler, the gated "profile" export
// section, the shared sim-metrics helper).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sim_metrics.hpp"
#include "sim/event_kind.hpp"
#include "sim/profile_sink.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"

namespace ape {
namespace {

using sim::Simulator;

// ------------------------------------------------------------ kind table

TEST(EventKind, InterningIsIdempotent) {
  auto& table = sim::EventKindTable::instance();
  const sim::KindId a = table.intern("test.kind.alpha");
  const sim::KindId b = table.intern("test.kind.alpha");
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.name_of(a), "test.kind.alpha");
}

TEST(EventKind, DistinctNamesDistinctIds) {
  auto& table = sim::EventKindTable::instance();
  EXPECT_NE(table.intern("test.kind.one"), table.intern("test.kind.two"));
}

TEST(EventKind, UntaggedIsSlotZero) {
  EXPECT_EQ(sim::EventKindTable::instance().name_of(sim::kKindUntagged),
            "(untagged)");
}

TEST(EventKind, MacroInternsOnce) {
  const sim::KindId first = APE_EVT("test.kind.macro");
  const sim::KindId second = APE_EVT("test.kind.macro");
  EXPECT_EQ(first, second);
  EXPECT_EQ(sim::EventKindTable::instance().name_of(first), "test.kind.macro");
}

// ------------------------------------------------- SmallFn 48/49 boundary

// Callables sized exactly at and one past the inline capacity.  The
// padding arrays keep them trivially movable so only size matters.
struct Exactly48 {
  std::array<unsigned char, sim::SmallFn::kInlineBytes> pad{};
  void operator()() const {}
};
struct Exactly49 {
  std::array<unsigned char, sim::SmallFn::kInlineBytes + 1> pad{};
  void operator()() const {}
};

static_assert(sizeof(Exactly48) == sim::SmallFn::kInlineBytes);
static_assert(sizeof(Exactly49) == sim::SmallFn::kInlineBytes + 1);

TEST(SmallFn, ExactlyInlineCapacityStaysInline) {
  sim::SmallFn fn{Exactly48{}};
  EXPECT_FALSE(fn.uses_heap());
}

TEST(SmallFn, OneByteOverCapacitySpillsToHeap) {
  sim::SmallFn fn{Exactly49{}};
  EXPECT_TRUE(fn.uses_heap());
}

TEST(SmallFn, HeapSpillIsCountedBySimulator) {
  Simulator sim;
  bool inline_ran = false;
  bool heap_ran = false;
  // 8-byte reference capture + 49-byte payload spills; the bare-reference
  // capture stays inline, so exactly one fallback is charged.
  Exactly49 big;
  sim.schedule_in(sim::milliseconds(1), [&inline_ran] { inline_ran = true; });
  sim.schedule_in(sim::milliseconds(2),
                  [&heap_ran, big] { heap_ran = true; (void)big; });
  EXPECT_EQ(sim.smallfn_heap_fallbacks(), 1U);
  sim.run();
  EXPECT_TRUE(inline_ran);
  EXPECT_TRUE(heap_ran);
}

// --------------------------------------------- generation wraparound

TEST(Simulator, GenerationWrapSkipsZeroAndCounts) {
  Simulator sim;
  // Occupy slot 0, then warp its generation to the maximum so the next
  // release wraps.  Generation 0 is the "never lived" sentinel, so the
  // wrap must land on 1, not 0.
  (void)sim.schedule_in(sim::milliseconds(1), [] {});
  sim.debug_warp_generation(0, 0xFFFFFFFFU);

  // The warp re-keys the slot, so releasing goes through the warped id
  // (the original queue entry became a tombstone the moment we warped).
  const Simulator::EventId warped = (0xFFFFFFFFULL << 32) | 0U;
  EXPECT_TRUE(sim.cancel(warped));
  EXPECT_EQ(sim.generation_wraps(), 1U);

  // The slot is reusable and its new id carries generation 1, not 0.
  const Simulator::EventId reused = sim.schedule_in(sim::milliseconds(1), [] {});
  EXPECT_EQ(reused >> 32, 1U);
  EXPECT_EQ(static_cast<std::uint32_t>(reused), 0U);  // same slot 0
  EXPECT_EQ(sim.arena_slot_reuse(), 1U);

  // The pre-wrap id from the dead generation no longer resolves.
  EXPECT_FALSE(sim.cancel(warped));
  EXPECT_TRUE(sim.cancel(reused));
}

// ------------------------------------------------------------ ProfileSink

TEST(ProfileSink, AttributesPerKindCounts) {
  Simulator sim;
  sim::ProfileSink sink;
  sim.set_profile_sink(&sink);

  const sim::KindId serve = APE_EVT("test.sink.serve");
  const sim::KindId timeout = APE_EVT("test.sink.timeout");
  sim.schedule_in(sim::milliseconds(1), [] {}, serve);
  sim.schedule_in(sim::milliseconds(2), [] {}, serve);
  const Simulator::EventId t =
      sim.schedule_in(sim::milliseconds(3), [] {}, timeout);
  sim.cancel(t);
  sim.run();

  const auto kinds = sink.kinds();
  ASSERT_GT(kinds.size(), std::max(serve, timeout));
  EXPECT_EQ(kinds[serve].scheduled, 2U);
  EXPECT_EQ(kinds[serve].fired, 2U);
  EXPECT_EQ(kinds[serve].cancelled, 0U);
  EXPECT_EQ(kinds[timeout].scheduled, 1U);
  EXPECT_EQ(kinds[timeout].cancelled, 1U);
  EXPECT_EQ(kinds[timeout].fired, 0U);
}

TEST(ProfileSink, UntaggedEventsLandOnSlotZero) {
  Simulator sim;
  sim::ProfileSink sink;
  sim.set_profile_sink(&sink);
  sim.schedule_in(sim::milliseconds(1), [] {});
  sim.run();
  const auto kinds = sink.kinds();
  ASSERT_FALSE(kinds.empty());
  EXPECT_EQ(kinds[sim::kKindUntagged].fired, 1U);
}

TEST(ProfileSink, CountsHeapFallbacksPerKind) {
  Simulator sim;
  sim::ProfileSink sink;
  sim.set_profile_sink(&sink);
  const sim::KindId kind = APE_EVT("test.sink.bigcapture");
  Exactly49 big;
  sim.schedule_in(sim::milliseconds(1), [big] { (void)big; }, kind);
  sim.run();
  EXPECT_EQ(sink.kinds()[kind].smallfn_heap, 1U);
}

// -------------------------------------------------------- EngineProfiler

TEST(EngineProfiler, RowsAreNameSortedAndSkipIdle) {
  Simulator sim;
  obs::EngineProfiler profiler(sim);
  sim.schedule_in(sim::milliseconds(2), [] {}, APE_EVT("test.prof.zeta"));
  sim.schedule_in(sim::milliseconds(1), [] {}, APE_EVT("test.prof.alpha"));
  sim.run();

  const auto rows = profiler.rows();
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[0].name, "test.prof.alpha");
  EXPECT_EQ(rows[1].name, "test.prof.zeta");
  EXPECT_EQ(rows[0].profile.fired, 1U);
  // Without the wallclock stratum, host time is never sampled.
  EXPECT_EQ(rows[0].profile.fire_wall_ns, 0U);
}

TEST(EngineProfiler, WallclockStratumIsOptIn) {
  Simulator sim;
  obs::EngineProfiler profiler(sim);
  EXPECT_FALSE(profiler.wallclock_enabled());
  profiler.enable_wallclock(true);
  sim.schedule_in(sim::milliseconds(1), [] {
    // Burn a little host time so the sample is visibly non-zero.
    volatile unsigned sink_v = 0;
    for (unsigned i = 0; i < 50000; ++i) sink_v = sink_v + i;
  }, APE_EVT("test.prof.wall"));
  sim.run();
  const auto rows = profiler.rows();
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_GT(rows[0].profile.fire_wall_ns, 0U);
}

TEST(EngineProfiler, DetachesOnDestruction) {
  Simulator sim;
  {
    obs::EngineProfiler profiler(sim);
    sim.schedule_in(sim::milliseconds(1), [] {}, APE_EVT("test.prof.detach"));
  }
  // Sink is unmounted: firing after the profiler died must not touch it.
  sim.run();
  EXPECT_EQ(sim.events_fired(), 1U);
}

TEST(EngineProfiler, RecordMetricsMirrorsStableCounters) {
  Simulator sim;
  obs::EngineProfiler profiler(sim);
  sim.schedule_in(sim::milliseconds(1), [] {}, APE_EVT("test.prof.mirror"));
  sim.run();

  obs::MetricsRegistry m;
  profiler.record_metrics(m);
  EXPECT_EQ(m.counter("profile.kind.test.prof.mirror.fired").value(), 1U);
  EXPECT_EQ(m.counter("profile.engine.events_fired").value(), 1U);
}

// ------------------------------------------------------------ export gate

TEST(ProfileExport, SectionAppearsOnlyWhenRequested) {
  Simulator sim;
  obs::EngineProfiler profiler(sim);
  sim.schedule_in(sim::milliseconds(1), [] {}, APE_EVT("test.export.kind"));
  sim.run();

  obs::MetricsRegistry m;
  std::ostringstream without;
  obs::write_json(without, m);
  EXPECT_EQ(without.str().find("\"profile\""), std::string::npos);

  obs::ExportOptions options;
  options.profile = &profiler;
  std::ostringstream with;
  obs::write_json(with, m, options);
  const std::string text = with.str();
  EXPECT_NE(text.find("\"profile\""), std::string::npos);
  EXPECT_NE(text.find("\"test.export.kind\":{\"scheduled\":1"), std::string::npos);
  EXPECT_NE(text.find("\"engine\":{\"events_fired\":1"), std::string::npos);
  // Wallclock subsection stays out unless the stratum was enabled.
  EXPECT_EQ(text.find("\"wallclock\""), std::string::npos);
}

TEST(ProfileExport, WallclockSubsectionFollowsTheGate) {
  Simulator sim;
  obs::EngineProfiler profiler(sim);
  profiler.enable_wallclock(true);
  sim.schedule_in(sim::milliseconds(1), [] {}, APE_EVT("test.export.wall"));
  sim.run();

  obs::MetricsRegistry m;
  obs::ExportOptions options;
  options.profile = &profiler;
  std::ostringstream out;
  obs::write_json(out, m, options);
  EXPECT_NE(out.str().find("\"wallclock\":{\"enabled\":true"), std::string::npos);
}

// ------------------------------------------------- shared sim metrics

TEST(SimMetrics, SharedHelperExportsEnginePressureGauges) {
  Simulator sim;
  sim.schedule_in(sim::milliseconds(1), [] {});
  const Simulator::EventId doomed = sim.schedule_in(sim::milliseconds(2), [] {});
  sim.cancel(doomed);
  sim.run();

  obs::MetricsRegistry m;
  obs::record_sim_metrics(m, sim);
  EXPECT_EQ(m.counter("sim.events_fired").value(), 1U);
  EXPECT_EQ(m.counter("sim.events_cancelled").value(), 1U);
  EXPECT_GE(m.gauge("sim.arena.slots").value(), 1.0);
  // Idempotent: a second collection must not double anything.
  obs::record_sim_metrics(m, sim);
  EXPECT_EQ(m.counter("sim.events_fired").value(), 1U);
}

}  // namespace
}  // namespace ape
