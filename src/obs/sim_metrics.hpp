// Shared simulator-engine metric block.
//
// Called from testbed::Site::collect_metrics, so every testbed shape
// exports the same event-loop pressure picture: fired/cancelled/compaction
// tallies, live queue depth and high-water, the tombstone picture, plus the
// engine internals the profiling plane added — calendar-wheel occupancy and
// the event-arena high-water mark (DESIGN.md §5k).
//
// All writes are idempotent set()s, so timeline ticks can call this every
// window without inflating counters.
#pragma once

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ape::obs {

void record_sim_metrics(MetricsRegistry& registry, const sim::Simulator& sim);

}  // namespace ape::obs
