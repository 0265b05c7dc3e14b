// Chrome/Perfetto `trace_event` JSON exporter for span dumps.
//
// Emits the JSON Array Format the Perfetto UI (ui.perfetto.dev) and
// chrome://tracing load directly: one complete ("ph":"X") event per closed
// span with microsecond ts/dur, pid 1, and one tid per emitting component
// (named via thread_name metadata events), so the per-hop lanes read like
// a distributed-trace waterfall.  Span identity/causality ride in `args`
// ({trace, span, parent, key}) — that is what `tools/obs_report.py trace` uses
// to rebuild the trees and re-check attribution offline.
//
// Output is deterministic: components are lane-ordered by name, events by
// span-open order, and doubles never appear (all integer microseconds).
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace ape::obs {

class SpanLog;

struct PerfettoExportOptions {
  std::map<std::string, std::string> meta;  // emitted under "otherData"
};

void write_perfetto_json(std::ostream& out, const std::vector<Span>& spans,
                         const PerfettoExportOptions& options = {});

[[nodiscard]] std::string to_perfetto_json(const std::vector<Span>& spans,
                                           const PerfettoExportOptions& options = {});

// Writes the span log's dump to `path`; returns false when the file cannot
// be opened or written.
bool write_perfetto_file(const std::string& path, const SpanLog& log,
                         const PerfettoExportOptions& options = {});

}  // namespace ape::obs
