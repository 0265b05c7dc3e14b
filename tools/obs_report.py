#!/usr/bin/env python3
"""Offline analyzer for the observability exports, one section per plane.

  trace     Perfetto dump written by --trace-out (obs/trace_export)
  timeline  ape.obs.v1 "timeseries" + "alerts" sections (--timeline-out)
  mrc       ape.obs.v1 "mrc" section (--mrc-out)
  profile   ape.obs.v1 "profile" section (--profile-out)

Each section re-checks its plane's invariants independently of the C++
code, so a bug on the C++ side can't vouch for itself.  Every run checks
first: a violation prints `error: ...` lines and a `FAIL` line to stderr
and exits 1.  `--validate` stops there and prints one `OK` line (the CI
lanes and the tier-1 *_smoke tests); without it the section's report
follows.

Usage:
  tools/obs_report.py trace [--validate] [--expect JSON] trace.json
  tools/obs_report.py timeline [--validate] [--expect JSON] timeline.json
  tools/obs_report.py mrc [--validate] mrc.json
  tools/obs_report.py profile [--validate] [--top N] profile.json

Exit codes: 0 ok, 1 violation or unreadable export, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field as dataclass_field

SCHEMA = "ape.obs.v1"


def load(path: str, section: str) -> dict:
    """Reads one export and checks it carries the section's data.  The
    trace dump is Perfetto JSON; every other section is ape.obs.v1."""
    _, key, flag = SECTIONS[section]
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if not isinstance(doc, dict):
        sys.exit(f"error: {path}: not a JSON object")
    if section != "trace" and doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: expected schema {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get(key), (dict, list)):
        sys.exit(f"error: {path}: no {key!r} section (was the run missing {flag}?)")
    return doc


def load_expectations(path: str) -> tuple[dict, list[str]]:
    """Reads an --expect file; returns (expectations, errors)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), []
    except (OSError, json.JSONDecodeError) as err:
        return {}, [f"cannot read expectations {path}: {err}"]


def print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


# ---------------------------------------------------------------- trace
#
# The exporter annotates every complete ("ph":"X") event with its causal
# identity in `args` ({trace, span, parent, key}); this section rebuilds the
# span trees from those args — independently of the C++ attribution code —
# and re-checks the structural invariants plus the exact integer-microsecond
# reconciliation (sum of exclusive times == root end-to-end duration).
#
# `--expect bench/baselines/smoke_trace_expect.json` also pins the run's
# shape: the trace count, the span count per kind, and the edge count per
# "parent kind -> kind" pair, so a hop that stops tracing itself (or parents
# under the wrong span) fails even when every trace still reconciles.


@dataclass
class Span:
    trace: int
    span: int
    parent: int
    name: str
    component: str
    key: str
    ts: int  # microseconds
    dur: int  # microseconds
    children: list = dataclass_field(default_factory=list)

    @property
    def end(self) -> int:
        return self.ts + self.dur


def load_spans(doc: dict) -> tuple[list[Span], list[str]]:
    """Parses the exporter's events; returns (spans, format_errors)."""
    errors: list[str] = []
    spans: list[Span] = []
    for i, ev in enumerate(doc["traceEvents"]):
        ph = ev.get("ph")
        if ph == "M":  # metadata (thread_name lanes)
            continue
        if ph != "X":
            errors.append(f"event {i}: unexpected phase {ph!r} (exporter emits only M and X)")
            continue
        args = ev.get("args", {})
        missing = [k for k in ("trace", "span", "parent", "key") if k not in args]
        if missing:
            errors.append(f"event {i}: args missing {missing}")
            continue
        if not isinstance(ev.get("ts"), int) or not isinstance(ev.get("dur"), int):
            errors.append(f"event {i}: ts/dur must be integer microseconds")
            continue
        spans.append(
            Span(
                trace=args["trace"],
                span=args["span"],
                parent=args["parent"],
                name=ev.get("name", "?"),
                component=ev.get("cat", ""),
                key=args["key"],
                ts=ev["ts"],
                dur=ev["dur"],
            )
        )
    return spans, errors


def build_traces(spans: list[Span]) -> tuple[dict, list[str]]:
    """Groups spans by trace id and links children; returns (traces, errors)."""
    errors: list[str] = []
    traces: dict[int, dict[int, Span]] = defaultdict(dict)
    for s in spans:
        if s.span in traces[s.trace]:
            errors.append(f"trace {s.trace}: duplicate span id {s.span}")
            continue
        traces[s.trace][s.span] = s
    for trace_id, members in traces.items():
        for s in members.values():
            if s.parent == 0:
                continue
            parent = members.get(s.parent)
            if parent is None:
                errors.append(
                    f"trace {trace_id}: span {s.span} ({s.name}) has unknown parent {s.parent}"
                )
                continue
            parent.children.append(s)
    return traces, errors


def validate_trace(trace_id: int, members: dict) -> list[str]:
    """Structural invariants for one trace (mirrors obs::validate_spans)."""
    errors: list[str] = []
    roots = [s for s in members.values() if s.parent == 0]
    if len(roots) != 1:
        errors.append(f"trace {trace_id}: {len(roots)} roots (want exactly 1)")
    for s in members.values():
        if s.dur < 0:
            errors.append(f"trace {trace_id}: span {s.span} ({s.name}) negative duration")
        parent = members.get(s.parent) if s.parent != 0 else None
        if parent is not None and not (parent.ts <= s.ts and s.end <= parent.end):
            errors.append(
                f"trace {trace_id}: span {s.span} ({s.name}) "
                f"[{s.ts},{s.end}] escapes parent {parent.span} [{parent.ts},{parent.end}]"
            )
        kids = sorted(s.children, key=lambda c: (c.ts, c.end))
        for a, b in zip(kids, kids[1:]):
            if b.ts < a.end:
                errors.append(
                    f"trace {trace_id}: siblings {a.span} ({a.name}) and "
                    f"{b.span} ({b.name}) overlap under span {s.span}"
                )
    return errors


def exclusive_us(s: Span) -> int:
    return s.dur - sum(c.dur for c in s.children)


def reconcile_trace(trace_id: int, members: dict) -> list[str]:
    """Exact attribution check: sum(exclusive) == root end-to-end, in µs."""
    roots = [s for s in members.values() if s.parent == 0]
    if len(roots) != 1:
        return []  # already reported by validate_trace
    total = sum(exclusive_us(s) for s in members.values())
    if total != roots[0].dur:
        return [
            f"trace {trace_id}: exclusive sum {total}us != end-to-end {roots[0].dur}us "
            f"(root {roots[0].name})"
        ]
    return []


def report_trace(traces: dict) -> None:
    by_kind: dict[str, list[int]] = defaultdict(list)
    by_request: dict[str, list[int]] = defaultdict(list)
    for members in traces.values():
        for s in members.values():
            by_kind[s.name].append(exclusive_us(s))
        for s in members.values():
            if s.parent == 0:
                by_request[s.key].append(s.dur)

    print(f"{len(traces)} traces, {sum(len(m) for m in traces.values())} spans\n")

    print("Per-span-kind exclusive time (critical-path attribution):")
    rows = []
    for kind in sorted(by_kind):
        vals = by_kind[kind]
        total_ms = sum(vals) / 1000.0
        rows.append([kind, str(len(vals)), f"{total_ms:.2f}",
                     f"{total_ms / len(vals):.3f}"])
    print_table(["span kind", "count", "exclusive total ms", "mean ms"], rows)

    print("\nPer-request end-to-end latency (root spans):")
    rows = []
    for key in sorted(by_request):
        vals = sorted(by_request[key])
        mean_ms = sum(vals) / len(vals) / 1000.0
        p99_ms = vals[min(len(vals) - 1, int(0.99 * len(vals)))] / 1000.0
        rows.append([key, str(len(vals)), f"{mean_ms:.2f}", f"{p99_ms:.2f}"])
    print_table(["request", "count", "mean ms", "p99 ms"], rows)


def diff_counts(what: str, want: dict, got: Counter) -> list[str]:
    return [f"{what} {k!r}: expected {want.get(k, 0)}, dump has {got.get(k, 0)}"
            for k in sorted(set(want) | set(got)) if want.get(k, 0) != got.get(k, 0)]


def check_trace_expectations(traces: dict, expect_path: str) -> list[str]:
    expect, errors = load_expectations(expect_path)
    if errors:
        return errors
    if "traces" in expect and len(traces) != expect["traces"]:
        errors.append(f"expected {expect['traces']} traces, dump has {len(traces)}")
    total = sum(len(members) for members in traces.values())
    if "spans" in expect and total != expect["spans"]:
        errors.append(f"expected {expect['spans']} spans, dump has {total}")
    kinds: Counter = Counter()
    edges: Counter = Counter()
    for members in traces.values():
        for s in members.values():
            kinds[s.name] += 1
            if s.parent in members:
                edges[f"{members[s.parent].name} -> {s.name}"] += 1
    if "kinds" in expect:
        errors += diff_counts("kind", expect["kinds"], kinds)
    if "edges" in expect:
        errors += diff_counts("edge", expect["edges"], edges)
    return errors


def trace_section(doc: dict, args: argparse.Namespace):
    spans, errors = load_spans(doc)
    traces, link_errors = build_traces(spans)
    errors.extend(link_errors)
    for trace_id in sorted(traces):
        errors.extend(validate_trace(trace_id, traces[trace_id]))
        errors.extend(reconcile_trace(trace_id, traces[trace_id]))
    if args.expect:
        errors += check_trace_expectations(traces, args.expect)
    ok = (f"OK: {len(traces)} traces / {len(spans)} spans validated; "
          "all attributions reconcile exactly")
    return errors, ok, lambda: report_trace(traces)


# ------------------------------------------------------------- timeline
#
# `bench_smoke --timeline-out` dumps the run's windowed telemetry (per-window
# counter deltas, gauge readings, histogram summaries) next to the end-of-run
# totals, plus the SLO evaluator's alert transition log.  This section
# re-checks the timeline contract independently of the C++
# Timeline::reconcile code:
#
#   * window monotonicity — indices consecutive from 0, each window starting
#     exactly where the previous one ended, end >= start;
#   * delta-sum reconciliation — every counter's window deltas sum to its
#     end-of-run snapshot value, every stable histogram's window counts sum
#     to its final sample count (the windows *partition* the run);
#   * alert state-machine legality — per rule, the transition log forms a
#     chain (each `from` equals the previous `to`, starting from inactive),
#     a resolve only ever leaves `firing`, and the fired/resolved tallies
#     match the log.
#
# `--expect bench/baselines/smoke_timeline_expect.json` also pins the run's
# window count, counter totals and alert outcomes.
#
# The fleet testbed (src/fleet) emits the same schema: enable
# FleetParams::enable_timeline plus an slo_rules entry such as
#
#   stale-redirects: dir.stale_redirects <= 0 over 1 windows
#
# and the alert tables here show each window where a cooperative-cache
# directory answer went stale (the owning AP evicted the object between
# PUBLISH and the peer relay).  tests/test_fleet.cpp pins that alert's
# firing transition in the retract-racing-a-lookup scenario.

LEGAL_STATES = ("inactive", "pending", "firing")


def check_monotonicity(windows: list[dict]) -> list[str]:
    errors = []
    prev_end = 0
    for i, w in enumerate(windows):
        if w.get("index") != i:
            errors.append(f"window {i}: index {w.get('index')} is not consecutive")
        if w["end_us"] < w["start_us"]:
            errors.append(f"window {i}: end {w['end_us']}us precedes start {w['start_us']}us")
        if w["start_us"] != prev_end:
            errors.append(f"window {i}: start {w['start_us']}us != previous end {prev_end}us")
        prev_end = w["end_us"]
    return errors


def check_delta_sums(doc: dict) -> list[str]:
    errors = []
    windows = doc["timeseries"]["windows"]

    sums: dict[str, int] = {}
    for w in windows:
        for name, delta in w.get("counters", {}).items():
            sums[name] = sums.get(name, 0) + delta
    totals = doc.get("counters", {})
    for name, total in totals.items():
        got = sums.pop(name, 0)
        if got != total:
            errors.append(f"counter {name}: window deltas sum to {got}, snapshot says {total}")
    for name, got in sums.items():
        errors.append(f"counter {name}: windows carry {got} but snapshot has no such counter")

    counts: dict[str, int] = {}
    for w in windows:
        for name, h in w.get("histograms", {}).items():
            counts[name] = counts.get(name, 0) + h["count"]
    for name, hist in doc.get("histograms", {}).items():
        got = counts.pop(name, 0)
        if got != hist["count"]:
            errors.append(f"histogram {name}: window counts sum to {got}, "
                          f"snapshot holds {hist['count']} samples")
    for name, got in counts.items():
        errors.append(f"histogram {name}: windows carry {got} samples "
                      "but snapshot has no such histogram")
    return errors


def check_alerts(doc: dict) -> list[str]:
    alerts = doc.get("alerts")
    if alerts is None:
        return []
    errors = []
    window_count = len(doc["timeseries"]["windows"])

    per_rule: dict[str, list[dict]] = {}
    last_window: dict[str, int] = {}
    for i, t in enumerate(alerts.get("transitions", [])):
        for field in ("window", "rule", "from", "to"):
            if field not in t:
                errors.append(f"transition {i}: missing field {field!r}")
        if t.get("from") not in LEGAL_STATES or t.get("to") not in LEGAL_STATES:
            errors.append(f"transition {i}: illegal state "
                          f"{t.get('from')!r} -> {t.get('to')!r}")
            continue
        if t["from"] == t["to"]:
            errors.append(f"transition {i}: self-transition in state {t['from']!r}")
        if t["window"] >= window_count:
            errors.append(f"transition {i}: window {t['window']} out of range "
                          f"(only {window_count} windows)")
        rule = t.get("rule", "?")
        if rule in last_window and t["window"] < last_window[rule]:
            errors.append(f"rule {rule}: transitions out of window order "
                          f"({t['window']} after {last_window[rule]})")
        last_window[rule] = t.get("window", 0)
        per_rule.setdefault(rule, []).append(t)

    fired = resolved = 0
    for rule, transitions in sorted(per_rule.items()):
        state = "inactive"
        for t in transitions:
            if t["from"] != state:
                errors.append(f"rule {rule}: transition at window {t['window']} leaves "
                              f"{t['from']!r} but the rule was in {state!r}")
            if t["to"] == "firing":
                fired += 1
            if t["from"] == "firing" and t["to"] == "inactive":
                resolved += 1
            if t["to"] == "inactive" and t["from"] == "pending" and state == "inactive":
                errors.append(f"rule {rule}: resolved at window {t['window']} "
                              "without ever leaving inactive")
            state = t["to"]

    if alerts.get("fired", 0) != fired:
        errors.append(f"alerts.fired is {alerts.get('fired')} but the transition log "
                      f"shows {fired} firing transition(s)")
    if alerts.get("resolved", 0) != resolved:
        errors.append(f"alerts.resolved is {alerts.get('resolved')} but the transition "
                      f"log shows {resolved} resolve(s)")

    final = {r["name"]: r["state"] for r in alerts.get("rules", [])}
    for rule, transitions in per_rule.items():
        if rule not in final:
            errors.append(f"rule {rule}: appears in transitions but not in alerts.rules")
        elif transitions and final[rule] != transitions[-1]["to"]:
            errors.append(f"rule {rule}: final state {final[rule]!r} does not match "
                          f"last transition -> {transitions[-1]['to']!r}")
    return errors


def check_expectations(doc: dict, expect_path: str) -> list[str]:
    expect, errors = load_expectations(expect_path)
    if errors:
        return errors
    windows = doc["timeseries"]["windows"]
    if "windows" in expect and len(windows) != expect["windows"]:
        errors.append(f"expected {expect['windows']} windows, snapshot has {len(windows)}")
    for name, value in expect.get("counters", {}).items():
        got = doc.get("counters", {}).get(name)
        if got != value:
            errors.append(f"expected counter {name}={value}, snapshot has {got}")
    alerts = doc.get("alerts", {})
    exp_alerts = expect.get("alerts", {})
    for field in ("fired", "resolved"):
        if field in exp_alerts and alerts.get(field) != exp_alerts[field]:
            errors.append(f"expected alerts.{field}={exp_alerts[field]}, "
                          f"snapshot has {alerts.get(field)}")
    final = {r["name"]: r["state"] for r in alerts.get("rules", [])}
    for rule, state in exp_alerts.get("final", {}).items():
        if final.get(rule) != state:
            errors.append(f"expected rule {rule} to end {state!r}, "
                          f"snapshot has {final.get(rule)!r}")
    return errors


def condition_subject(rule: dict) -> str:
    """The rule's metric, plus its histogram field unless it reads the value."""
    field = rule.get("field", "value")
    return rule["metric"] if field == "value" else f"{rule['metric']} {field}"


def report_timeline(doc: dict) -> None:
    ts = doc["timeseries"]
    windows = ts["windows"]
    print(f"{len(windows)} windows, interval {ts['interval_us'] / 1e6:.0f}s\n")

    print("Per-window activity:")
    rows = []
    for w in windows:
        hit_ratio = w.get("gauges", {}).get("ap.cache.hit_ratio")
        total = w.get("histograms", {}).get("client.total_ms")
        rows.append([
            str(w["index"]),
            f"{w['start_us'] / 1e6:.0f}-{w['end_us'] / 1e6:.0f}s",
            str(sum(w.get("counters", {}).values())),
            f"{hit_ratio:.3f}" if hit_ratio is not None else "-",
            f"{total['p99']:.1f}" if total else "-",
            str(total["count"]) if total else "0",
        ])
    print_table(["window", "span", "Σdeltas", "hit_ratio", "total p99 ms", "samples"], rows)

    alerts = doc.get("alerts")
    if alerts:
        print(f"\nAlerts: {alerts.get('fired', 0)} fired, "
              f"{alerts.get('resolved', 0)} resolved")
        rows = [[str(t["window"]), t["rule"], t["from"], t["to"], f"{t.get('value', 0):g}"]
                for t in alerts.get("transitions", [])]
        if rows:
            print_table(["window", "rule", "from", "to", "value"], rows)
        rows = [[r["name"], r["state"], f"{condition_subject(r)} {r['op']} "
                 f"{r['threshold']:g} over {r['for_windows']}"]
                for r in alerts.get("rules", [])]
        if rows:
            print("\nFinal rule states:")
            print_table(["rule", "state", "condition"], rows)


def timeline_section(doc: dict, args: argparse.Namespace):
    errors = check_monotonicity(doc["timeseries"]["windows"])
    errors += check_delta_sums(doc)
    errors += check_alerts(doc)
    if args.expect:
        errors += check_expectations(doc, args.expect)
    ok = (f"OK: {len(doc['timeseries']['windows'])} windows validated; deltas "
          "reconcile exactly and the alert log is legal")
    return errors, ok, lambda: report_timeline(doc)


# ------------------------------------------------------------------ mrc
#
# `bench_mrc --mrc-out` dumps the cache-analytics plane (DESIGN.md §5l):
# per-AP SHARDS/oracle miss-ratio curves, the eviction-cause ledger, and the
# per-app hit attribution, plus the fleet rollup.  This section re-checks the
# plane's contracts independently of the C++ code:
#
#   * curve sanity — per profiler, point capacities strictly increasing,
#     hit_weight cumulative (strictly increasing, zero-weight buckets are
#     skipped at export), miss_ratio nonincreasing and exactly
#     1 - hit_weight / total_weight at every point;
#   * weight conservation — cold + overflow + reuse (last hit_weight) weight
#     sums to total_weight, and sampled <= accesses;
#   * attribution partition — per-app hits/misses/delegations sum to the
#     plane totals (every lookup is attributed to exactly one app);
#   * rollup consistency — the fleet rollup's evict ledger and totals equal
#     the per-AP sums.
#
# The report's what-if table evaluates each profiler's curve at 0.5x / 1x /
# 2x / 4x of the AP's configured capacity — the provisioning question the
# plane exists to answer ("what does the hit ratio do if this AP had twice
# the DRAM?").

CAUSES = ("capacity", "expired", "replaced", "invalidated", "cleared")
WHAT_IF = (0.5, 1.0, 2.0, 4.0)
# format_double emits shortest-round-trip doubles, so parsed values are
# bit-exact; the slack only covers the summation-order difference between
# this re-check and the C++ accumulation.
REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_profiler(where: str, label: str, prof: dict) -> list[str]:
    errors = []
    total = prof["total_weight"]
    points = prof["points"]
    if prof.get("sampled", 0) > prof.get("accesses", 0):
        errors.append(f"{where}/{label}: sampled {prof['sampled']} exceeds "
                      f"accesses {prof['accesses']}")
    prev_cap = 0
    prev_hit = 0.0
    prev_miss = 1.0 + REL_TOL
    for i, p in enumerate(points):
        at = f"{where}/{label} point {i} (cap {p['capacity_bytes']})"
        if p["capacity_bytes"] <= prev_cap:
            errors.append(f"{at}: capacity not strictly increasing "
                          f"({p['capacity_bytes']} after {prev_cap})")
        if p["hit_weight"] <= prev_hit:
            errors.append(f"{at}: hit_weight not strictly increasing "
                          f"({p['hit_weight']} after {prev_hit})")
        if p["miss_ratio"] > prev_miss + REL_TOL:
            errors.append(f"{at}: miss_ratio increases "
                          f"({p['miss_ratio']} after {prev_miss})")
        if not -REL_TOL <= p["miss_ratio"] <= 1.0 + REL_TOL:
            errors.append(f"{at}: miss_ratio {p['miss_ratio']} outside [0, 1]")
        if total > 0 and not close(p["miss_ratio"], 1.0 - p["hit_weight"] / total):
            errors.append(f"{at}: miss_ratio {p['miss_ratio']} != "
                          f"1 - hit_weight/total_weight "
                          f"({1.0 - p['hit_weight'] / total})")
        prev_cap = p["capacity_bytes"]
        prev_hit = p["hit_weight"]
        prev_miss = p["miss_ratio"]
    reuse = points[-1]["hit_weight"] if points else 0.0
    parts = prof["cold_weight"] + prof["overflow_weight"] + reuse
    if not close(parts, total):
        errors.append(f"{where}/{label}: cold {prof['cold_weight']} + overflow "
                      f"{prof['overflow_weight']} + reuse {reuse} = {parts} "
                      f"!= total_weight {total}")
    return errors


def check_attribution(where: str, ap: dict) -> list[str]:
    errors = []
    totals = ap["totals"]
    for field in ("hits", "misses", "delegations"):
        per_app = sum(tally[field] for tally in ap["apps"].values())
        if per_app != totals[field]:
            errors.append(f"{where}: per-app {field} sum {per_app} != "
                          f"totals.{field} {totals[field]} (partition broken)")
    return errors


def check_rollup(doc: dict) -> list[str]:
    errors = []
    aps = doc["mrc"]["aps"]
    rollup = doc["mrc"]["rollup"]
    for cause in CAUSES + ("doa",):
        want = sum(ap["evict"][cause] for ap in aps)
        got = rollup["evict"][cause]
        if got != want:
            errors.append(f"rollup: evict.{cause} {got} != per-AP sum {want}")
    for field in ("hits", "misses", "delegations"):
        want = sum(ap["totals"][field] for ap in aps)
        got = rollup["totals"][field]
        if got != want:
            errors.append(f"rollup: totals.{field} {got} != per-AP sum {want}")
    for label, prof in rollup["profilers"].items():
        merged = [p for ap in aps
                  if label in ap["profilers"]
                  and ap["profilers"][label]["bucket_bytes"] == prof["bucket_bytes"]
                  for p in [ap["profilers"][label]]]
        for field in ("accesses", "sampled"):
            want = sum(p[field] for p in merged)
            if prof[field] != want:
                errors.append(f"rollup/{label}: {field} {prof[field]} != "
                              f"per-AP sum {want}")
        want_total = sum(p["total_weight"] for p in merged)
        if not close(prof["total_weight"], want_total):
            errors.append(f"rollup/{label}: total_weight {prof['total_weight']} "
                          f"!= per-AP sum {want_total}")
    return errors


def validate_mrc(doc: dict) -> list[str]:
    errors = []
    for ap in doc["mrc"]["aps"]:
        where = ap["name"]
        for label, prof in ap["profilers"].items():
            errors += check_profiler(where, label, prof)
        errors += check_attribution(where, ap)
    for label, prof in doc["mrc"]["rollup"]["profilers"].items():
        errors += check_profiler("rollup", label, prof)
    errors += check_rollup(doc)
    return errors


def miss_ratio_at(prof: dict, capacity: float) -> float:
    """Step interpolation: the last plotted point at or below `capacity`
    (matches MrcProfiler::miss_ratio_at's bucket cumulation)."""
    ratio = 1.0
    for p in prof["points"]:
        if p["capacity_bytes"] > capacity:
            break
        ratio = p["miss_ratio"]
    return ratio


def fmt_bytes(n: float) -> str:
    if n >= 1e9:
        return f"{n / 1e9:.2f}GB"
    if n >= 1e6:
        return f"{n / 1e6:.1f}MB"
    return f"{n / 1e3:.0f}KB"


def ascii_curve(prof: dict, width: int = 56, rows: int = 16) -> None:
    points = prof["points"]
    if not points:
        print("  (empty curve)")
        return
    max_cap = points[-1]["capacity_bytes"]
    step = max_cap / rows
    for i in range(1, rows + 1):
        cap = step * i
        miss = miss_ratio_at(prof, cap)
        bar = "#" * round(miss * width)
        print(f"  {fmt_bytes(cap):>9} |{bar:<{width}}| {miss:.3f}")


def report_ap(ap: dict) -> None:
    totals = ap["totals"]
    lookups = totals["hits"] + totals["misses"] + totals["delegations"]
    served = totals["hits"] + totals["delegations"]
    print(f"\n=== {ap['name']} (capacity {fmt_bytes(ap['capacity_bytes'])}) ===")
    print(f"{lookups} lookups over {len(ap['apps'])} apps: "
          f"{totals['hits']} hits, {totals['misses']} misses, "
          f"{totals['delegations']} delegations "
          f"(served ratio {served / lookups:.3f})" if lookups else "no lookups")

    evict = ap["evict"]
    ledger = ", ".join(f"{cause} {evict[cause]}" for cause in CAUSES if evict[cause])
    print(f"evictions: {ledger or 'none'}; dead-on-arrival {evict['doa']} "
          f"(ratio {ap['doa_ratio']:.3f})")

    for label, prof in ap["profilers"].items():
        print(f"\n  {label}: rate {prof['current_rate']:.3f}, "
              f"{prof['sampled']}/{prof['accesses']} accesses sampled, "
              f"{len(prof['points'])} curve points")
        ascii_curve(prof)

    print("\n  What-if capacity table (miss ratio per profiler):")
    header = ["capacity"] + list(ap["profilers"])
    rows = []
    for mult in WHAT_IF:
        cap = ap["capacity_bytes"] * mult
        row = [f"{mult:g}x = {fmt_bytes(cap)}"]
        for prof in ap["profilers"].values():
            row.append(f"{miss_ratio_at(prof, cap):.3f}")
        rows.append(row)
    print_table(header, rows)

    top = sorted(ap["apps"].items(),
                 key=lambda kv: kv[1]["hits"] + kv[1]["misses"] + kv[1]["delegations"],
                 reverse=True)[:8]
    rows = []
    for app, tally in top:
        n = tally["hits"] + tally["misses"] + tally["delegations"]
        rows.append([app, str(n), str(tally["hits"]), str(tally["misses"]),
                     str(tally["delegations"]),
                     f"{tally['hits'] / n:.3f}" if n else "-"])
    print("\n  Top apps by lookups:")
    print_table(["app", "lookups", "hits", "misses", "deleg", "hit_ratio"], rows)


def report_mrc(doc: dict) -> None:
    aps = doc["mrc"]["aps"]
    for ap in aps:
        report_ap(ap)
    if len(aps) > 1:
        rollup = doc["mrc"]["rollup"]
        totals = rollup["totals"]
        print(f"\n=== fleet rollup ({len(aps)} APs) ===")
        print(f"totals: {totals['hits']} hits, {totals['misses']} misses, "
              f"{totals['delegations']} delegations")
        for label, prof in rollup["profilers"].items():
            print(f"\n  {label} (merged):")
            ascii_curve(prof)


def mrc_section(doc: dict, args: argparse.Namespace):
    aps = doc["mrc"]["aps"]
    curves = sum(len(ap["profilers"]) for ap in aps)
    ok = (f"OK: {len(aps)} AP(s), {curves} curve(s) validated; curves are "
          "monotone, weights conserve, and the app partition reconciles")
    return validate_mrc(doc), ok, lambda: report_mrc(doc)


# -------------------------------------------------------------- profile
#
# Produced by the profiling plane (src/obs/profile.hpp) and exported when a
# tool passes `--profile-out` (bench_engine) or mounts an EngineProfiler and
# exports with ExportOptions.profile set.  Two reports:
#
#   * Top-N per-kind cost table.  When the snapshot carries the opt-in
#     wallclock stratum (`profile.wallclock`), kinds rank by host
#     microseconds spent inside their fire callbacks; otherwise the stable
#     stratum ranks by fired-event count.
#
#   * Shard-load projection.  Kind tags follow the
#     `<owner>.<subsystem>.<verb>` grammar where <owner> is one of the
#     APE_SHARD_CONTEXT owners (ap, client, controller, edge, origin, net,
#     wan).  Bucketing per-kind cost by owner estimates how load would
#     split across a sharded engine, and `total / max(owner)` is the
#     speedup ceiling a perfectly parallel shard-per-owner run could reach
#     (Amdahl on the heaviest shard).
#
# The check covers the stable stratum's internal identities:
#
#   * sum(kinds.fired)     == engine.events_fired
#   * sum(kinds.cancelled) == engine.events_cancelled
#   * sum(kinds.scheduled) == fired + cancelled + engine.pending_at_end
#   * per kind: smallfn_heap <= scheduled, fired + cancelled <= scheduled

# APE_SHARD_CONTEXT owners (see src/common/shard.hpp); first segment of a
# kind tag.  "(untagged)" and unknown prefixes fall into "other".
SHARD_OWNERS = ("ap", "client", "controller", "edge", "origin", "net", "wan")


def owner_of(kind: str) -> str:
    head = kind.split(".", 1)[0]
    return head if head in SHARD_OWNERS else "other"


def top_table(profile: dict, top: int) -> None:
    kinds: dict = profile.get("kinds", {})
    wall: dict = profile.get("wallclock", {}).get("kinds", {})
    have_wall = bool(wall)

    def cost(item):
        name, row = item
        return wall.get(name, 0.0) if have_wall else row.get("fired", 0)

    ranked = sorted(kinds.items(), key=cost, reverse=True)
    unit = "wall_us" if have_wall else "(stable counters only)"
    print(f"top {min(top, len(ranked))} of {len(ranked)} event kind(s) "
          f"by {'host microseconds' if have_wall else 'fired count'} {unit}")
    header = f"{'kind':40s} {'scheduled':>10s} {'fired':>10s} " \
             f"{'cancelled':>10s} {'heap':>6s}"
    if have_wall:
        header += f" {'wall_us':>12s} {'us/fire':>8s}"
    print(header)
    for name, row in ranked[:top]:
        line = (f"{name:40s} {row.get('scheduled', 0):>10d} "
                f"{row.get('fired', 0):>10d} {row.get('cancelled', 0):>10d} "
                f"{row.get('smallfn_heap', 0):>6d}")
        if have_wall:
            us = wall.get(name, 0.0)
            fired = row.get("fired", 0)
            per = us / fired if fired else 0.0
            line += f" {us:>12.1f} {per:>8.2f}"
        print(line)


def shard_projection(profile: dict) -> None:
    kinds: dict = profile.get("kinds", {})
    wall: dict = profile.get("wallclock", {}).get("kinds", {})
    have_wall = bool(wall)

    buckets: dict[str, float] = {}
    for name, row in kinds.items():
        cost = wall.get(name, 0.0) if have_wall else float(row.get("fired", 0))
        buckets[owner_of(name)] = buckets.get(owner_of(name), 0.0) + cost
    total = sum(buckets.values())
    if total <= 0:
        print("shard-load projection: no attributed cost")
        return

    unit = "wall_us" if have_wall else "fired"
    print(f"\nshard-load projection (by kind-tag owner, cost = {unit})")
    for owner, cost in sorted(buckets.items(), key=lambda kv: kv[1],
                              reverse=True):
        print(f"  {owner:12s} {cost:>14.1f}  {100.0 * cost / total:5.1f}%")
    heaviest = max(buckets.values())
    print(f"  speedup ceiling (total / heaviest owner): "
          f"{total / heaviest:.2f}x across {len(buckets)} owner shard(s)")


def validate_profile(profile: dict) -> list[str]:
    kinds: dict = profile.get("kinds", {})
    engine: dict = profile.get("engine", {})
    problems: list[str] = []

    def total(field: str) -> int:
        return sum(row.get(field, 0) for row in kinds.values())

    fired, cancelled, scheduled = (total("fired"), total("cancelled"),
                                   total("scheduled"))
    if fired != engine.get("events_fired"):
        problems.append(f"sum(kinds.fired)={fired} != "
                        f"engine.events_fired={engine.get('events_fired')}")
    if cancelled != engine.get("events_cancelled"):
        problems.append(
            f"sum(kinds.cancelled)={cancelled} != "
            f"engine.events_cancelled={engine.get('events_cancelled')}")
    pending = engine.get("pending_at_end", 0)
    if scheduled != fired + cancelled + pending:
        problems.append(f"sum(kinds.scheduled)={scheduled} != "
                        f"fired+cancelled+pending_at_end="
                        f"{fired + cancelled + pending}")
    for name, row in kinds.items():
        if row.get("smallfn_heap", 0) > row.get("scheduled", 0):
            problems.append(f"{name}: smallfn_heap > scheduled")
        if row.get("fired", 0) + row.get("cancelled", 0) > row.get(
                "scheduled", 0):
            problems.append(f"{name}: fired + cancelled > scheduled")
    return problems


def profile_section(doc: dict, args: argparse.Namespace):
    profile = doc["profile"]

    def render() -> None:
        top_table(profile, args.top)
        shard_projection(profile)

    ok = (f"OK: {len(profile.get('kinds', {}))} kind(s), "
          f"{profile.get('engine', {}).get('events_fired', 0)} fired event(s) "
          "fully attributed")
    return validate_profile(profile), ok, render


# Section -> (check + report, top-level key its export carries, the bench
# flag that writes that export).
SECTIONS = {
    "trace": (trace_section, "traceEvents", "--trace-out"),
    "timeline": (timeline_section, "timeseries", "--timeline-out"),
    "mrc": (mrc_section, "mrc", "--mrc-out"),
    "profile": (profile_section, "profile", "--profile-out"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="section", required=True, metavar="SECTION")
    for name, (_, _, flag) in SECTIONS.items():
        p = sub.add_parser(name, help=f"check/report the export of {flag}")
        p.add_argument("file", help=f"JSON written by {flag}")
        p.add_argument("--validate", action="store_true",
                       help="check invariants only; exit 1 on any violation")
        if name == "trace":
            p.add_argument("--expect", metavar="JSON",
                           help="expectations file pinning trace count / spans per "
                                "kind / parent-kind edges")
        if name == "timeline":
            p.add_argument("--expect", metavar="JSON",
                           help="expectations file pinning window count / counter "
                                "totals / alert outcomes")
        if name == "profile":
            p.add_argument("--top", type=int, default=15,
                           help="rows in the per-kind table (default 15)")
    args = parser.parse_args()

    doc = load(args.file, args.section)
    errors, ok, render = SECTIONS[args.section][0](doc, args)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        print(f"FAIL: {len(errors)} violation(s) in {args.file}", file=sys.stderr)
        return 1
    if args.validate:
        print(ok)
        return 0
    render()
    return 0


if __name__ == "__main__":
    sys.exit(main())
