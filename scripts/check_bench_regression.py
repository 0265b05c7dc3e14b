#!/usr/bin/env python3
"""Compare a bench --json snapshot against a committed baseline.

Both files are "ape.obs.v1" snapshots (see src/obs/export.hpp).  The
checker walks the stable sections (counters, gauges, histograms) and
flags any watched metric that drifted more than the tolerance from the
baseline.  The `volatile` section (wall-clock timings) is ignored unless
--include-volatile is given.

Watched metrics default to the regression-relevant families — hit
ratios, latency percentiles, and simulator event counts — so incidental
counters (bytes, per-app detail) don't turn every workload tweak into a
CI failure.  Use --all to compare every metric instead.

Usage:
  build/bench/bench_smoke --json /tmp/smoke.json
  scripts/check_bench_regression.py bench/baselines/smoke.json /tmp/smoke.json

Exit codes: 0 ok, 1 regression(s) or unreadable/invalid snapshot,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

SCHEMA = "ape.obs.v1"

# Metric families that gate CI (matched against the flattened name).
DEFAULT_WATCH = (r"(hit_ratio|recovery_ratio|p50|p99|events_fired"
                 r"|events_per_sec|order_digest|serves\.|stale_redirects|epoch_replays"
                 r"|mrc_max_err|evict\.)")

# Histogram fields worth comparing (count is exact; the rest are values).
HISTOGRAM_FIELDS = ("count", "mean", "p50", "p90", "p95", "p99", "min", "max")


def flatten(snapshot: dict, include_volatile: bool) -> dict[str, float]:
    """Flattens a snapshot into {metric_name: value}."""
    flat: dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        # Keep counters as exact ints: 64-bit order digests exceed double
        # precision (2^53), so float() would silently equate values that
        # differ in the low bits — exactly what a digest exists to catch.
        flat[name] = value if isinstance(value, int) else float(value)
    for name, gauge in snapshot.get("gauges", {}).items():
        flat[name] = float(gauge["value"])
    for name, hist in snapshot.get("histograms", {}).items():
        for field in HISTOGRAM_FIELDS:
            if field in hist:
                flat[f"{name}.{field}"] = float(hist[field])
    if include_volatile:
        vol = snapshot.get("volatile", {})
        for name, gauge in vol.get("gauges", {}).items():
            flat[name] = float(gauge["value"])
        for name, hist in vol.get("histograms", {}).items():
            for field in HISTOGRAM_FIELDS:
                if field in hist:
                    flat[f"{name}.{field}"] = float(hist[field])
    return flat


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            snapshot = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if snapshot.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: expected schema {SCHEMA!r}, "
                 f"got {snapshot.get('schema')!r}")
    return snapshot


def refresh_command(baseline_path: str, snapshot: dict) -> str:
    """The command that rewrites `baseline_path`, named from its meta.bench:
    "mrc" -> bench_mrc --json, "bench_engine.profile" -> bench_engine
    --profile-out."""
    bench, _, flavour = str(snapshot.get("meta", {}).get("bench", "smoke")).partition(".")
    if not bench.startswith("bench_"):
        bench = f"bench_{bench}"
    flag = f"--{flavour}-out" if flavour else "--json"
    return f"build/bench/{bench} {flag} {baseline_path}"


def relative_drift(baseline: float, current: float) -> float:
    if baseline == current:
        return 0.0
    if baseline == 0.0:
        return float("inf")
    return abs(current - baseline) / abs(baseline)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline snapshot")
    parser.add_argument("current", nargs="?",
                        help="freshly produced snapshot "
                             "(optional with --list-watched)")
    parser.add_argument("--list-watched", action="store_true",
                        help="print the resolved watch set (baseline metrics "
                             "the gate would compare) and exit 0")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative drift (default 0.10 = ±10%%)")
    parser.add_argument("--watch", default=None,
                        help="extra regex OR-merged with the default watch set "
                             f"(default set: {DEFAULT_WATCH!r})")
    parser.add_argument("--watch-only", default=None,
                        help="regex REPLACING the watch set entirely (for "
                             "lanes that gate a hand-picked metric list)")
    parser.add_argument("--all", action="store_true",
                        help="gate on every metric, not just --watch matches")
    parser.add_argument("--include-volatile", action="store_true",
                        help="also compare the volatile (wall-clock) section")
    parser.add_argument("--floor-only", action="store_true",
                        help="one-sided gate: fail only when current falls "
                             "below baseline by more than the tolerance — for "
                             "throughput metrics (events_per_sec) where being "
                             "faster is never a regression")
    parser.add_argument("--verbose", action="store_true",
                        help="print every compared metric, not just failures")
    parser.add_argument("--json-out", metavar="PATH",
                        help="write a machine-readable result summary "
                             "(pass/fail plus per-metric deltas) to PATH — "
                             "uploaded as a CI artifact so dashboards don't "
                             "have to scrape the text log")
    args = parser.parse_args()

    # Effective pattern: --watch-only replaces the default set, --watch
    # widens it (both at once is ambiguous and rejected).
    if args.watch_only is not None and args.watch is not None:
        parser.error("--watch (additive) and --watch-only (replacing) "
                     "are mutually exclusive")
    if args.watch_only is not None:
        effective_watch = args.watch_only
    elif args.watch is not None:
        effective_watch = f"(?:{DEFAULT_WATCH})|(?:{args.watch})"
    else:
        effective_watch = DEFAULT_WATCH

    # --list-watched always surfaces the volatile section too: the watch
    # set is documentation of what the gate *could* compare, and the
    # engine-perf lane's headline metric (events_per_sec) lives there.
    baseline = load(args.baseline)
    base = flatten(baseline, args.include_volatile or args.list_watched)
    watch = re.compile(effective_watch)

    watched = sorted(n for n in base if args.all or watch.search(n))
    if args.list_watched:
        pattern = "<all>" if args.all else effective_watch
        print(f"watch pattern: {pattern}")
        for name in watched:
            print(f"  {name}")
        print(f"{len(watched)} watched metric(s) in {args.baseline}")
        return 0
    if args.current is None:
        parser.error("current snapshot required unless --list-watched")
    if not watched:
        sys.exit(f"error: no metrics in {args.baseline} match {effective_watch!r}")
    cur = flatten(load(args.current), args.include_volatile)

    failures = []
    rows = []
    for name in watched:
        if name not in cur:
            failures.append((name, base[name], None, float("inf")))
            rows.append({"name": name, "baseline": base[name], "current": None,
                         "drift": None, "status": "missing"})
            continue
        if args.floor_only:
            # Only a shortfall counts; matching or beating baseline is 0 drift.
            if base[name] == 0.0:
                drift = 0.0
            else:
                drift = max(0.0, (base[name] - cur[name]) / abs(base[name]))
        else:
            drift = relative_drift(base[name], cur[name])
        status = "FAIL" if drift > args.tolerance else "ok"
        if args.verbose or status == "FAIL":
            drift_pct = "missing" if cur.get(name) is None else f"{drift * 100:.1f}%"
            print(f"{status:4s} {name}: baseline={base[name]:g} "
                  f"current={cur.get(name, 'missing')} drift={drift_pct}")
        if status == "FAIL":
            failures.append((name, base[name], cur.get(name), drift))
        rows.append({"name": name, "baseline": base[name], "current": cur[name],
                     "drift": drift if drift != float("inf") else None,
                     "status": "fail" if status == "FAIL" else "ok"})

    new_metrics = sorted(n for n in cur if n not in base
                         and (args.all or watch.search(n)))
    for name in new_metrics:
        print(f"note: new metric (not in baseline): {name}={cur[name]:g}")

    print(f"compared {len(watched)} metric(s), "
          f"{len(failures)} regression(s), tolerance ±{args.tolerance * 100:.0f}%")
    if args.json_out:
        # Strict JSON: inf/nan are not representable, so unbounded drifts
        # (baseline 0 or metric missing) are already carried as null above.
        summary = {
            "schema": "ape.bench_regression.v1",
            "baseline": args.baseline,
            "current": args.current,
            "tolerance": args.tolerance,
            "watch": "<all>" if args.all else effective_watch,
            "floor_only": bool(args.floor_only),
            "pass": not failures,
            "compared": len(watched),
            "regressions": len(failures),
            "metrics": rows,
            "new_metrics": {n: cur[n] for n in new_metrics},
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=False, allow_nan=False)
            f.write("\n")
    if failures:
        print("regressions detected — if intentional, refresh the baseline with:")
        print(f"  {refresh_command(args.baseline, baseline)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
