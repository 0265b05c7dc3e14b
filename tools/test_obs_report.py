#!/usr/bin/env python3
"""Self-test for tools/obs_report.py: every check family can fail.

The *_smoke ctest entries only feed real, valid exports to `--validate`, so
on their own they cannot show that a check rejects anything.  Here each
section gets a small valid document that must pass (exit 0, in both
`--validate` and report mode), and one mutation per check family that must
fail with exit 1 and name the broken invariant on stderr.

Run directly (`python3 tools/test_obs_report.py`) or through ctest
(`obs_report_checks`).
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "obs_report.py")


def span(trace, span_id, parent, ts, dur, name="hop", key="GET /x"):
    return {"ph": "X", "name": name, "cat": "test", "ts": ts, "dur": dur,
            "pid": 1, "tid": 1,
            "args": {"trace": trace, "span": span_id, "parent": parent, "key": key}}


# One request: a root with two back-to-back children.
TRACE = {"traceEvents": [
    {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "client"}},
    span(1, 1, 0, 0, 100, name="client.fetch"),
    span(1, 2, 1, 10, 30, name="dns.lookup"),
    span(1, 3, 1, 50, 20, name="http.get"),
]}

TRACE_EXPECT = {"traces": 1, "spans": 3,
                "kinds": {"client.fetch": 1, "dns.lookup": 1, "http.get": 1},
                "edges": {"client.fetch -> dns.lookup": 1, "client.fetch -> http.get": 1}}


def window(index, counters, hist_count):
    return {"index": index, "start_us": index * 30_000_000,
            "end_us": (index + 1) * 30_000_000, "counters": counters,
            "gauges": {"ap.cache.hit_ratio": 0.5},
            "histograms": {"client.total_ms": {
                "unit": "ms", "count": hist_count, "sum": 1.0, "mean": 1.0, "min": 1.0,
                "max": 1.0, "p50": 1.0, "p95": 1.0, "p99": 1.0}}}


# Two windows; one rule that fires in the first and resolves in the second.
TIMELINE = {
    "schema": "ape.obs.v1",
    "counters": {"hits": 3},
    "histograms": {"client.total_ms": {"unit": "ms", "count": 2}},
    "timeseries": {"interval_us": 30_000_000,
                   "windows": [window(0, {"hits": 1}, 1), window(1, {"hits": 2}, 1)]},
    "alerts": {
        "fired": 1, "resolved": 1,
        "rules": [{"name": "hot", "metric": "hits", "field": "value", "op": ">",
                   "threshold": 0, "for_windows": 1, "resolve_windows": 1,
                   "state": "inactive"}],
        "transitions": [
            {"window": 0, "rule": "hot", "from": "inactive", "to": "firing", "value": 1},
            {"window": 1, "rule": "hot", "from": "firing", "to": "inactive", "value": 0},
        ]},
}

TIMELINE_EXPECT = {"windows": 2, "counters": {"hits": 3},
                   "alerts": {"fired": 1, "resolved": 1, "final": {"hot": "inactive"}}}


def curve(rates: bool) -> dict:
    # cold 2 + overflow 3 + reuse 5 == total 10; miss == 1 - hit/total.
    prof = {"accesses": 10, "sampled": 10, "total_weight": 10.0, "cold_weight": 2.0,
            "overflow_weight": 3.0, "bucket_bytes": 1000,
            "points": [{"capacity_bytes": 1000, "hit_weight": 2.0, "miss_ratio": 0.8},
                       {"capacity_bytes": 2000, "hit_weight": 5.0, "miss_ratio": 0.5}]}
    if rates:
        prof.update(sample_rate=1.0, current_rate=1.0)
    return prof


EVICT = {"capacity": 1, "expired": 0, "replaced": 0, "invalidated": 0, "cleared": 0,
         "doa": 1}
TOTALS = {"hits": 4, "misses": 1, "delegations": 3}

MRC = {"schema": "ape.obs.v1", "mrc": {
    "aps": [{"name": "ap", "capacity_bytes": 2000, "profilers": {"oracle": curve(True)},
             "evict": dict(EVICT), "doa_ratio": 1.0,
             "apps": {"1": {"hits": 3, "misses": 1, "delegations": 2},
                      "2": {"hits": 1, "misses": 0, "delegations": 1}},
             "totals": dict(TOTALS)}],
    "rollup": {"profilers": {"oracle": curve(False)}, "evict": dict(EVICT),
               "totals": dict(TOTALS)},
}}

# 9 scheduled == 7 fired + 1 cancelled + 1 pending.
PROFILE = {"schema": "ape.obs.v1", "profile": {
    "kinds": {"ap.dns.serve": {"scheduled": 5, "cancelled": 1, "fired": 3,
                               "smallfn_heap": 0},
              "net.datagram.deliver": {"scheduled": 4, "cancelled": 0, "fired": 4,
                                       "smallfn_heap": 1}},
    "engine": {"events_fired": 7, "events_cancelled": 1, "pending_at_end": 1},
}}


class ObsReportTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run_tool(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, TOOL, *args], capture_output=True,
                              text=True, check=False)

    def assert_passes(self, section: str, doc: dict, *extra: str) -> None:
        path = self.write(f"{section}.json", doc)
        validate = self.run_tool(section, "--validate", *extra, path)
        report = self.run_tool(section, *extra, path)
        for res in (validate, report):
            self.assertEqual(res.returncode, 0, res.stderr)
            self.assertEqual(res.stderr, "")
        self.assertTrue(validate.stdout.startswith("OK: "), validate.stdout)

    def assert_fails(self, section: str, doc: dict, message: str, *extra: str) -> None:
        path = self.write(f"{section}-bad.json", doc)
        for mode in (["--validate"], []):
            res = self.run_tool(section, *mode, *extra, path)
            self.assertEqual(res.returncode, 1, res.stdout)
            self.assertIn(message, res.stderr)
            self.assertIn("FAIL: ", res.stderr)

    # --- trace ---------------------------------------------------------------

    def test_trace_valid(self):
        self.assert_passes("trace", TRACE)
        expect = self.write("expect.json", TRACE_EXPECT)
        self.assert_passes("trace", TRACE, "--expect", expect)

    def test_trace_child_escapes_parent(self):
        doc = copy.deepcopy(TRACE)
        doc["traceEvents"][3]["dur"] = 60  # http.get now ends at 110 > 100
        self.assert_fails("trace", doc, "escapes parent 1")

    def test_trace_exclusive_sum_mismatch(self):
        # An orphaned span is billed to no parent, so the exclusive times
        # over-count the root's end-to-end duration.
        doc = copy.deepcopy(TRACE)
        doc["traceEvents"][3]["args"]["parent"] = 9
        self.assert_fails("trace", doc, "exclusive sum 120us != end-to-end 100us")

    def test_trace_expect_missing_kind(self):
        # Still a valid trace: the root simply bills http.get's time itself.
        doc = copy.deepcopy(TRACE)
        del doc["traceEvents"][3]
        expect = self.write("expect.json", TRACE_EXPECT)
        self.assert_fails("trace", doc, "kind 'http.get': expected 1, dump has 0",
                          "--expect", expect)

    def test_trace_expect_moved_edge(self):
        # http.get now nests inside dns.lookup: valid and reconciling, but
        # parented under the wrong hop.
        doc = copy.deepcopy(TRACE)
        doc["traceEvents"][3].update(ts=15, dur=20)
        doc["traceEvents"][3]["args"]["parent"] = 2
        expect = self.write("expect.json", TRACE_EXPECT)
        self.assert_fails("trace", doc, "edge 'dns.lookup -> http.get': expected 0, dump has 1",
                          "--expect", expect)

    # --- timeline ------------------------------------------------------------

    def test_timeline_valid(self):
        self.assert_passes("timeline", TIMELINE)
        expect = self.write("expect.json", TIMELINE_EXPECT)
        self.assert_passes("timeline", TIMELINE, "--expect", expect)

    def test_timeline_window_gap(self):
        doc = copy.deepcopy(TIMELINE)
        doc["timeseries"]["windows"][1]["start_us"] += 1
        self.assert_fails("timeline", doc, "!= previous end 30000000us")

    def test_timeline_delta_sum_mismatch(self):
        doc = copy.deepcopy(TIMELINE)
        doc["counters"]["hits"] = 4
        self.assert_fails("timeline", doc, "window deltas sum to 3, snapshot says 4")

    def test_timeline_alert_leaves_wrong_state(self):
        doc = copy.deepcopy(TIMELINE)
        doc["alerts"]["transitions"][1]["from"] = "pending"
        self.assert_fails("timeline", doc,
                          "leaves 'pending' but the rule was in 'firing'")

    def test_timeline_expect_mismatch(self):
        expect = self.write("expect.json", dict(TIMELINE_EXPECT, windows=3))
        self.assert_fails("timeline", TIMELINE, "expected 3 windows, snapshot has 2",
                          "--expect", expect)

    # --- mrc -----------------------------------------------------------------

    def test_mrc_valid(self):
        self.assert_passes("mrc", MRC)

    def test_mrc_rising_miss_ratio(self):
        doc = copy.deepcopy(MRC)
        doc["mrc"]["aps"][0]["profilers"]["oracle"]["points"][1]["miss_ratio"] = 0.9
        self.assert_fails("mrc", doc, "miss_ratio increases")

    def test_mrc_weights_do_not_conserve(self):
        doc = copy.deepcopy(MRC)
        doc["mrc"]["aps"][0]["profilers"]["oracle"]["cold_weight"] = 3.0
        self.assert_fails("mrc", doc, "!= total_weight 10.0")

    def test_mrc_per_app_sum_breaks_partition(self):
        doc = copy.deepcopy(MRC)
        doc["mrc"]["aps"][0]["apps"]["1"]["hits"] = 4
        self.assert_fails("mrc", doc, "per-app hits sum 5 != totals.hits 4")

    def test_mrc_rollup_differs_from_per_ap_sum(self):
        doc = copy.deepcopy(MRC)
        doc["mrc"]["rollup"]["evict"]["capacity"] = 2
        self.assert_fails("mrc", doc, "rollup: evict.capacity 2 != per-AP sum 1")

    # --- profile -------------------------------------------------------------

    def test_profile_valid(self):
        self.assert_passes("profile", PROFILE)
        self.assert_passes("profile", PROFILE, "--top", "1")

    def test_profile_fired_sum_mismatch(self):
        doc = copy.deepcopy(PROFILE)
        doc["profile"]["engine"]["events_fired"] = 8
        self.assert_fails("profile", doc, "sum(kinds.fired)=7 != engine.events_fired=8")

    def test_profile_scheduled_identity_broken(self):
        doc = copy.deepcopy(PROFILE)
        doc["profile"]["engine"]["pending_at_end"] = 2
        self.assert_fails("profile", doc,
                          "sum(kinds.scheduled)=9 != fired+cancelled+pending_at_end=10")


if __name__ == "__main__":
    unittest.main()
