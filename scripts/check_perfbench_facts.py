#!/usr/bin/env python3
"""Compare perfbench_driver runs against the pinned sim-time facts.

    python3 scripts/check_perfbench_facts.py bench/baselines/perfbench_facts.json \\
        facts-paper_pacm.json facts-hot_hits.json facts-fleet16.json

Each run file is the JSON line `.bench_build/perfbench_driver <workload>
<seed> 0 0` prints.  Its `untraced` digest, events, datagrams and attempted
must equal the pinned values for its workload, every pinned workload must
be present, and the seed must match.  Exit 0 when all match, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

FIELDS = ("digest", "events", "datagrams", "attempted")


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        pinned = json.load(f)
    failures = []
    seen = set()
    for path in argv[2:]:
        with open(path, encoding="utf-8") as f:
            run = json.load(f)
        workload = run.get("workload")
        expect = pinned["workloads"].get(workload)
        if expect is None:
            failures.append(f"{path}: workload {workload!r} is not pinned")
            continue
        if run.get("seed") != pinned["seed"]:
            failures.append(f"{path}: seed {run.get('seed')} != pinned {pinned['seed']}")
            continue
        seen.add(workload)
        facts = run["untraced"]
        for field in FIELDS:
            if facts.get(field) != expect[field]:
                failures.append(f"{workload}: {field} {facts.get(field)!r} != "
                                f"pinned {expect[field]!r}")
    for workload in sorted(set(pinned["workloads"]) - seen):
        failures.append(f"{workload}: no run given")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if not failures:
        print(f"perfbench facts: OK ({len(seen)} workloads, seed {pinned['seed']})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
