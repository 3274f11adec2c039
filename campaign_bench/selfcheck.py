#!/usr/bin/env python3
"""Self-check of the campaign benchmark: EV on apps-search is a count.

    python3 campaign_bench/selfcheck.py

CB, CM, DD and HC at a fixed evaluation budget choose their next
configuration from pass/fail verdicts alone, never from measured times,
so the paper's EV (ev_total) on apps-search must repeat exactly: across
the rounds of one run and across two runs with different seeds. The
check also requires every winner to pass the independent re-check.
Exits 0 when all of this holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def run(seed):
    proc = subprocess.run(
        [sys.executable, "campaign_bench/run.py", "--workload", "apps-search",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    failures = []
    totals = []
    for seed in SEEDS:
        record, result = run(seed)
        samples = record["result"]["samples"]["ev_total"]
        if len(set(samples)) != 1:
            failures.append(f"seed {seed}: ev_total differs across rounds "
                            f"{samples}")
        if not result["correct"] or result["failed"]:
            failures.append(f"seed {seed}: {result['failed']} of "
                            f"{result['attempted']} jobs failed")
        totals.append(result["metrics"]["ev_total"]["value"])
    if len(set(totals)) != 1:
        failures.append(f"ev_total differs across seeds {totals}")
    for failure in failures:
        print("selfcheck: FAIL", failure)
    if not failures:
        print(f"selfcheck: ok, ev_total = {totals[0]:g} on every round "
              f"of seeds {SEEDS}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
