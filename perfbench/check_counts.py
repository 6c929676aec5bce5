"""Check that the exact counts repeat: two traced runs of each workload with
the same seed must report identical jets.entries, jets.printed_chars,
checks.points and jets.rank_deficient_points.

    python3 perfbench/check_counts.py [--seed N] [WORKLOAD ...]

Exits 1 on a mismatch. The counts describe the first pass only, so each run
measures for one second beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("jets.entries", "jets.printed_chars", "checks.points", "jets.rank_deficient_points")


def counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        same = first == second
        ok &= same
        print(f"{workload} seed {args.seed}: {'identical' if same else 'DIFFER'} {first}"
              + ("" if same else f" vs {second}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
