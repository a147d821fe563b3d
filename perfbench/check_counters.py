"""Self-check: two traced runs with one seed must give identical counters.

    python3 perfbench/check_counters.py --seed 1 --seconds 10 [workload ...]

Runs ``run.py --trace 1`` twice per workload, one run after the other, and
compares every exact counter (``*.calls``, ``*.site_evals``, ``*.draws``,
``*.bytes``, ``accepted_steps``, ``halvings``).  Timings vary between
processes; these counts may not.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import ROOT, WORKLOADS  # noqa: E402


def traced_counters(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        if line.startswith('{"meta"'):
            return json.loads(line)["meta"]["exact_counters"]
    raise RuntimeError(f"no metadata line from the {workload} run")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args(argv)
    ok = True
    for w in args.workloads:
        a = traced_counters(w, args.seed, args.seconds)
        b = traced_counters(w, args.seed, args.seconds)
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        nonzero = sum(1 for v in a.values() if v)
        verdict = "DIFFERENT: " + ", ".join(diff) if diff else "identical"
        print(f"{w}: {len(a)} counters ({nonzero} nonzero), {verdict}")
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
