"""Run one g2lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload continuum --seed 1 --seconds 50 \
        --trace 0

Run from the root of a checkout.  The program under test is the checkout's
``src/g2lab``; nothing is installed.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# the names of workloads.WORKLOADS, which this process does not import:
# that would import numpy and g2lab here
WORKLOADS = ("continuum", "lattice")
END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
# set-up-only processes before and after the measured run, which adds one
# more set-up sample; spread out so they see different moments of load
SETUP_PROBES = (3, 3)
SETUP_TIMEOUT = 30    # seconds, from process start to READY
WORKER_TIMEOUT = 140  # seconds, for the rest of the measured run


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, setup_only: bool):
    """Start a workload process; return it with its set-up time, measured
    from process start until it reports READY."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
    except BaseException:
        stop(proc)
        raise
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"workload process not ready: {line.strip()!r}")
    return proc, setup_s


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_probe(args):
    """Set-up time of a set-up-only process, and the machine speed probed
    right after its set-up."""
    proc, setup_s = start_worker(args, setup_only=True)
    out = finish(proc, WORKER_TIMEOUT)
    return setup_s, json.loads(out.strip().splitlines()[-1])["setup_speed"]


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("workload process timed out")
    except BaseException:   # interrupted: the worker must not outlive us
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind, so that a running workload process is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "g2lab", "__init__.py")):
        print(f"error: no g2lab source under {ROOT}/src", file=sys.stderr)
        return 2

    before, after = (0, 0) if args.trace else SETUP_PROBES
    try:
        setups = [setup_probe(args) for _ in range(before)]
        proc, setup_s = start_worker(args, setup_only=False)
        out = finish(proc, WORKER_TIMEOUT)
        result = json.loads(out.strip().splitlines()[-1])
        setups.append((setup_s, result["setup_speed"]))
        setups += [setup_probe(args) for _ in range(after)]
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = result["meta"]
    attempted, failed = result["attempted"], result["failed"]
    for msg in result["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:
        metrics = result["per_layer"]
        meta["exact_counters"] = result["exact_counters"]
    else:
        # each set-up time at reference speed (see worker.SpeedProbe)
        setup_s = statistics.median(t * speed for t, speed in setups)
        values = dict(result["metrics"], setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        meta["setup_samples_s"] = [t for t, _ in setups]
        meta["setup_speeds"] = [speed for _, speed in setups]
    meta["fail_frac"] = failed / attempted
    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':52s} {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
