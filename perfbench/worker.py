"""The workload process: set-up, then closed-loop passes over a job list.

Started by ``run.py``; prints ``READY`` when set-up is done and, unless
``--setup-only``, one JSON result line when the run ends.  One client: each
job starts when the previous one returns.  BLAS is capped at one thread
before numpy is first imported.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 3     # untraced
MIN_BEYOND_P90 = 10   # pooled latencies that must lie beyond their p90
MIN_TRACED_PASSES = 2  # each of traced and untraced, in a traced run
EXTRA_S = 10       # a needed pass may end this long after --seconds
# The speed probe's time at reference speed: about its mean between jobs on
# a shared 2-vCPU Xeon virtual machine.  End-to-end times are scaled to
# that speed (see SpeedProbe and measure()).
REFERENCE_PROBE_S = 0.012
SETUP_PROBE_CALLS = 20  # right after set-up, after 2 warm-up calls

LAYERS = ("exterior", "g2core", "fibration", "gauge.fourier", "gauge.fibered",
          "gauge.lattice", "chernsimons", "rng", "cli")

# Hot, tiny functions: counted, not timed (their time stays in the caller).
COUNT_ONLY = (
    "exterior.merge_indices", "exterior.sort_indices", "exterior.is_exact",
    "exterior.mat_det", "exterior.mat_minor_det", "exterior.complement",
    "exterior.perm_sign", "exterior.increasing_tuples", "exterior.sqrt_exact",
    "exterior.Metric.is_exact", "exterior.Metric.det",
    "exterior.Metric.inverse_matrix", "exterior.ConstForm.basis",
    "exterior.ConstForm.zero", "exterior.ConstForm.coeff_vector",
    "exterior.ConstForm.__add__", "exterior.ConstForm.scale",
    "gauge.fourier.FourierField.add_coeff",
    "gauge.fourier.FourierField.set_coeff",
    "gauge.fourier.FourierField.prune", "gauge.fourier.FourierField.zero",
    "gauge.fourier.FourierField.copy", "gauge.fourier.FourierField.scale",
    "gauge.fourier.FourierField.__sub__", "gauge.fourier.FourierField.is_zero",
    "gauge.fourier.FourierField.norm_sq",
    "gauge.fibered.FiberedConnection.t_shift",
    "gauge.lattice.LatticeGaugeField.n_sites",
    "rng.SplitMix64.next_u64", "rng.SplitMix64.uniform",
    "rng.SplitMix64.gauss",
)

# name, unit: the traced run's metrics (see README.md for what each moves)
PER_LAYER = [
    ("g2core.eigen_split.calls", "count"),
    ("g2core.eigen_split.total_s", "s"),
    ("g2core.standard_structure.calls", "count"),
    ("g2core.self_s", "s"),
    ("exterior.merge_indices.calls", "count"),
    ("exterior.self_s", "s"),
    ("gauge.fourier.FourierField.wedge.calls", "count"),
    ("gauge.fourier.FourierField.wedge.self_s", "s"),
    ("gauge.fourier.FourierField.wedge_const.calls", "count"),
    ("gauge.fourier.FourierField.wedge_const.self_s", "s"),
    ("gauge.fourier.FourierField.d.calls", "count"),
    ("gauge.fourier.FourierField.d.self_s", "s"),
    ("gauge.fourier.FourierField.add_coeff.calls", "count"),
    ("gauge.fourier.FourierField.prune.calls", "count"),
    ("gauge.fourier.FourierField.__add__.calls", "count"),
    ("gauge.fourier.FourierField.__add__.self_s", "s"),
    ("gauge.fourier.FourierField.scale.calls", "count"),
    ("gauge.fourier.curvature.calls", "count"),
    ("gauge.fourier.curvature.self_s", "s"),
    ("gauge.fourier.self_s", "s"),
    ("gauge.fibered.fibered_curvature.calls", "count"),
    ("gauge.fibered.fibered_curvature.self_s", "s"),
    ("gauge.fibered.block_norms.self_s", "s"),
    ("gauge.fibered.self_s", "s"),
    ("chernsimons.cs_one_form.calls", "count"),
    ("chernsimons.cs_one_form.self_s", "s"),
    ("chernsimons.path_integrate.total_s", "s"),
    ("chernsimons.rho_lattice.calls", "count"),
    ("chernsimons.rho_lattice.self_s", "s"),
    ("chernsimons.perturbed_rho_lattice.calls", "count"),
    ("chernsimons.perturbed_rho_lattice.self_s", "s"),
    ("chernsimons.self_s", "s"),
    ("gauge.lattice.asd_force.calls", "count"),
    ("gauge.lattice.asd_force.self_s", "s"),
    ("gauge.lattice.reunitarize.calls", "count"),
    ("gauge.lattice.reunitarize.self_s", "s"),
    ("gauge.lattice.clover_charge.calls", "count"),
    ("gauge.lattice.clover_charge.self_s", "s"),
    ("gauge.lattice.plaquette_chirality_energies.calls", "count"),
    ("gauge.lattice.plaquette_chirality_energies.self_s", "s"),
    ("gauge.lattice.cool_to_sd.accepted_steps", "count"),
    ("gauge.lattice.cool_to_sd.halvings", "count"),
    ("gauge.lattice.cool_to_sd.accept_ratio", "ratio"),
    ("gauge.lattice.clover_field.calls", "count"),
    ("gauge.lattice.clover_field.self_s", "s"),
    ("gauge.lattice.clover_field.site_evals", "count"),
    ("gauge.lattice.residual_7d.self_s", "s"),
    ("gauge.lattice.add_link_noise.self_s", "s"),
    ("gauge.lattice.read_snapshot.bytes", "B"),
    ("gauge.lattice.read_snapshot.self_s", "s"),
    ("gauge.lattice.write_snapshot.bytes", "B"),
    ("gauge.lattice.write_snapshot.self_s", "s"),
    ("gauge.lattice.self_s", "s"),
    ("rng.SplitMix64.gausses.draws", "count"),
    ("rng.SplitMix64.gausses.self_s", "s"),
    ("rng.self_s", "s"),
    ("fibration.build_fibration.calls", "count"),
    ("fibration.build_fibration.total_s", "s"),
    ("fibration.decompose_deformation.calls", "count"),
    ("fibration.decompose_deformation.total_s", "s"),
    ("fibration.self_s", "s"),
    ("cli.cmd_flow.total_s", "s"),
    ("cli.cmd_residual.total_s", "s"),
    ("cli.cmd_cs.total_s", "s"),
    ("cli.cmd_obstruct.total_s", "s"),
    ("cli.cmd_fibration.total_s", "s"),
    ("cli.cmd_deform.total_s", "s"),
    ("cli.cmd_report.total_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# counters that must repeat exactly between traced runs with one seed
EXACT_SUFFIXES = (".calls", ".site_evals", ".draws", ".bytes",
                  ".accepted_steps", ".halvings")


def make_tracer():
    import tracer as tr

    def cooling(result, energy_calls):
        trials = energy_calls - 1          # the first call is the start energy
        return {"accepted_steps": result["steps"], "trials": trials,
                "halvings": trials - result["steps"]}

    hooks = {
        "gauge.lattice.clover_field":
            tr.ArgHook("site_evals", lambda a, k, r: a[0].n_sites()),
        "rng.SplitMix64.gausses":
            tr.ArgHook("draws", lambda a, k, r: a[1]),
        "gauge.lattice.read_snapshot":
            tr.ArgHook("bytes", lambda a, k, r: os.path.getsize(a[0])),
        "gauge.lattice.write_snapshot":
            tr.ArgHook("bytes", lambda a, k, r: os.path.getsize(a[1])),
        "gauge.lattice.cool_to_sd": tr.CallsDuringHook(
            "gauge.lattice.plaquette_chirality_energies", cooling),
    }
    return tr.Tracer("g2lab", COUNT_ONLY, hooks)


class SpeedProbe:
    """Times a fixed reference computation, to track the machine's speed.

    On a shared host the speed this process gets drifts by a third and
    more, over seconds and over whole minutes, and every job slows down
    with it.  The probe is a fixed mix, in about equal parts, of what
    g2lab's jobs spend their time in: Python dict and complex arithmetic,
    products of single 2x2 complex matrices, and batched 2x2 products over
    a real and over a lattice-sized complex array.  It calls no g2lab code,
    so a change to g2lab does not change its time.
    """

    def __init__(self):
        import numpy as np
        self.small = np.arange(4, dtype=complex).reshape(2, 2) * (0.1 + 0.2j)
        self.real = np.linspace(0.0, 1.0, 4096 * 4).reshape(4096, 2, 2)
        self.cplx = (np.linspace(0.0, 1.0, 8192 * 4)
                     * (1 + 0.5j)).reshape(8192, 2, 2)
        self.einsum = np.einsum
        self.times = []

    def __call__(self) -> float:
        """Run the probe once; return its time."""
        t0 = time.perf_counter()
        acc = {}
        for i in range(3000):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, 0j) + complex(i, -i) * 0.5
        a = self.small
        for _ in range(390):
            a = a @ self.small + self.small
            a = a / (1.0 + abs(a).max())
        m = self.real
        for _ in range(2):
            m = self.einsum("nij,njk->nik", m, self.real) * 0.5 + self.real
        m = (self.cplx @ self.cplx) * 0.5 + self.cplx
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def speed(self) -> float:
        """REFERENCE_PROBE_S over the mean probe time so far."""
        return REFERENCE_PROBE_S / statistics.fmean(self.times)


def snapshot(tracer) -> dict:
    return {"calls": dict(tracer.calls), "counters": dict(tracer.counters),
            "self_s": dict(tracer.self_s), "total_s": dict(tracer.total_s),
            "layer_self_s": tracer.layer_self_s(LAYERS)}


def per_layer_metrics(snaps, overhead_s) -> dict:
    """Counts from the first traced pass, times as medians over traced
    passes, tracing overhead as traced minus untraced mean pass time."""
    first = snaps[0]
    out = {}
    for name, unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            value = overhead_s
        elif base in LAYERS and field == "self_s":
            value = statistics.median(s["layer_self_s"][base] for s in snaps)
        elif field in ("self_s", "total_s"):
            value = statistics.median(s[field].get(base, 0.0) for s in snaps)
        elif field == "calls":
            value = first["calls"].get(base, 0)
        elif field == "accept_ratio":
            trials = first["counters"].get(base + ".trials", 0)
            value = (first["counters"].get(base + ".accepted_steps", 0)
                     / trials if trials else 0.0)
        else:
            value = first["counters"].get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def environment(workload, seed: int, seconds: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload.name,
        "seed": seed,
        "run_seconds": seconds,
        "sizes": workload.sizes,
        "src_py_lines": src_lines,
    }


def run(args) -> dict:
    sys.path.insert(0, SRC)
    import g2lab
    if os.path.dirname(os.path.abspath(g2lab.__file__)) != os.path.join(
            SRC, "g2lab"):
        raise RuntimeError(f"g2lab imported from {g2lab.__file__}, not {SRC}")
    import workloads
    from workloads import CheckFailed

    workload = workloads.WORKLOADS[args.workload]
    tracer = make_tracer() if args.trace else None
    if tracer is not None:
        tracer.install(also=(workloads,))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rnd = random.Random(args.seed)
        fixtures = workload.fixtures()
        jobs = workload.draw(fixtures, rnd, workdir)
        print("READY", flush=True)
        if tracer is not None:
            tracer.uninstall()
        # the speed the machine gave set-up, probed right after it
        probe = SpeedProbe()
        for _ in range(2 + SETUP_PROBE_CALLS):
            probe()
        del probe.times[:2]
        setup_speed = probe.speed()
        if args.setup_only:
            return {"setup_speed": setup_speed}
        probe.times.clear()
        draw = functools.partial(workload.draw, fixtures, rnd, workdir)
        result = measure(workload, jobs, draw, args, tracer, probe,
                         CheckFailed)
        result["setup_speed"] = setup_speed
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[8]


def beyond_p90(samples) -> int:
    if len(samples) < 2:
        return 0
    cut = p90(samples)
    return sum(x > cut for x in samples)


def measure(workload, jobs, draw, args, tracer, probe, check_failed) -> dict:
    """Run passes of the job list; ``draw()`` gives the next pass's list,
    on fresh inputs, and is not timed.  A pass's time is the sum of its
    jobs' times.

    In untraced passes the speed probe runs before the first job and after
    every job, outside the jobs' times.  A job's latency at reference speed
    is its measured latency times REFERENCE_PROBE_S over the mean of the
    probe times just before and just after it: the machine's speed drifts
    within seconds, so each job is scaled by the speed measured around it.
    """
    clock = time.perf_counter
    latencies, walls, traced_walls, snaps, failures = [], [], [], [], []
    scaled_walls = []
    attempted = 0
    start = clock()
    while True:
        elapsed = clock() - start
        if tracer is None:
            need = (len(walls) < MIN_PASSES
                    or beyond_p90([t for _, _, t in latencies])
                    < MIN_BEYOND_P90)
        else:
            need = min(len(walls), len(traced_walls)) < MIN_TRACED_PASSES
        # start no pass expected to end after --seconds, or, when one more
        # is needed, after EXTRA_S more
        if walls and elapsed + statistics.median(walls) > (
                args.seconds + (EXTRA_S if need else 0)):
            break
        if walls or traced_walls:
            jobs = draw()
        traced = tracer is not None and len(traced_walls) <= len(walls)
        if traced:
            tracer.install(also=(sys.modules["workloads"],))
            tracer.reset()
            tracer.record = not snaps   # raw spans of the first traced pass
        wall = scaled_wall = 0.0
        before = None if traced else probe()
        for kind, fn in jobs:
            attempted += 1
            j0 = clock()
            try:
                if traced:
                    tracer.job = attempted
                    with tracer.span("job." + kind):
                        fn()
                else:
                    fn()
            except check_failed as exc:
                failures.append(f"{kind}: {exc}")
            except Exception:   # a raising job is a failed job; keep going
                failures.append(f"{kind}: {traceback.format_exc(limit=4)}")
            latency = clock() - j0
            wall += latency
            if not traced:
                after = probe()
                scaled = latency * 2 * REFERENCE_PROBE_S / (before + after)
                before = after
                scaled_wall += scaled
                latencies.append((kind, latency, scaled))
        if traced:
            tracer.uninstall()
            traced_walls.append(wall)
            snaps.append(snapshot(tracer))
        else:
            walls.append(wall)
            scaled_walls.append(scaled_wall)

    result = {"attempted": attempted, "failed": len(failures),
              "failures": failures[:5]}
    meta = {"passes": len(walls), "jobs_per_pass": len(jobs),
            "pass_wall_s": walls}
    if tracer is None:
        measured = [t for _, t, _ in latencies]
        pooled = [t for _, _, t in latencies]
        meta["samples"] = len(pooled)
        meta["beyond_p90"] = beyond_p90(pooled)
        kinds = {}
        for kind, t, _ in latencies:
            kinds.setdefault(kind, []).append(t)
        meta["kind_median_s"] = {k: statistics.median(v)
                                 for k, v in kinds.items()}
        meta["measured_s"] = {"wall_s": statistics.fmean(walls),
                              "job_p50_s": statistics.median(measured),
                              "job_p90_s": p90(measured)}
        meta["probe_mean_s"] = statistics.fmean(probe.times)
        result["metrics"] = {
            "wall_s": statistics.fmean(scaled_walls),
            "job_p50_s": statistics.median(pooled),
            "job_p90_s": p90(pooled),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        overhead = statistics.fmean(traced_walls) - statistics.fmean(walls)
        meta["traced_pass_wall_s"] = traced_walls
        result["per_layer"] = per_layer_metrics(snaps, overhead)
        result["exact_counters"] = {
            k: v["value"] for k, v in result["per_layer"].items()
            if k.endswith(EXACT_SUFFIXES)}
        spans = os.path.join(OUT, f"spans-{workload.name}-{args.seed}.jsonl")
        tracer.write_spans(spans)
        meta["spans_file"] = os.path.relpath(spans, ROOT)
        meta["spans"] = len(tracer.spans)
    meta.update(environment(workload, args.seed, args.seconds))
    result["meta"] = meta
    return result


def main(argv=None) -> int:
    # BLAS reads its thread count once, when numpy is first imported
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread cap was set")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
