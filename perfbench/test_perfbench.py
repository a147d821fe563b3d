"""Tests of the benchmark's tracer and of BENCHMARK.json's agreement with it.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import contextlib
import io
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tr  # noqa: E402
import worker  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


LAYER_SRC = """
def inner():
    clock.t += 2.0
    tiny()
    return "inner"

def tiny():
    clock.t += 0.5
    return "tiny"

def outer():
    clock.t += 1.0
    a = inner()
    clock.t += 3.0
    b = inner()
    return a + b

def countdown(n):
    clock.t += 1.0
    return 0 if n == 0 else 1 + countdown(n - 1)

class Box:
    def __init__(self, v):
        self.v = v

    def grow(self, k):
        clock.t += k
        return Box(self.v + k)

    @staticmethod
    def make(v):
        return Box(v)

    def _private(self):
        return self.v
"""


@pytest.fixture
def fake_package(monkeypatch):
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    layer.__dict__["clock"] = clock
    exec(compile(LAYER_SRC, "fakepkg/layer.py", "exec"), layer.__dict__)
    for obj in list(vars(layer).values()):
        if isinstance(obj, (types.FunctionType, type)):
            obj.__module__ = "fakepkg.layer"
    pkg.outer = layer.outer            # a re-export, as in a package __init__
    pkg.DISPATCH = {"go": layer.outer}
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.layer", layer)
    return clock, pkg, layer


def test_self_time_of_nested_spans(fake_package):
    clock, pkg, layer = fake_package
    t = tr.Tracer("fakepkg", count_only=("layer.tiny",), clock=clock)
    t.install()
    try:
        with t.span("job.demo"):
            clock.t += 0.25
            assert pkg.outer() == "innerinner"
    finally:
        t.uninstall()
    assert t.calls["layer.outer"] == 1 and t.calls["layer.inner"] == 2
    assert t.calls["layer.tiny"] == 2
    # inner: 2 s of its own plus the untimed 0.5 s of tiny, twice
    assert t.self_s["layer.inner"] == pytest.approx(5.0)
    assert t.total_s["layer.inner"] == pytest.approx(5.0)
    assert t.self_s["layer.outer"] == pytest.approx(4.0)
    assert t.total_s["layer.outer"] == pytest.approx(9.0)
    assert t.self_s["job.demo"] == pytest.approx(0.25)
    assert "layer.tiny" not in t.self_s
    assert t.layer_self_s(["layer"]) == {"layer": pytest.approx(9.0)}
    spans = {name: (sid, parent) for sid, name, _, _, parent, _ in t.spans}
    job_id = spans["job.demo"][0]
    assert spans["job.demo"][1] is None
    assert spans["layer.outer"][1] == job_id
    inner_parents = {p for _, n, _, _, p, _ in t.spans if n == "layer.inner"}
    assert inner_parents == {spans["layer.outer"][0]}


def test_recursion_counts_outer_span_once(fake_package):
    clock, pkg, layer = fake_package
    t = tr.Tracer("fakepkg", clock=clock)
    t.install()
    try:
        assert layer.countdown(3) == 3
    finally:
        t.uninstall()
    assert t.calls["layer.countdown"] == 4
    assert t.total_s["layer.countdown"] == pytest.approx(4.0)
    assert t.self_s["layer.countdown"] == pytest.approx(4.0)


def test_install_covers_reexports_dicts_and_methods(fake_package):
    clock, pkg, layer = fake_package
    original = layer.outer
    t = tr.Tracer("fakepkg", clock=clock)
    t.install()
    try:
        assert pkg.outer is layer.outer is not original
        pkg.DISPATCH["go"]()
        box = layer.Box.make(1).grow(2)
        assert box.v == 3 and box._private() == 3
    finally:
        t.uninstall()
    assert pkg.outer is layer.outer is original
    assert pkg.DISPATCH["go"] is original
    assert t.calls["layer.outer"] == 1
    assert t.calls["layer.Box.make"] == 1 and t.calls["layer.Box.grow"] == 1
    assert "layer.Box._private" not in t.names
    assert t.self_s["layer.Box.grow"] == pytest.approx(2.0)


def _g2lab_results():
    from g2lab import cli
    from g2lab.exterior import merge_indices
    from g2lab.gauge.fourier import FourierField
    from g2lab.gauge.lattice import (
        add_link_noise, clover_charge, constant_flux_field, cool_to_sd,
    )
    from g2lab.rng import SplitMix64
    flux = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    U = add_link_noise(constant_flux_field((4, 4, 4, 4), flux, "u1"), 0.05, 3)
    a = FourierField.zero(4, 1, 1, 2)
    a.add_coeff((1, 0, 0, 0), (2,), 0.3j)
    a = a.symmetrized()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["fibration"])
    cooled = cool_to_sd(U, max_steps=50, tol=1e-3)
    return {
        "merge": merge_indices((1, 3), (2,)),
        "charge": clover_charge(U),
        "wedge": {m: {i: c.tolist() for i, c in d.items()}
                  for m, d in a.wedge(a.d()).modes.items()},
        "gauss": SplitMix64(5).gausses(10),
        "cli": (code, out.getvalue()),
        "steps": cooled["steps"],
    }


def test_wrapped_g2lab_functions_return_the_same_values():
    import g2lab.gauge.lattice as lattice
    original = lattice.clover_field
    plain = _g2lab_results()
    t = worker.make_tracer()
    t.install()
    try:
        traced = _g2lab_results()
    finally:
        t.uninstall()
    assert traced == plain
    assert lattice.clover_field is original
    assert t.calls["cli.cmd_fibration"] == 1
    assert t.calls["exterior.merge_indices"] >= 1
    # the noise on 4 * 4^4 u1 links, then the 10 asked for directly
    assert t.counters["rng.SplitMix64.gausses.draws"] == 4 * 4 ** 4 + 10
    assert t.counters["gauge.lattice.clover_field.site_evals"] > 0
    c = t.counters
    assert c["gauge.lattice.cool_to_sd.accepted_steps"] == traced["steps"]
    assert (c["gauge.lattice.cool_to_sd.trials"]
            == traced["steps"] + c["gauge.lattice.cool_to_sd.halvings"])


class FakeProbe:
    """Stands in for worker.SpeedProbe: returns the given times in turn."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.times = []

    def __call__(self):
        self.times.append(self.cycle[len(self.times) % len(self.cycle)])
        return self.times[-1]


def test_latencies_are_scaled_by_the_probes_around_them(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(worker.time, "perf_counter", clock)

    def job(seconds):
        def run():
            clock.t += seconds
        return run

    jobs = [("a", job(1.0)), ("b", job(2.0))]
    ref = worker.REFERENCE_PROBE_S
    # a pass probes before its first job and after every job
    probe = FakeProbe([ref * 0.5, ref * 1.5, ref])
    args = types.SimpleNamespace(seconds=0, seed=1)
    fake = types.SimpleNamespace(name="fake", sizes={})
    result = worker.measure(fake, jobs, lambda: jobs, args, None, probe,
                            RuntimeError)
    passes = result["meta"]["passes"]
    assert passes == worker.EXTRA_S // 3   # 3 s passes until EXTRA_S
    assert result["meta"]["pass_wall_s"] == [3.0] * passes
    a, b = 1.0 * 2 / (0.5 + 1.5), 2.0 * 2 / (1.5 + 1.0)
    metrics = result["metrics"]
    assert metrics["wall_s"] == pytest.approx(a + b)
    assert metrics["job_p50_s"] == pytest.approx((a + b) / 2)
    assert result["meta"]["measured_s"]["wall_s"] == pytest.approx(3.0)
    assert result["attempted"] == 2 * passes and result["failed"] == 0


def test_per_layer_metrics_name_traced_functions():
    t = worker.make_tracer()
    t.install()
    t.uninstall()
    for name, _ in worker.PER_LAYER:
        base = name.rpartition(".")[0]
        assert base in t.names | set(worker.LAYERS) | {"trace"}, name
    assert set(worker.COUNT_ONLY) <= t.names


def test_benchmark_json_matches_the_code():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    import workloads
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(worker.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]]
               for m in spec["end_to_end"])
