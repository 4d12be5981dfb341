"""Tests of the benchmark's own machinery.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from yardstick import ELASTICITY, NOMINAL_S, Yardstick  # noqa: E402
from amplify_acct import accountant, oracles, rdp_math, training_sim  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops(workload):
    a = [o.key for o in wl.batch(workload, 7)]
    assert a == [o.key for o in wl.batch(workload, 7)]
    assert a != [o.key for o in wl.batch(workload, 8)]
    pool = {o.key for o in wl.pool(workload)}
    assert set(a) <= pool


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_batch_shape_does_not_depend_on_seed(workload):
    # Same slot counts, so the same number of ops of each kind in every seed.
    def shape(seed):
        return sorted(o.kind for o in wl.batch(workload, seed))

    assert shape(1) == shape(2) == shape(99)


def test_self_time_on_synthetic_tree():
    S = spans.Span
    tree = [
        S("a", 0.0, 10.0, -1, 0),
        S("b", 1.0, 4.0, 0, 0),
        S("c", 2.0, 3.0, 1, 0),
        S("b", 5.0, 6.0, 0, 0, agg_child_s=0.25),
        S("a", 20.0, 21.0, -1, 1),
    ]
    st = spans.self_times(tree)
    assert st["a"] == pytest.approx((10.0 - 3.0 - 1.0) + 1.0)
    assert st["b"] == pytest.approx((3.0 - 1.0) + (1.0 - 0.25))
    assert st["c"] == pytest.approx(1.0)
    # Self times partition the top-level spans' time.
    assert sum(st.values()) + 0.25 == pytest.approx(10.0 + 1.0)


def test_self_time_clips_children_to_parent():
    S = spans.Span
    tree = [S("p", 0.0, 2.0, -1, 0), S("x", 1.0, 3.0, 0, 0), S("y", 1.5, 2.5, 0, 0)]
    assert spans.self_times(tree)["p"] == pytest.approx(1.0)


def test_tail_has_ten_ops_beyond_it():
    best = [float(i) for i in reversed(range(61))]
    value, pct = run.tail(best)
    assert value == 50.0
    assert sum(x > value for x in best) == 10
    assert pct == pytest.approx(100 * 51 / 61)


def test_another_pass_keeps_min_passes_and_the_window():
    t0 = time.perf_counter()
    assert run.another_pass(t0, 0.0, 2, 1.0)
    assert not run.another_pass(t0, 0.0, 3, 1.0)
    assert not run.another_pass(t0, 0.0, 2, 1.0, min_passes=2)
    assert run.another_pass(t0, 10.0, 5, 1.0)
    assert not run.another_pass(t0 - 9.5, 10.0, 5, 1.0)  # it would end after the window


def test_yardstick_rescales_by_its_median_kernel_time():
    y = Yardstick()
    y.samples = [1e-3, 5e-3, 2e-3]
    assert y.kernel_s() == pytest.approx(2e-3)
    assert y.factor() == pytest.approx((NOMINAL_S / 2e-3) ** ELASTICITY)
    y.sample()
    assert len(y.samples) == 4 and y.samples[-1] > 0


class _Corrupting:
    """workloads, except that run_op scales one op's curve by 1.01."""

    def __init__(self, bad_key):
        self.bad_key = bad_key

    def __getattr__(self, name):
        return getattr(wl, name)

    def run_op(self, o, tmp_root):
        out = wl.run_op(o, tmp_root)
        if o.key == self.bad_key:
            out.extra.epsilons[:] *= 1.01
        return out


def test_wrong_output_counts_as_failed(tmp_path):
    ops = [
        wl.op("epsilon", mech="gaussian", count=100, sigma=2.0),
        wl.op("epsilon", mech="poisson", gamma=0.1, count=1000, sigma=1.0),
        wl.op("calibrate", mech="gaussian", c=1.0, count=10, target=4.0),
    ]
    r = run.Run("queries", 0, str(tmp_path))
    r.ops = ops
    r.w = _Corrupting(ops[1].key)
    r.warm_pass()
    r.timed_pass(Yardstick())
    assert r.attempted == 6
    assert {k for k, _ in r.failures} == {ops[1].key}
    assert any("mpmath" in reason for _, reason in r.failures)
    # The untouched ops pass their checks.
    for o in (ops[0], ops[2]):
        assert wl.check_op(o, wl.run_op(o, str(tmp_path))) == []


def test_calibration_above_target_is_a_breach(tmp_path):
    o = wl.op("calibrate", mech="gaussian", c=1.0, count=10, target=4.0)
    out = wl.run_op(o, str(tmp_path))
    assert wl.check_op(o, out) == []
    from dataclasses import replace

    out.extra = replace(out.extra, achieved_epsilon=4.0 * (1 + 1e-9))
    assert any("above target" in e for e in wl.check_op(o, out))


def test_wrappers_cover_every_binding_and_are_removed():
    import amplify_acct.cli as cli

    original = rdp_math.forward_exact_k1_curve
    before = spans.bindings(original)
    assert ("amplify_acct.accountant", "forward_exact_k1_curve") in before
    saved = {name: getattr(cli, name) for name in ("forward_exact_enum", "main")}
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert spans.bindings(original) == []
        assert accountant.forward_exact_k1_curve is rdp_math.forward_exact_k1_curve
        assert rdp_math.forward_exact_k1_curve.__wrapped__ is original
        assert cli.forward_exact_enum.__wrapped__ is saved["forward_exact_enum"]
        assert oracles.forward_exact_enum is cli.forward_exact_enum
        assert training_sim.SimTrace.write_jsonl.__wrapped__ is not None
        # A call from one layer into another is caught.
        accountant.rdp_curve(accountant.ModelSplit(d=4, c=1.0, sigma=2.0), orders=(2, 3))
    finally:
        spans.uninstall(undo)
    assert spans.bindings(original) == before
    assert all(getattr(cli, k) is v for k, v in saved.items())
    assert not hasattr(training_sim.SimTrace.write_jsonl, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names[0] == "accountant.rdp_curve"
    assert "rdp_math.forward_exact_k1_curve" in names
    assert tracer.spans[names.index("rdp_math.forward_exact_k1_curve")].parent == 0
    assert tracer.counters["accountant.provenance.tight"] == 2


def _counts(ops, tmp_root):
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for o in ops:
            wl.run_op(o, tmp_root)
    finally:
        spans.uninstall(undo)
    return {k: v for k, v in tracer.counters.items() if not k.endswith("_s")}


def test_work_counts_repeat_exactly(tmp_path):
    ops = [
        wl.op("epsilon", mech="bis", T=100, k=10, sigma=2.0),
        wl.op("curve", mech="model-split", d=4, mode="tight", sigma=2.0),
        wl.op("calibrate", mech="gaussian", c=1.0, count=10, target=4.0),
        wl.op("simulate", mode="plain", k=5, schedule="bis", seed=1),
    ]
    first = _counts(ops, str(tmp_path))
    assert first == _counts(ops, str(tmp_path))
    assert first["training_sim.stream.calls"] > 0
    assert first["accountant.calibrate_sigma.probes"] > 2


def test_reference_covers_every_pool_op():
    import gzip
    import json

    for workload in wl.WORKLOADS:
        with gzip.open(os.path.join(BENCH, "reference", f"{workload}.jsonl.gz"), "rt") as fh:
            keys = {json.loads(line)["key"] for line in fh}
        assert keys == {o.key for o in wl.pool(workload)}


def test_benchmark_json_lists_every_metric():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in spans.span_names():
        assert {f"{name}.calls", f"{name}.self_s"} <= per_layer
    assert set(run.COUNT_METRICS) <= per_layer
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
