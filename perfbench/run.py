#!/usr/bin/env python3
"""amplify-acct benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 45 --trace 0

Workloads (``workloads.py``, ``BENCHMARK.json``): ``queries`` and
``exhaustive``.  Each is a closed loop with one client and no threads, in
one process.  A run

1. runs the seed's op batch once untimed, checks every op's output
   (``workloads.check_op``) and compares it with the recorded reference
   outputs (``outputs_changed``, ``outputs_max_rel_dev``);
2. runs timed passes of the batch for ``--seconds`` seconds (at least
   three), each op's output again compared with the checked one.  Between
   the ops (outside their timers) it samples the reference kernel of
   ``yardstick.py``.  Each op's latency is its median over the passes;
   ``wall_s`` is the sum of these latencies, ``op_p50_s`` their median and
   ``op_tail_s`` the latency with ten ops beyond it;
3. spread evenly over the timed passes, times seven fresh interpreters
   that import ``amplify_acct.cli`` and build the seed's inputs (``setup_s``,
   the median) and six runs of the workload's representative CLI command in
   fresh processes (``cli_cold_s``, the median).

Every time it reports is rescaled to the nominal machine speed by
``yardstick.Yardstick.factor()``: the shared host's speed drifts by 10-40%
over minutes, more than any bound could absorb, and the kernel timed in the
same run cancels most of that drift (see ``yardstick.py``).  The report
line keeps the raw times and the factor.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics instead: traced passes alternate with
untraced ones for ``--seconds`` seconds (``trace.overhead_s`` is the
difference of their median pass times), wrappers from ``spans.py`` record
spans and work counts, and the work counts must repeat exactly across the
traced passes.  The line before
the result is a JSON report (environment, pass times, tail percentile,
output comparison, failures); it is also written to ``.bench_out/``.

Exits 2 without a result when the checkout holds no ``src/amplify_acct``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(HERE, "reference")

SETUP_REPS = 7
CLI_REPS = 6
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120

SETUP_CODE = (
    "import sys\n"
    "import amplify_acct.cli\n"
    "import workloads\n"
    "workloads.batch(sys.argv[1], int(sys.argv[2]))\n"
)
IMPORT_CODE = "import amplify_acct.cli"


def tail(lat):
    """Latency at the highest percentile with at least ten ops beyond it.

    ``lat`` holds one latency per op.  Returns (latency, percentile).
    """
    idx = max(0, len(lat) - 11)
    return sorted(lat)[idx], 100.0 * (idx + 1) / len(lat)


def another_pass(t0, seconds, done, pass_s, min_passes=MIN_PASSES):
    """Whether to start another timed pass in the window of ``seconds`` that began at ``t0``.

    Yes until ``min_passes`` are done; after that, only if a pass as long as
    the last one (``pass_s``) would end inside the window.
    """
    return done < min_passes or time.perf_counter() - t0 + pass_s <= seconds


# ----------------------------------------------------------- fresh processes


def timed_child(argv, env):
    """(wall seconds, error or None) of one child process run in the checkout."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, f"{argv[1:3]} timed out after {CHILD_TIMEOUT_S} s"
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        return dt, f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return dt, None


def cli_argv(workload, tmp):
    from workloads import CLI_COMMANDS

    return [a.replace("{tmp}", tmp) for a in CLI_COMMANDS[workload]]


def setup_sample(workload, seed, env):
    return timed_child([sys.executable, "-c", SETUP_CODE, workload, str(seed)], env)


def cli_sample(workload, env, tmp_root):
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        return timed_child([sys.executable, "-m", "amplify_acct", *cli_argv(workload, tmp)], env)
    finally:
        shutil.rmtree(tmp)


def import_times(env):
    """cli.import_s and the numpy / scipy shares, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = []  # (nesting depth, name, cumulative us)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, name = line[len("import time:"):].split("|")
        lines.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cum_us)))

    def share(pkg):
        # Cumulative time of the package's outermost import lines, nested imports included.
        hits = [(depth, cum) for depth, name, cum in lines if name == pkg or name.startswith(pkg + ".")]
        top = min((depth for depth, _ in hits), default=0)
        return sum(cum for depth, cum in hits if depth == top) / 1e6

    return {
        "cli.import_s": share("amplify_acct"),
        "cli.import.numpy_s": share("numpy"),
        "cli.import.scipy_s": share("scipy"),
    }


# ------------------------------------------------------------------- passes


class Run:
    """State of one benchmark run: the batch, checked outputs and failures."""

    def __init__(self, workload, seed, tmp_root):
        import workloads

        self.w = workloads
        self.workload = workload
        self.ops = workloads.batch(workload, seed)
        self.tmp_root = tmp_root
        self.attempted = 0
        self.failures = []  # (op key, reason)
        self.digests = {}  # op key -> digest of the checked output
        self.outputs = {}  # op key -> Output of the checked pass

    def fail(self, key, reason):
        self.failures.append((key, reason))

    def warm_pass(self):
        """Untimed first pass: fills caches, checks and records every op's output."""
        t0 = time.perf_counter()
        for o in self.ops:
            self.attempted += 1
            try:
                out = self.w.run_op(o, self.tmp_root)
            except Exception:
                self.fail(o.key, "raised: " + traceback.format_exc(limit=3)[-400:])
                continue
            try:
                errs = self.w.check_op(o, out)
            except Exception:
                errs = ["check raised: " + traceback.format_exc(limit=3)[-400:]]
            if errs:
                self.fail(o.key, "; ".join(errs))
            self.digests[o.key] = out.digest()
            self.outputs[o.key] = out
        return time.perf_counter() - t0

    def timed_pass(self, yard, tracer=None):
        """Per-op latencies of one pass; each output must match the checked one.

        After each op the reference kernel is sampled into ``yard``.  With a
        tracer, each op's spans carry the op's index in the batch.
        """
        lat = []
        clock = time.perf_counter
        for i, o in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            self.attempted += 1
            t0 = clock()
            try:
                out = self.w.run_op(o, self.tmp_root)
            except Exception:
                lat.append(clock() - t0)
                yard.sample()
                self.fail(o.key, "raised: " + traceback.format_exc(limit=3)[-400:])
                continue
            lat.append(clock() - t0)
            yard.sample()
            if out.digest() != self.digests.get(o.key):
                self.fail(o.key, "output differs from the checked pass (not reproducible)")
        if tracer is not None:
            tracer.op = -1
        return lat

    def compare_reference(self):
        """outputs_changed / outputs_max_rel_dev against reference/<workload>.jsonl.gz."""
        path = os.path.join(REFERENCE_DIR, f"{self.workload}.jsonl.gz")
        ref = {}
        if os.path.exists(path):
            with gzip.open(path, "rt") as fh:
                for line in fh:
                    rec = json.loads(line)
                    ref[rec["key"]] = rec
        changed, unreferenced, max_rel = 0, 0, 0.0
        for key, out in self.outputs.items():
            rec = ref.get(key)
            if rec is None:
                unreferenced += 1
                continue
            if rec["digest"] == out.digest():
                continue
            changed += 1
            if len(rec["values"]) != len(out.values):
                max_rel = math.inf
                continue
            for a, b in zip(out.values, rec["values"]):
                dev = abs(a - b) / max(abs(b), 1e-300) if a != b else 0.0
                max_rel = max(max_rel, dev)
        return {
            "outputs_compared": len(self.outputs) - unreferenced,
            "outputs_changed": changed,
            "outputs_max_rel_dev": max_rel if math.isfinite(max_rel) else "shape changed",
            "outputs_unreferenced": unreferenced,
        }

    def sandwich_verdicts(self):
        fwd = rev = 0
        for o in self.ops:
            out = self.outputs.get(o.key)
            if o.kind == "sandwich" and out is not None:
                r = out.extra
                fwd += not (r.ok_forward_below_exact and r.ok_exact_below_bound)
                rev += not r.ok_reverse_below_bound
        return {"oracles.sandwich.forward_violations": fwd, "oracles.sandwich.reverse_violations": rev}


# ------------------------------------------------------------------ metrics


def end_to_end(args, env, run, tmp_root, report):
    from yardstick import Yardstick

    warm_s = run.warm_pass()
    yard = Yardstick()
    # The fresh-process samples are spread evenly over the timed window, so
    # that each median draws on the whole run, not on one stretch of it.
    side = [task for _, task in sorted([((j + 0.5) / SETUP_REPS, "setup") for j in range(SETUP_REPS)]
                                       + [((j + 0.5) / CLI_REPS, "cli") for j in range(CLI_REPS)])]
    setups, clis, lats = [], [], []

    def side_tasks(upto):
        for task in side[len(setups) + len(clis):upto]:
            if task == "setup":
                setups.append(setup_sample(args.workload, args.seed, env))
            else:
                clis.append(cli_sample(args.workload, env, tmp_root))

    t0, pass_s = time.perf_counter(), 0.0
    while another_pass(t0, args.seconds, len(lats), pass_s):
        p0 = time.perf_counter()
        lats.append(run.timed_pass(yard))
        pass_s = time.perf_counter() - p0
        side_tasks(min(len(side), math.ceil(len(side) * (time.perf_counter() - t0) / args.seconds)))
    side_tasks(len(side))
    run.attempted += len(setups) + len(clis)
    for _, err in setups + clis:
        if err:
            run.fail("process", err)
    per_op = [median(col) for col in zip(*lats)]
    tail_s, tail_pct = tail(per_op)
    raw = {
        "setup_s": median(dt for dt, _ in setups),
        "cli_cold_s": median(dt for dt, _ in clis),
        "wall_s": sum(per_op),
        "op_p50_s": median(per_op),
        "op_tail_s": tail_s,
    }
    factor = yard.factor()
    report.update({"passes": len(lats), "ops_per_pass": len(run.ops), "op_tail_percentile": tail_pct,
                   "warm_pass_s": warm_s, "pass_walls_s": [sum(lat) for lat in lats], "latencies_s": lats,
                   "setup_samples_s": [dt for dt, _ in setups], "cli_samples_s": [dt for dt, _ in clis],
                   "yardstick_kernel_s": yard.kernel_s(), "yardstick_factor": factor, "raw_s": raw})
    metrics = {name: factor * value for name, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(args, env, run, tmp_root, report):
    import spans as tr
    from yardstick import Yardstick

    imports = import_times(env)
    run.warm_pass()
    metrics = run.sandwich_verdicts()
    yard = Yardstick()
    tracer = tr.Tracer()
    untraced, traced, layer_runs = [], [], []
    # Untraced and traced passes alternate, pairwise, for the timed window.
    t0, pair_s = time.perf_counter(), 0.0
    while another_pass(t0, args.seconds, len(traced), pair_s, min_passes=2):
        p0 = time.perf_counter()
        untraced.append(sum(run.timed_pass(yard)))
        tracer.reset()
        undo = tr.install(tracer)
        try:
            traced.append(sum(run.timed_pass(yard, tracer)))
        finally:
            tr.uninstall(undo)
        layer_runs.append((tr.self_times(tracer.spans), dict(tracer.counters)))
        pair_s = time.perf_counter() - p0
    factor = yard.factor()
    metrics.update({name: factor * value for name, value in imports.items()})

    counts = [{k: v for k, v in c.items() if not k.endswith("_s")} for _, c in layer_runs]
    repeat_ok = all(c == counts[0] for c in counts[1:])
    if not repeat_ok:
        run.fail("trace", "work counts differ between traced passes of the same seed")
    for name in tr.span_names():
        metrics[f"{name}.self_s"] = factor * median(st.get(name, 0.0) for st, _ in layer_runs)
        metrics[f"{name}.calls"] = counts[0].get(f"{name}.calls", 0)
    for key in COUNT_METRICS:
        metrics[key] = counts[0].get(key, 0)
    metrics["training_sim.stream.self_s"] = factor * median(c.get("training_sim.stream.self_s", 0.0)
                                                            for _, c in layer_runs)
    metrics["trace.overhead_s"] = factor * (median(traced) - median(untraced))

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-pass-spans.jsonl"))

    # The representative CLI command, in process and traced, for cli.main and its output size.
    tracer.reset()
    tmp = tempfile.mkdtemp(dir=tmp_root)
    undo = tr.install(tracer)
    buf = io.StringIO()
    try:
        import amplify_acct.cli as cli

        with contextlib.redirect_stdout(buf):
            code = cli.main(cli_argv(args.workload, tmp))
    finally:
        tr.uninstall(undo)
    run.attempted += 1
    if code != 0:
        run.fail("cli", f"in-process {args.workload} command exited {code}")
    written = sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(tmp) for f in fs)
    shutil.rmtree(tmp)
    cli_self = tr.self_times(tracer.spans)
    metrics["cli.main.self_s"] = factor * cli_self.get("cli.main", 0.0)
    metrics["cli.main.calls"] = 1
    metrics["cli.output_bytes"] = len(buf.getvalue().encode()) + written
    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-cli-spans.jsonl"))
    report.update({"passes_traced": len(traced), "untraced_walls_s": untraced, "traced_walls_s": traced,
                   "work_counts_repeat": repeat_ok, "work_counts": counts[0], "yardstick_factor": factor})
    return metrics


COUNT_METRICS = (
    "rdp_math.forward_exact_enum.tuples",
    "accountant.rdp_curve.orders",
    "accountant.calibrate_sigma.probes",
    "accountant.provenance.exact",
    "accountant.provenance.tight",
    "accountant.provenance.loose",
    "oracles.quad_renyi.points",
    "oracles.mc_renyi.samples",
    "oracles.mixture_logpdf.rows",
    "oracles.mixture_logpdf.bytes_computed",
    "training_sim.stream.calls",
    "training_sim.write.bytes",
)


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}, spec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import bootstrap

    try:
        bootstrap.setup(ROOT)
    except (bootstrap.MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    units, spec = metric_units()
    bootstrap.pin_cpu()
    env = bootstrap.child_env(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": bootstrap.environment(ROOT)}
    try:
        run = Run(args.workload, args.seed, tmp_root)
        if args.trace:
            values = per_layer(args, env, run, tmp_root, report)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            values = end_to_end(args, env, run, tmp_root, report)
            names = [m["name"] for m in spec["end_to_end"]]
        report.update(run.compare_reference())
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    failed = len(run.failures)
    report["failed_ratio"] = failed / run.attempted
    report["failures"] = [f"{k}: {r}" for k, r in run.failures[:20]]
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
