"""The benchmark workloads: op pools, seeded batches, op execution, checks.

An op is one public-API call (or the short chain a user makes for one
answer, such as ``to_dp(rdp_curve(spec))``).  Every workload is a fixed list
of *slots*; a slot has a finite list of candidate ops and a count, and the
seed picks that many candidates per slot and shuffles the batch.  The
candidates of one slot cost about the same (they differ in scale, target,
order or random seed, not in the work the layers do), so a seed changes the
inputs but not the shape of the batch: the medians stay comparable across
seeds.  The pools are finite, so the recorded reference outputs
(``reference/<workload>.jsonl.gz``) cover every op any seed can draw.

Each op returns its numeric outputs as a flat list of floats plus a tuple of
string tags (provenance); both feed the output digest.  ``check_op`` holds
the per-op correctness checks; it runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass

from amplify_acct import accountant as acc
from amplify_acct import oracles as orc
from amplify_acct import rdp_math as rm
from amplify_acct import training_sim as sim

WORKLOADS = ("queries", "exhaustive")

# The workload's representative command, run cold by ``cli_cold_s``.  The
# ``{tmp}`` placeholder is a fresh directory inside the checkout.
CLI_COMMANDS = {
    "queries": ["calibrate", "--mech", "bis", "--T", "2000", "--k", "655", "--epsilon", "8", "--delta", "1e-5"],
    "exhaustive": ["curve", "--bis", "T=10,k=4", "--poisson", "gamma=0.4,count=10", "--sigma", "2",
                   "--out", "{tmp}/curve.csv"],
}

DELTA = 1e-5
MC_SAMPLES = 200_000
SIM_N, SIM_T, SIM_M, SIM_HIDDEN = 160, 50, 12, 6


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple  # sorted (name, value) pairs

    @property
    def key(self) -> str:
        return self.kind + "(" + ",".join(f"{k}={v!r}" for k, v in self.params) + ")"

    @property
    def p(self) -> dict:
        return dict(self.params)


def op(kind: str, **params) -> Op:
    return Op(kind, tuple(sorted(params.items())))


@dataclass
class Output:
    values: list
    tags: tuple = ()
    extra: object = None  # kind-specific data for the checks, not digested

    def digest(self) -> str:
        text = repr([float(v) for v in self.values]) + repr(tuple(self.tags))
        return hashlib.sha256(text.encode()).hexdigest()[:24]


# ------------------------------------------------------------------- pools
# slot = (name, count, candidates)

SIGMAS = (0.5, 1.0, 2.0, 4.0, 8.0)
CLIPS = (0.5, 1.0, 2.0)


def _calibrate_slots():
    core = [
        ("bis", dict(T=2000, k=655)),
        ("poisson", dict(gamma=0.3275)),
        ("poisson", dict(gamma=0.1)),
        ("model-split", dict(d=8)),
    ]
    counts = {0: 1, 1: 2000, 2: 1000, 3: 1200}
    slots = []
    for i, (mech, extra) in enumerate(core):
        cands = [op("calibrate", mech=mech, c=c, count=counts[i], target=8.0, **extra) for c in CLIPS]
        slots.append((f"cal-core-{i}", 1, cands))
    bis_shapes = [(100, 10), (300, 30), (500, 100), (1000, 100), (2000, 200), (3000, 1000)]
    slots.append(("cal-bis", 1, [op("calibrate", mech="bis", T=T, k=k, c=1.0, count=1, target=t)
                                 for T, k in bis_shapes for t in (2.0, 4.0, 8.0)]))
    slots.append(("cal-dropout", 1, [op("calibrate", mech="dropout-split", c=1.0, count=n, target=t)
                                     for n in (100, 500, 2000) for t in (4.0, 8.0)]))
    slots.append(("cal-gauss", 1, [op("calibrate", mech="gaussian", c=1.0, count=n, target=t)
                                   for n in (1, 10, 100, 1000) for t in (1.0, 4.0, 8.0)]))
    slots.append(("eps-split-1e6", 1, [op("epsilon", mech="model-split", d=10**6, sigma=s) for s in SIGMAS]))
    slots.append(("eps-split-big", 2, [op("epsilon", mech=m, d=d, sigma=s)
                                       for m in ("model-split", "mixture-split")
                                       for d in (10_000, 30_000, 100_000, 300_000) for s in SIGMAS]))
    slots.append(("eps-split-mid", 2, [op("epsilon", mech=m, d=d, sigma=s)
                                       for m in ("model-split", "mixture-split", "partial-split")
                                       for d in (100, 300, 1000, 3000) for s in SIGMAS]))
    slots.append(("eps-split-small", 2, [op("epsilon", mech=m, d=d, sigma=s)
                                         for m in ("model-split", "mixture-split", "partial-split")
                                         for d in (3, 8, 16, 32) for s in SIGMAS]))
    slots.append(("eps-bis", 28, [op("epsilon", mech="bis", T=T, k=max(2, round(q * T)), sigma=s)
                                  for T in (100, 200, 500, 1000, 2000, 3000)
                                  for q in (0.02, 0.05, 0.1, 0.3275) for s in SIGMAS]))
    slots.append(("eps-dropout", 2, [op("epsilon", mech="dropout-split", sigma=s) for s in SIGMAS]))
    slots.append(("eps-poisson", 3, [op("epsilon", mech="poisson", gamma=g, count=n, sigma=s)
                                     for g in (0.01, 0.1, 0.3275) for n in (100, 1000, 2000) for s in SIGMAS]))
    slots.append(("eps-gauss", 3, [op("epsilon", mech="gaussian", count=n, sigma=s) for n in (1, 100) for s in SIGMAS]))
    return slots


FIG_SIGMAS = (1.5, 2.0, 2.5, 3.0)  # c = 1, so these set c/sigma
FIG_TS = tuple(range(10, 121, 5))


def _figures_slots():
    slots = []
    for d in (2, 4, 6, 8):
        for mode in ("tight", "loose"):
            slots.append((f"fig-split-{d}-{mode}", 1, [op("curve", mech="model-split", d=d, mode=mode, sigma=s)
                                                       for s in FIG_SIGMAS]))
    slots.append(("fig-gauss", 1, [op("curve", mech="gaussian", mode="tight", sigma=s) for s in FIG_SIGMAS]))
    slots.append(("fig-cmp-small", 1, [op("compare", T=10, k=4, sigma=s) for s in FIG_SIGMAS]))
    slots.append(("fig-cmp-large", 1, [op("compare", T=1000, k=100, sigma=s) for s in FIG_SIGMAS]))
    for T in FIG_TS:
        slots.append((f"fig-bis-delta-{T}", 1, [op("bis-delta", T=T, k=round(0.4 * T), sigma=s) for s in FIG_SIGMAS]))
    slots.append(("fig-poisson-delta", 12, [op("poisson-delta", T=T, sigma=s) for T in FIG_TS for s in FIG_SIGMAS]))
    slots.append(("fig-epoch-delta", 1, [op("epoch-delta", epochs=e, sigma=s) for e in (2, 3, 6, 12) for s in FIG_SIGMAS]))
    return slots


VER_SIGMAS = (0.5, 1.0, 2.0)  # c = ratio * sigma keeps the grid's c/sigma


def _cells(check, d, k, shapes, sigmas=VER_SIGMAS, **extra):
    return [op(check, d=d, k=k, ratio=r, alpha=a, sigma=s, **extra) for r, a in shapes for s in sigmas]


def _verify_slots():
    mc_shapes = [(0.5, 2), (1.0, 2), (0.5, 3), (1.0, 3)]
    return [
        ("ver-dimred-3d", 1, _cells("dimred", 2, 2, [(0.5, 2), (1.0, 2)])),
        ("ver-sandwich-k1", 3, _cells("sandwich", 2, 1, [(0.5, 2), (1.0, 2), (0.5, 3), (1.0, 3)])),
        ("ver-sandwich-k2", 3, _cells("sandwich", 2, 2, [(1.0, 3), (1.0, 5), (2.0, 2), (2.0, 3)])),
        ("ver-offset-k1", 2, _cells("offset", 2, 1, [(0.5, 2), (1.0, 2), (1.0, 3), (0.5, 5)])),
        ("ver-offset-k2", 2, _cells("offset", 2, 2, [(1.0, 2), (1.0, 3), (2.0, 2), (1.0, 5)])),
    ] + [
        # d = 4 is beyond the grid: these cells run the Monte Carlo oracle.
        (f"ver-mc-k{k}", 1, [c for seed in (0, 1) for c in _cells("sandwich", 4, k, mc_shapes, (1.0,), mc_seed=seed)])
        for k in (1, 2)
    ]


def _simulate_slots():
    # The seed draws each run's simulator seed; the shapes are fixed because
    # d, c, k and gamma change a run's cost (c = 0.5 clips more gradients).
    seeds = (0, 1, 2, 3)

    def runs(**shape):
        return [op("simulate", seed=s, **shape) for s in seeds]

    return (
        [(f"sim-model-split-{d}", 1, runs(mode="model-split", d=d, schedule="all")) for d in (2, 3, 4, 6)]
        + [(f"sim-dropout-{c}", 1, runs(mode="dropout", c=c, schedule="all")) for c in (0.5, 1.0)]
        + [(f"sim-bis-{k}", 1, runs(mode="plain", k=k, schedule="bis")) for k in (5, 20)]
        + [("sim-poisson", 1, runs(mode="plain", gamma=0.2, schedule="poisson"))]
    )


# queries: what a user runs routinely -- epsilon and calibration queries
# (bisection probes, the k=1 series, bound loops) and training runs.
# exhaustive: few expensive evaluations -- the figure curves (exact tuple
# enumeration) and the oracle checks of the bounds.  ROADMAP item 1 should
# move the first and leave the second alone, item 3 the opposite; oracles and
# training_sim each run in one workload only.
SLOTS = {
    "queries": lambda: _calibrate_slots() + _simulate_slots(),
    "exhaustive": lambda: _figures_slots() + _verify_slots(),
}


def pool(workload: str) -> list:
    """Every op any seed can draw for the workload, without repeats."""
    seen = {}
    for _, _, cands in SLOTS[workload]():
        for o in cands:
            seen.setdefault(o.key, o)
    return list(seen.values())


def batch(workload: str, seed: int) -> list:
    """The seed's op batch: per slot, ``count`` distinct candidates; then shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _, count, cands in SLOTS[workload]():
        ops.extend(rng.sample(cands, count))
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------- execution


def _spec(p: dict, sigma: float, c: float = 1.0):
    mech = p["mech"]
    if mech == "gaussian":
        return acc.Gaussian(c=c, sigma=sigma)
    if mech == "poisson":
        return acc.PoissonGaussian(c=c, sigma=sigma, gamma=p["gamma"])
    if mech == "model-split":
        return acc.ModelSplit(d=p["d"], c=c, sigma=sigma)
    if mech == "mixture-split":
        return acc.MixtureSplit(d=p["d"], c=c, sigma=sigma)
    if mech == "dropout-split":
        return acc.DropoutSplit(c=c, sigma=sigma)
    if mech == "partial-split":
        return acc.PartialSplit(c_split=c, c_nonsplit=0.3 * c, d=p["d"], sigma=sigma)
    if mech == "bis":
        return acc.Bis(T=p["T"], k=p["k"], c=c, sigma=sigma)
    raise ValueError(f"unknown mechanism {mech!r}")


def _curve_out(curve, *head) -> Output:
    return Output(list(head) + list(curve.epsilons), tuple(curve.provenance), curve)


def _family(p: dict):
    return rm.MixtureFamily(d=p["d"], k=p["k"], c=p["ratio"] * p["sigma"], sigma=p["sigma"])


def _quad_spec(d: int):
    # The CLI's choice (``cli._sandwich_quad_spec``): 3-d grids use the floor settings.
    if d <= 2:
        return orc.QuadratureSpec()
    return orc.QuadratureSpec(truncation_radius_sigmas=8.0, points_per_sigma=10, max_dim_grid=3)


def run_op(o: Op, tmp_root: str) -> Output:
    p = o.p
    kind = o.kind
    if kind == "epsilon":
        spec = _spec(p, p["sigma"])
        curve = acc.scale_curve(acc.rdp_curve(spec), p.get("count", 1))
        g = acc.to_dp(curve, DELTA)
        return _curve_out(curve, g.epsilon, g.achieving_order)
    if kind == "calibrate":
        r = acc.calibrate_sigma(_spec(p, 1.0, p["c"]), p["count"], p["target"], DELTA)
        return Output([r.sigma, r.achieved_epsilon, r.iterations], (), r)
    if kind == "curve":
        curve = acc.rdp_curve(_spec(p, p["sigma"]), mode=p["mode"])
        return _curve_out(curve)
    if kind == "compare":
        r = acc.compare_bis_poisson(p["T"], p["k"], 1.0, p["sigma"])
        return Output(list(r.eps_bis_tight) + list(r.eps_bis_loose) + list(r.eps_poisson), r.provenance_tight, r)
    if kind == "bis-delta":
        curve = acc.rdp_curve(acc.Bis(T=p["T"], k=p["k"], c=1.0, sigma=p["sigma"]))
        return _curve_out(curve, acc.to_delta(curve, 10.0))
    if kind == "poisson-delta":
        curve = acc.scale_curve(acc.rdp_curve(acc.PoissonGaussian(c=1.0, sigma=p["sigma"], gamma=0.4)), p["T"])
        return _curve_out(curve, acc.to_delta(curve, 10.0))
    if kind == "epoch-delta":
        curve = acc.bis_epoch_composition(10, 4, p["epochs"], 1.0, p["sigma"])
        return _curve_out(curve, acc.to_delta(curve, 10.0))
    if kind == "sandwich":
        mc = orc.McSpec(n_samples=MC_SAMPLES, seed=p.get("mc_seed", 0))
        r = orc.verify_sandwich(_family(p), p["alpha"], _quad_spec(p["d"]), mc)
        vals = [r.oracle_forward, r.oracle_forward_stderr, r.oracle_reverse, r.oracle_reverse_stderr,
                r.forward_exact, r.forward_bound, r.reverse_bound, r.tight, r.loose]
        return Output(vals, (), r)
    if kind == "offset":
        mc = orc.McSpec(n_samples=MC_SAMPLES, seed=0)
        r = orc.verify_offset_identity(_family(p), p["alpha"], _quad_spec(p["d"]), mc)
        return Output([r.lhs, r.shift_term, r.tail_term, r.stderr], (), r)
    if kind == "dimred":
        centers = rm.family_mixture(_family(p)).centers
        r = orc.verify_dim_reduction(centers, p["sigma"], p["alpha"])
        return Output([r.value_lowdim, r.value_embedded], (), r)
    if kind == "simulate":
        return _simulate(p, tmp_root)
    raise ValueError(f"unknown op kind {kind!r}")


def _simulate(p: dict, tmp_root: str) -> Output:
    mode, schedule, seed = p["mode"], p["schedule"], p["seed"]
    c = p.get("c", 1.0)
    common = dict(T=SIM_T, c=c, sigma=1.0, schedule=schedule, k=p.get("k"), gamma=p.get("gamma"),
                  seed=seed, learning_rate=0.05)
    if mode == "dropout":
        task = sim.make_hidden_task(SIM_N, SIM_M, SIM_HIDDEN, seed)
        trace = sim.run_dropout_training(task, sim.SimConfig(mode="dropout", **common))
    else:
        task = sim.make_linear_task(SIM_N, SIM_M, seed)
        if mode == "model-split":
            config = sim.SimConfig(mode="model_split", plan=sim.even_split_plan(SIM_M, p["d"]), **common)
        else:
            config = sim.SimConfig(mode="plain", **common)
        trace = sim.run_model_split_training(task, config)
    out_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        trace.write_jsonl(os.path.join(out_dir, "trace.jsonl"))
        trace.write_summary(os.path.join(out_dir, "summary.json"))
    finally:
        shutil.rmtree(out_dir)
    values = []
    for r in trace.records:
        values += [r["participants"], r["max_clipped_norm"], r["mean_clipped_norm"], r["noise_norm"], r["loss"],
                   r["support_violations"], r["zeroing_violations"], r["mask_ones"] or 0, r["mask_draws"] or 0]
        values += r["assignment_counts"] or []
    values += list(trace.final_params)
    g = trace.privacy.guarantee
    values += [g.epsilon, g.achieving_order]
    return Output(values, (), trace)


# ------------------------------------------------------------------ checks

_TAGS = {"exact", "tight", "loose"}
REL_TIGHT_LOOSE = 1e-12
# Plus a few ulp of 1: near epsilon = 0 the log-space paths round in absolute
# terms (ModelSplit(3000) at c/sigma = 0.25, order 2: tight - loose = 1.6e-16).
ABS_TIGHT_LOOSE = 1e-15
REL_MPMATH = 1e-9


def _finite_nonneg(xs, what) -> list:
    bad = [x for x in xs if not (math.isfinite(x) and x >= 0)]
    return [f"{what}: {len(bad)} non-finite or negative values"] if bad else []


def _tight_le_loose(tight, loose, what) -> list:
    bad = [i for i, (t, l) in enumerate(zip(tight, loose)) if t > l * (1 + REL_TIGHT_LOOSE) + ABS_TIGHT_LOOSE]
    return [f"{what}: tight > loose at {len(bad)} orders"] if bad else []


def _mpmath_curve(spec, orders, count) -> list:
    """Closed-form Gaussian / Poisson-subsampled Gaussian epsilons in 40-digit arithmetic."""
    import mpmath as mp

    mp.mp.dps = 40
    out = []
    theta = mp.mpf(spec.c) ** 2 / (2 * mp.mpf(spec.sigma) ** 2)
    for a in orders:
        if isinstance(spec, acc.Gaussian):
            eps = a * theta
        else:
            g = mp.mpf(spec.gamma)
            total = (1 - g) ** (a - 1) * (a * g - g + 1)
            for l in range(2, a + 1):
                total += mp.binomial(a, l) * (1 - g) ** (a - l) * g**l * mp.exp(theta * l * (l - 1))
            eps = mp.log(total) / (a - 1)
        out.append(float(eps * count))
    return out


def _check_closed_form(spec, count: int, curve) -> list:
    if not isinstance(spec, (acc.Gaussian, acc.PoissonGaussian)):
        return []
    idx = sorted({0, len(curve.orders) // 2, len(curve.orders) - 1})
    orders = [curve.orders[i] for i in idx]
    ref = _mpmath_curve(spec, orders, count)
    bad = [a for a, i, r in zip(orders, idx, ref) if abs(curve.epsilons[i] - r) > REL_MPMATH * abs(r) + 1e-15]
    return [f"closed form: mpmath disagrees at orders {bad}"] if bad else []


def _check_curve(curve, spec, count: int = 1, tight: bool = True) -> list:
    errs = _finite_nonneg(curve.epsilons, "curve")
    if set(curve.provenance) - _TAGS:
        errs.append(f"provenance tags {sorted(set(curve.provenance) - _TAGS)}")
    if tight and not isinstance(spec, (acc.Gaussian, acc.PoissonGaussian)):
        loose = acc.scale_curve(acc.rdp_curve(spec, curve.orders, mode="loose"), count).epsilons
        errs += _tight_le_loose(curve.epsilons, loose, "curve")
    return errs + _check_closed_form(spec, count, curve)


def _curve_spec(o: Op):
    """(spec, count) behind a curve-producing op."""
    p = o.p
    if o.kind == "bis-delta":
        return acc.Bis(T=p["T"], k=p["k"], c=1.0, sigma=p["sigma"]), 1
    if o.kind == "poisson-delta":
        return acc.PoissonGaussian(c=1.0, sigma=p["sigma"], gamma=0.4), p["T"]
    if o.kind == "epoch-delta":
        return acc.Bis(T=10, k=4, c=1.0, sigma=p["sigma"]), p["epochs"]
    return _spec(p, p["sigma"]), p.get("count", 1)


def check_op(o: Op, out: Output) -> list:
    """Correctness breaches of one op's output (empty when correct)."""
    kind, x = o.kind, out.extra
    errs = [] if all(math.isfinite(v) for v in out.values) else ["non-finite output"]
    if kind in ("epsilon", "curve", "bis-delta", "poisson-delta", "epoch-delta"):
        spec, count = _curve_spec(o)
        errs += _check_curve(x, spec, count, tight=o.p.get("mode", "tight") == "tight")
        if kind == "epsilon":
            errs += _finite_nonneg(out.values[:1], "epsilon")
        elif kind != "curve" and not 0 <= out.values[0] <= 1:
            errs.append(f"delta {out.values[0]!r} outside [0, 1]")
    elif kind == "calibrate":
        errs += _finite_nonneg([x.sigma, x.achieved_epsilon], "calibration")
        if not x.achieved_epsilon <= x.target_epsilon:
            errs.append(f"calibrated epsilon {x.achieved_epsilon!r} above target {x.target_epsilon!r}")
    elif kind == "compare":
        errs += _finite_nonneg(out.values, "compare")
        if set(x.provenance_tight) - _TAGS:
            errs.append("provenance tags")
        errs += _tight_le_loose(x.eps_bis_tight, x.eps_bis_loose, "compare")
    elif kind == "sandwich":
        if not x.ok_forward_below_exact:
            errs.append("sandwich: forward oracle above exact forward + tol")
        if not x.ok_exact_below_bound:
            errs.append("sandwich: exact forward above forward bound")
        errs += _tight_le_loose([x.tight], [x.loose], "sandwich")
    elif kind in ("offset", "dimred"):
        if not x.ok:
            errs.append(f"{kind}: identity violated beyond its tolerance")
    elif kind == "simulate":
        errs += _check_sim(x)
    return errs


def _check_sim(trace) -> list:
    errs = []
    c = trace.config.c
    if trace.support_violations:
        errs.append(f"{trace.support_violations} support violations")
    if trace.zeroing_violations:
        errs.append(f"{trace.zeroing_violations} zeroing violations")
    if not trace.max_clipped_norm <= c * (1 + 1e-12):
        errs.append(f"clipped norm {trace.max_clipped_norm!r} above {c}")
    if trace.config.schedule == "bis" and any(s != trace.config.k for s in trace.bis_row_sums):
        errs.append("bis row sums differ from k")
    g = trace.privacy.guarantee
    if not (math.isfinite(g.epsilon) and g.epsilon >= 0):
        errs.append("privacy epsilon non-finite or negative")
    return errs
