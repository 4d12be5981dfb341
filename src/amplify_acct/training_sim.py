"""Deterministic desk-scale simulator for split / dropout / subsampled training.

The tasks are synthetic regressions with closed-form per-sample gradients
(no autodiff): the privacy analysis only relies on clipping, gradient
support structure, and the noise draw, none of which needs a learning
framework.  Runs record, per iteration, the diagnostics the accounting
assumptions rest on: per-sample post-clip norms, gradient support outside
the assigned submodel, gradients incident to dropped units, and
participation counts.  Violation counts must be exactly zero on a correct
run.  ``support_violations`` is zero by construction: the model-split step
counts nonzeros in exactly the entries it has just zeroed.  The dropout
zeroing count, by contrast, tests the gradient formula.  One loop
(``_train``) serves every mode: a per-mode step hook (plain, model split,
dropout) returns the iteration's masked gradients, one row per
participant, and the loop clips the rows and sums them once.

Randomness comes from counter-based Philox streams keyed by (seed,
label, iteration): one array per iteration and purpose (noise,
participation, submodel assignment, dropout masks), drawn for all n
samples even when fewer take part; sample i reads entry i, so its value
depends only on (seed, purpose, iteration, i) and per-sample work could
be evaluated in any order.  Same seed, same trace, bit for bit.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional

import numpy as np

from .accountant import (
    Bis,
    DpGuarantee,
    DropoutSplit,
    Gaussian,
    ModelSplit,
    PoissonGaussian,
    rdp_curve,
    scale_curve,
    to_dp,
)
from .rdp_math import check_fields

__all__ = [
    "HiddenLayerTask",
    "PrivacyReport",
    "SimConfig",
    "SimTrace",
    "SplitPlan",
    "SyntheticTask",
    "assign_bis_schedule",
    "even_split_plan",
    "make_hidden_task",
    "make_linear_task",
    "report_privacy",
    "run_dropout_training",
    "run_model_split_training",
    "stream",
]


def stream(seed: int, *path) -> np.random.Generator:
    """Independent Philox stream for a (seed, label, indices...) path.

    Labels hash through crc32, not Python's randomized str hash, so the
    same path gives the same stream in every process.
    """
    key = tuple(zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class SyntheticTask:
    """Seeded linear regression with squared-error loss."""

    features: np.ndarray  # (n, m)
    targets: np.ndarray  # (n,)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def param_dim(self) -> int:
        return self.features.shape[1]

    def per_sample_gradients(self, w: np.ndarray) -> np.ndarray:
        residual = self.features @ w - self.targets
        return residual[:, None] * self.features

    def loss(self, w: np.ndarray) -> float:
        residual = self.features @ w - self.targets
        return float(0.5 * np.mean(residual**2))


def _regression_data(n_samples: int, in_dim: int, seed: int, noise: float) -> tuple:
    """Seeded (features, targets) of a noisy linear model."""
    rng = stream(seed, "task")
    features = rng.standard_normal((n_samples, in_dim)) / np.sqrt(in_dim)
    truth = rng.standard_normal(in_dim)
    return features, features @ truth + noise * rng.standard_normal(n_samples)


def make_linear_task(n_samples: int, param_dim: int, seed: int, noise: float = 0.1) -> SyntheticTask:
    check_fields(n_samples=n_samples, param_dim=param_dim)
    return SyntheticTask(*_regression_data(n_samples, param_dim, seed, noise))


@dataclass(frozen=True)
class HiddenLayerTask:
    """One-hidden-layer regression with manual gradients, for dropout runs.

    Parameters are [W.ravel(), v] for prediction v . (mask * tanh(W x));
    every parameter either feeds or reads a hidden unit, so all of them
    belong to the dropout-split part.
    """

    features: np.ndarray  # (n, in_dim)
    targets: np.ndarray  # (n,)
    hidden_dim: int

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def in_dim(self) -> int:
        return self.features.shape[1]

    @property
    def param_dim(self) -> int:
        return self.hidden_dim * self.in_dim + self.hidden_dim

    def unpack(self, w: np.ndarray):
        h, m = self.hidden_dim, self.in_dim
        return w[: h * m].reshape(h, m), w[h * m :]

    def per_sample_gradients(self, w: np.ndarray, idx: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """One gradient row per sample ``idx[j]`` under hidden-unit mask ``masks[j]``."""
        weights, readout = self.unpack(w)
        x = self.features[idx]
        act = np.tanh(x @ weights.T)
        hidden = masks * act
        residual = (hidden @ readout - self.targets[idx])[:, None]
        g_weights = (residual * readout * masks * (1.0 - act**2))[:, :, None] * x[:, None, :]
        return np.concatenate([g_weights.reshape(len(x), weights.size), residual * hidden], axis=1)

    def incident_indices(self, unit: int) -> np.ndarray:
        """Parameter indices whose gradients a dropped unit forces to zero."""
        h, m = self.hidden_dim, self.in_dim
        incoming = np.arange(unit * m, (unit + 1) * m)
        outgoing = np.array([h * m + unit])
        return np.concatenate([incoming, outgoing])

    def loss(self, w: np.ndarray) -> float:
        weights, readout = self.unpack(w)
        preds = np.tanh(self.features @ weights.T) @ readout
        return float(0.5 * np.mean((preds - self.targets) ** 2))


def make_hidden_task(n_samples: int, in_dim: int, hidden_dim: int, seed: int, noise: float = 0.1) -> HiddenLayerTask:
    check_fields(n_samples=n_samples, in_dim=in_dim, hidden_dim=hidden_dim)
    return HiddenLayerTask(*_regression_data(n_samples, in_dim, seed, noise), hidden_dim)


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint parameter blocks (the submodels)."""

    blocks: tuple  # of index tuples

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("a split plan needs at least one block")
        seen = set()
        for block in blocks:
            overlap = seen.intersection(block)
            if overlap:
                raise ValueError(f"blocks are not disjoint: indices {sorted(overlap)} repeat")
            seen.update(block)

    @property
    def d(self) -> int:
        return len(self.blocks)


def even_split_plan(param_dim: int, d: int) -> SplitPlan:
    """Partition [0, param_dim) into d contiguous blocks."""
    if param_dim < d:
        raise ValueError(f"cannot split {param_dim} parameters into {d} blocks")
    bounds = np.linspace(0, param_dim, d + 1).astype(int)
    return SplitPlan(tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(d)))


@dataclass(frozen=True)
class SimConfig:
    """One simulated training run.

    mode: "plain", "model_split" (needs plan) or "dropout" (rate 0.5, not
    settable: 0.5 is the only rate the accounting covers).  schedule: "all",
    "bis" (needs k) or "poisson" (needs gamma).
    """

    T: int
    c: float
    sigma: float
    mode: str = "plain"
    plan: Optional[SplitPlan] = None
    schedule: str = "all"
    k: Optional[int] = None
    gamma: Optional[float] = None
    seed: int = 0
    learning_rate: float = 0.1
    delta: float = 1e-5

    def __post_init__(self):
        check_fields(T=self.T, c=self.c, delta=self.delta)  # sigma, k and gamma have their own rules here
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.mode not in ("plain", "model_split", "dropout"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "model_split" and self.plan is None:
            raise ValueError("model_split mode needs a split plan")
        if self.schedule not in ("all", "bis", "poisson"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "bis":
            if self.k is None or not 1 <= self.k <= self.T:
                raise ValueError(f"bis schedule needs 1 <= k <= T, got k={self.k}")
        if self.schedule == "poisson":
            if self.gamma is None or not 0 < self.gamma <= 1:
                raise ValueError(f"poisson schedule needs gamma in (0, 1], got {self.gamma}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


@dataclass(frozen=True)
class PrivacyReport:
    guarantee: Optional[DpGuarantee]
    refusal: Optional[str]

    @property
    def refused(self) -> bool:
        return self.refusal is not None


@dataclass
class SimTrace:
    config: SimConfig
    records: list = field(default_factory=list)
    final_params: Optional[np.ndarray] = None
    bis_row_sums: Optional[list] = None
    privacy: Optional[PrivacyReport] = None

    @property
    def max_clipped_norm(self) -> float:
        return max(r["max_clipped_norm"] for r in self.records)

    @property
    def support_violations(self) -> int:
        return sum(r["support_violations"] for r in self.records)

    @property
    def zeroing_violations(self) -> int:
        return sum(r["zeroing_violations"] for r in self.records)

    def diagnostics(self) -> dict:
        return {
            "max_clipped_norm": self.max_clipped_norm,
            "support_violations": self.support_violations,
            "zeroing_violations": self.zeroing_violations,
            "bis_row_sums_all_k": (
                None if self.bis_row_sums is None else all(s == self.config.k for s in self.bis_row_sums)
            ),
        }

    def summary_dict(self) -> dict:
        cfg = {f.name: getattr(self.config, f.name) for f in fields(SimConfig) if f.name != "plan"}
        cfg["d"] = None if self.config.plan is None else self.config.plan.d
        privacy = None
        if self.privacy is not None:
            if self.privacy.refused:
                privacy = {"refusal": self.privacy.refusal}
            else:
                g = self.privacy.guarantee
                privacy = {"epsilon": g.epsilon, "delta": g.delta, "achieving_order": g.achieving_order}
        return {
            "config": cfg,
            "diagnostics": self.diagnostics(),
            "final_loss": self.records[-1]["loss"] if self.records else None,
            "privacy": privacy,
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    def write_summary(self, path, **extra) -> None:
        """``summary_dict()`` plus the ``extra`` keys, as indented JSON with sorted keys."""
        with open(path, "w") as fh:
            json.dump({**self.summary_dict(), **extra}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def assign_bis_schedule(n: int, T: int, k: int, seed: int) -> np.ndarray:
    """n x T participation matrix; each row is a uniform k-subset of [T].

    One (n, T) uniform draw; row i joins the iterations of its k smallest
    keys.  Rows are iid, so every row sums to exactly k, column sums are
    Binomial(n, k/T), and the first rows do not depend on n.
    """
    check_fields(T=T, k=k)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    keys = stream(seed, "bis").random((n, T))
    return (keys.argsort(axis=1).argsort(axis=1) < k).astype(np.uint8)


def _participants(config: SimConfig, n: int, t: int, bis_matrix) -> np.ndarray:
    if config.schedule == "all":
        return np.arange(n)
    if config.schedule == "bis":
        return np.flatnonzero(bis_matrix[:, t])
    return np.flatnonzero(stream(config.seed, "poisson", t).random(n) < config.gamma)


def _plain_step(task, config, w, t, participants):
    """Unmasked per-sample gradients."""
    return task.per_sample_gradients(w)[participants], {}


def _split_step(task, config, w, t, participants):
    """Per-sample gradients masked to one uniformly drawn block."""
    plan = config.plan
    allowed = np.zeros((plan.d, task.param_dim), dtype=bool)
    for b, block in enumerate(plan.blocks):
        allowed[b, list(block)] = True
    blocks = stream(config.seed, "assign", t).integers(plan.d, size=task.n_samples)[participants]
    outside = ~allowed[blocks]
    grads = task.per_sample_gradients(w)[participants]
    grads[outside] = 0.0
    return grads, {
        "assignment_counts": np.bincount(blocks, minlength=plan.d).tolist(),
        "support_violations": int(np.count_nonzero(grads[outside])),
    }


def _dropout_step(task, config, w, t, participants, incidence, forced_mask=None):
    """Per-sample gradients under a rate-0.5 mask on the hidden units.

    ``incidence[u]`` marks the parameters unit ``u`` feeds or reads; a
    nonzero gradient there while ``u`` is dropped is a zeroing violation.
    """
    if forced_mask is None:
        masks = stream(config.seed, "mask", t).integers(0, 2, size=(task.n_samples, task.hidden_dim))[participants]
    else:
        masks = np.broadcast_to(forced_mask, (len(participants), task.hidden_dim))
    grads = task.per_sample_gradients(w, participants, masks)
    return grads, {
        "zeroing_violations": int(np.count_nonzero(grads[(masks == 0.0) @ incidence])),
        "mask_ones": int(masks.sum()),
        "mask_draws": masks.size,
    }


def _train(task, config: SimConfig, step, w: np.ndarray) -> SimTrace:
    """The clipped, noised gradient-descent loop shared by every mode, from ``w``.

    ``step(task, config, w, t, participants)`` returns the iteration's
    masked gradients, one row per participant in order, and its record
    fields (masking diagnostics; ``support_violations`` is zero by
    construction).  The loop owns participation, clipping by row (row
    norms, scales, max and mean as arrays), the sum in participant order,
    the noise draw, the update and the record.  Each random draw covers
    all n samples at once.
    """
    n, m = task.n_samples, task.param_dim
    bis_matrix = assign_bis_schedule(n, config.T, config.k, config.seed) if config.schedule == "bis" else None

    trace = SimTrace(config=config)
    if bis_matrix is not None:
        trace.bis_row_sums = [int(s) for s in bis_matrix.sum(axis=1)]
    for t in range(config.T):
        participants = _participants(config, n, t, bis_matrix)
        grads, diag = step(task, config, w, t, participants)
        norms = np.linalg.norm(grads, axis=1)
        grads *= np.divide(config.c, norms, out=np.ones_like(norms), where=norms > config.c)[:, None]
        clipped = np.minimum(norms, config.c)
        noise = config.sigma * stream(config.seed, "noise", t).standard_normal(m)
        w = w - config.learning_rate * (grads.sum(axis=0) + noise)
        trace.records.append(
            {
                "iteration": t,
                "participants": len(participants),
                "assignment_counts": None,
                "max_clipped_norm": float(clipped.max(initial=0.0)),
                "mean_clipped_norm": float(clipped.sum()) / max(len(clipped), 1),
                "noise_norm": float(np.linalg.norm(noise)),
                "loss": task.loss(w),
                "support_violations": 0,
                "zeroing_violations": 0,
                "mask_ones": None,
                "mask_draws": None,
                **diag,
            }
        )
    trace.final_params = w
    trace.privacy = report_privacy(config) if config.sigma > 0 else None
    return trace


def run_model_split_training(task: SyntheticTask, config: SimConfig) -> SimTrace:
    """Clipped-gradient training where each sample updates one random submodel.

    Per sample and iteration: draw a uniform block, zero the gradient
    outside it, clip to c, sum over participants, add N(0, sigma^2 I)
    once, and step.  There is no non-split part: one clipping norm over a
    split and a non-split part has no accounting rule (``PartialSplit``
    clips the two parts separately).  With d=1 and sigma=0 the trajectory is
    bit-identical to plain clipped gradient descent under the same seed.
    Also runs mode="plain" (no masking).
    """
    if config.mode == "dropout":
        raise ValueError("use run_dropout_training for dropout mode")
    if config.mode == "model_split":
        plan_indices = {i for b in config.plan.blocks for i in b}
        if not plan_indices.issubset(range(task.param_dim)):
            raise ValueError("split plan indexes parameters outside the task")
    step = _split_step if config.mode == "model_split" else _plain_step
    return _train(task, config, step, np.zeros(task.param_dim))


def run_dropout_training(task: HiddenLayerTask, config: SimConfig, forced_mask=None) -> SimTrace:
    """Clipped-gradient training with per-sample rate-0.5 dropout masks.

    For every sample and every dropped hidden unit, the gradients of all
    incoming and outgoing weights of that unit must be exactly zero; the
    run counts violations (zero on a correct run).  ``forced_mask``
    replaces the random mask everywhere (for structural tests).  The run
    starts from a seeded N(0, 1/in_dim) draw, not w = 0, where every
    gradient of the task vanishes.
    """
    if config.mode != "dropout":
        raise ValueError("config.mode must be 'dropout'")
    incidence = np.array([np.isin(np.arange(task.param_dim), task.incident_indices(u)) for u in range(task.hidden_dim)])
    start = stream(config.seed, "init").standard_normal(task.param_dim) / np.sqrt(task.in_dim)
    return _train(task, config, partial(_dropout_step, incidence=incidence, forced_mask=forced_mask), start)


def report_privacy(config: SimConfig) -> PrivacyReport:
    """Map a run configuration to its accountant guarantee, or refuse.

    Combinations whose accounting rule the toolkit does not provide (any
    split/dropout mode together with data subsampling) come back as an
    explicit refusal that states the reason, never as a silently wrong
    number.
    """
    if config.sigma <= 0:
        raise ValueError("privacy accounting needs sigma > 0")
    if config.mode in ("model_split", "dropout") and config.schedule != "all":
        return PrivacyReport(
            guarantee=None,
            refusal=(
                f"no accounting rule for {config.mode} combined with {config.schedule} data "
                f"subsampling: each update is a mixture over both the {config.schedule} participation "
                f"draw and the {config.mode} block choice, and no divergence bound for that nested "
                "mixture is implemented"
            ),
        )
    if config.mode == "model_split":
        spec, count = ModelSplit(d=config.plan.d, c=config.c, sigma=config.sigma), config.T
    elif config.mode == "dropout":
        spec, count = DropoutSplit(c=config.c, sigma=config.sigma), config.T
    elif config.schedule == "bis":
        spec, count = Bis(T=config.T, k=config.k, c=config.c, sigma=config.sigma), 1
    elif config.schedule == "poisson":
        spec, count = PoissonGaussian(c=config.c, sigma=config.sigma, gamma=config.gamma), config.T
    else:
        spec, count = Gaussian(c=config.c, sigma=config.sigma), config.T
    curve = scale_curve(rdp_curve(spec), count)
    return PrivacyReport(guarantee=to_dp(curve, config.delta), refusal=None)
