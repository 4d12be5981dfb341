import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np
import pytest

from amplify_acct.accountant import rdp_curve, scale_curve, to_dp, Gaussian
from amplify_acct.training_sim import (
    HiddenLayerTask,
    SimConfig,
    SplitPlan,
    SyntheticTask,
    assign_bis_schedule,
    even_split_plan,
    make_hidden_task,
    make_linear_task,
    report_privacy,
    run_dropout_training,
    run_model_split_training,
    stream,
    _RunStreams,
    _stream_keys,
)
from reference_formulas import train_per_draw_streams

LABELS = ("poisson", "assign", "mask", "noise")
KEY_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 5)


def _same_state(a, b):
    """Two ``bit_generator.state`` dicts are equal, arrays entry for entry."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


class TestStreams:
    def test_same_path_same_draws(self):
        a = stream(3, "noise", 4).standard_normal(5)
        b = stream(3, "noise", 4).standard_normal(5)
        assert np.array_equal(a, b)

    def test_paths_are_independent(self):
        a = stream(3, "noise", 4).standard_normal(5)
        b = stream(3, "noise", 5).standard_normal(5)
        c = stream(3, "mask", 4).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_keys_are_seed_sequence_states(self, seed):
        T = 37
        for label in LABELS:
            keys = _stream_keys(seed, label, T)
            assert keys.shape == (T, 2) and keys.dtype == np.uint64
            for t in (0, 1, T - 1):
                sequence = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(label.encode()), t))
                assert np.array_equal(keys[t], sequence.generate_state(2, np.uint64))
                assert np.array_equal(keys[t], stream(seed, label, t).bit_generator.state["state"]["key"])

    def test_keys_refuse_a_second_iteration_word(self):
        # Row t >= 2^32 would hash t as two words; the check comes before any allocation.
        with pytest.raises(ValueError, match=r"T <= 2\*\*32, got 4294967297"):
            _stream_keys(0, "noise", 2**32 + 1)

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_rekeyed_generator_draws_as_stream(self, seed):
        # One generator serves every (label, t) in turn; odd integer counts leave
        # a half-used 32-bit word and a partly read buffer behind, which re-keying must drop.
        n, h, d, T = 7, 3, 5, 4
        streams = _RunStreams(seed, T)
        draws = [
            lambda rng: rng.standard_normal(n),
            lambda rng: rng.random(n),
            lambda rng: rng.integers(d, size=n),
            lambda rng: rng.integers(0, 2, size=(n, h)),
        ]
        for t in (0, T - 1, 1):
            for label in LABELS:
                for draw in draws:
                    rng, fresh = streams(label, t), stream(seed, label, t)
                    assert np.array_equal(draw(rng), draw(fresh))
                    assert _same_state(rng.bit_generator.state, fresh.bit_generator.state)


class TestSplitPlan:
    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError):
            SplitPlan(((0, 1), (1, 2)))

    @pytest.mark.parametrize("d", [0, -2])
    def test_even_split_needs_a_block(self, d):
        with pytest.raises(ValueError, match=rf"^d must be >= 1, got {d}$"):
            even_split_plan(6, d)

    def test_even_split_shapes(self):
        plan = even_split_plan(10, 3)
        assert plan.d == 3
        covered = sorted(i for b in plan.blocks for i in b)
        assert covered == list(range(10))


class TestTasks:
    @pytest.mark.parametrize(
        "make, sizes, name",
        [
            (make_linear_task, (0, 4), "n_samples"),
            (make_linear_task, (5, 0), "param_dim"),
            (make_hidden_task, (0, 3, 2), "n_samples"),
            (make_hidden_task, (5, 0, 2), "in_dim"),
            (make_hidden_task, (5, 3, 0), "hidden_dim"),
        ],
    )
    def test_empty_task_rejected(self, make, sizes, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            make(*sizes, seed=1)

    @pytest.mark.parametrize("make, sizes", [(make_linear_task, (4, 3)), (make_hidden_task, (4, 3, 2))])
    def test_negative_seed_rejected(self, make, sizes):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            make(*sizes, seed=-1)

    def test_negative_run_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SimConfig(T=2, c=1.0, sigma=1.0, seed=-1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            assign_bis_schedule(3, 2, 1, seed=-1)


class TestModelSplitRun:
    def test_degenerate_split_matches_plain_bitwise(self):
        task = make_linear_task(24, 6, seed=2)
        plain = run_model_split_training(task, SimConfig(T=15, c=0.4, sigma=0.0, mode="plain", seed=9))
        split = run_model_split_training(
            task, SimConfig(T=15, c=0.4, sigma=0.0, mode="model_split", plan=even_split_plan(6, 1), seed=9)
        )
        assert np.array_equal(plain.final_params, split.final_params)
        assert [r["loss"] for r in plain.records] == [r["loss"] for r in split.records]

    def test_clipping_contract(self):
        task = make_linear_task(40, 8, seed=0, noise=2.0)
        trace = run_model_split_training(
            task, SimConfig(T=30, c=0.5, sigma=1.0, mode="model_split", plan=even_split_plan(8, 3), seed=1)
        )
        assert trace.max_clipped_norm <= 0.5 + 1e-9
        assert trace.support_violations == 0

    def test_assignment_frequencies_binomial(self):
        task = make_linear_task(64, 10, seed=1)
        trace = run_model_split_training(
            task, SimConfig(T=200, c=1.0, sigma=1.0, mode="model_split", plan=even_split_plan(10, 2), seed=7)
        )
        counts = np.sum([r["assignment_counts"] for r in trace.records], axis=0)
        total = counts.sum()
        assert total == 64 * 200
        stderr = math.sqrt(total * 0.5 * 0.5)
        assert abs(counts[0] - total / 2) <= 3 * stderr

    def test_split_gradients_disjoint_across_blocks(self):
        task = make_linear_task(30, 9, seed=4)
        plan = even_split_plan(9, 3)
        config = SimConfig(T=1, c=1.0, sigma=0.0, mode="model_split", plan=plan, seed=5)
        trace = run_model_split_training(task, config)
        # Rebuild the run's iteration from its own draw and check pairwise support.
        blocks = stream(5, "assign", 0).integers(3, size=task.n_samples)
        assert np.bincount(blocks, minlength=3).tolist() == trace.records[0]["assignment_counts"]
        grads = task.per_sample_gradients(np.zeros(9))
        masked = []
        for i, b in enumerate(blocks):
            g = grads[i].copy()
            allowed = np.zeros(9, dtype=bool)
            allowed[list(plan.blocks[b])] = True
            g[~allowed] = 0.0
            masked.append((b, g))
        for i in range(len(masked)):
            for j in range(i + 1, len(masked)):
                bi, gi = masked[i]
                bj, gj = masked[j]
                if bi != bj:
                    assert not np.any((gi != 0) & (gj != 0))

    def test_deterministic_trace(self):
        task = make_linear_task(16, 5, seed=8)
        config = SimConfig(T=12, c=1.0, sigma=0.7, mode="model_split", plan=even_split_plan(5, 2), seed=3)
        t1 = run_model_split_training(task, config)
        t2 = run_model_split_training(task, config)
        assert t1.records == t2.records
        assert np.array_equal(t1.final_params, t2.final_params)

    def test_invalid_plan_fails_before_compute(self):
        task = make_linear_task(8, 4, seed=0)
        with pytest.raises(ValueError):
            run_model_split_training(
                task, SimConfig(T=2, c=1.0, sigma=0.0, mode="model_split", plan=SplitPlan(((0, 99),)), seed=0)
            )


@dataclass(frozen=True)
class LeakyHiddenTask(HiddenLayerTask):
    """A broken gradient: unit 0's incoming weights get their gradient as if unit 0 were kept.

    Every call's (masks, gradients) is kept in ``calls``.
    """

    calls: list = field(default_factory=list)

    def per_sample_gradients(self, w, idx, masks):
        grads = super().per_sample_gradients(w, idx, masks)
        kept = np.array(masks, dtype=float)
        kept[:, 0] = 1.0
        grads[:, : self.in_dim] = super().per_sample_gradients(w, idx, kept)[:, : self.in_dim]
        self.calls.append((np.array(masks), grads.copy()))
        return grads


class TestDropoutRun:
    def test_all_units_dropped_gives_zero_gradients(self):
        # The run starts away from w = 0, where every gradient vanishes anyway,
        # so only the mask keeps the gradients at zero and the run pure noise.
        task = make_hidden_task(20, 5, 4, seed=1)
        config = SimConfig(T=4, c=1.0, sigma=1.0, mode="dropout", seed=0)
        trace = run_dropout_training(task, config, forced_mask=np.zeros(4))
        expected = stream(0, "init").standard_normal(task.param_dim) / np.sqrt(task.in_dim)
        for t in range(config.T):
            noise = stream(0, "noise", t).standard_normal(task.param_dim)
            expected = expected - config.learning_rate * (config.sigma * noise)
        assert np.array_equal(trace.final_params, expected)
        assert trace.max_clipped_norm == 0.0
        assert trace.zeroing_violations == 0

    def test_no_dropout_matches_manual_step(self):
        # Both iterations step by hand from the run's seeded nonzero start.
        task = make_hidden_task(10, 4, 3, seed=2)
        config = SimConfig(T=2, c=0.2, sigma=1.0, mode="dropout", seed=0, learning_rate=0.5)
        trace = run_dropout_training(task, config, forced_mask=np.ones(3))
        expected = stream(0, "init").standard_normal(task.param_dim) / np.sqrt(task.in_dim)
        clipped = 0
        for t in range(config.T):
            grads = task.per_sample_gradients(expected, np.arange(task.n_samples), np.ones((task.n_samples, 3)))
            manual = np.zeros(task.param_dim)
            for g, norm in zip(grads, np.linalg.norm(grads, axis=1)):
                if norm > 0.2:
                    g = g * (0.2 / norm)
                    clipped += 1
                manual += g
            expected = expected - 0.5 * (manual + 1.0 * stream(0, "noise", t).standard_normal(task.param_dim))
        assert 0 < clipped < config.T * task.n_samples
        assert np.array_equal(trace.final_params, expected)

    def test_noiseless_run_moves_from_its_start(self):
        # w = 0 is a stationary point of the task; the seeded start is not.
        task = make_hidden_task(40, 6, 4, seed=1)
        trace = run_dropout_training(task, SimConfig(T=5, c=1.0, sigma=0.0, mode="dropout"))
        assert trace.records[0]["max_clipped_norm"] > 0.0
        assert trace.zeroing_violations == 0

    def test_random_masks_zero_incident_gradients(self):
        task = make_hidden_task(50, 6, 5, seed=3)
        config = SimConfig(T=10, c=1.0, sigma=1.0, mode="dropout", seed=11)
        trace = run_dropout_training(task, config)
        assert trace.zeroing_violations == 0
        assert trace.max_clipped_norm <= 1.0 + 1e-9
        ones = sum(r["mask_ones"] for r in trace.records)
        draws = sum(r["mask_draws"] for r in trace.records)
        assert abs(ones - draws / 2) <= 3 * math.sqrt(draws * 0.25)

    def test_batched_gradients_match_finite_differences(self):
        task = make_hidden_task(12, 4, 3, seed=5)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(task.param_dim)
        idx = rng.permutation(task.n_samples)[:7]
        masks = rng.integers(0, 2, size=(7, 3)).astype(float)
        assert 0 < masks.sum() < masks.size

        def loss(w, i, mask):
            weights, readout = task.unpack(w)
            return 0.5 * (readout @ (mask * np.tanh(weights @ task.features[i])) - task.targets[i]) ** 2

        grads = task.per_sample_gradients(w, idx, masks)
        assert grads.shape == (7, task.param_dim)
        h = 1e-6
        for row, i, mask in zip(grads, idx, masks):
            fd = [(loss(w + h * e, i, mask) - loss(w - h * e, i, mask)) / (2 * h) for e in np.eye(task.param_dim)]
            np.testing.assert_allclose(row, fd, rtol=1e-6, atol=1e-9)

    def test_zeroing_count_catches_a_leak(self):
        base = make_hidden_task(20, 4, 3, seed=4)
        task = LeakyHiddenTask(base.features, base.targets, base.hidden_dim)
        trace = run_dropout_training(task, SimConfig(T=5, c=1.0, sigma=1.0, mode="dropout", seed=2))
        assert len(task.calls) == len(trace.records)
        for record, (masks, grads) in zip(trace.records, task.calls):
            brute = sum(
                grads[j, i] != 0.0
                for j in range(len(masks))
                for u in range(task.hidden_dim)
                if masks[j, u] == 0
                for i in task.incident_indices(u)
            )
            assert record["zeroing_violations"] == brute
        assert trace.zeroing_violations > 0

    def test_incident_indices_cover_rows_and_readout(self):
        task = HiddenLayerTask(np.zeros((1, 3)), np.zeros(1), hidden_dim=2)
        idx = task.incident_indices(1)
        assert sorted(idx.tolist()) == [3, 4, 5, 7]


class TestBisSchedule:
    def test_single_sample_full_participation(self):
        assert np.array_equal(assign_bis_schedule(1, 3, 3, seed=0), np.ones((1, 3), dtype=np.uint8))

    def test_row_sums_and_column_distribution(self):
        matrix = assign_bis_schedule(1000, 10, 4, seed=42)
        assert (matrix.sum(axis=1) == 4).all()
        col = matrix.sum(axis=0).astype(int)
        stderr = math.sqrt(1000 * 0.4 * 0.6)
        assert np.all(np.abs(col - 400) <= 4 * stderr)
        assert abs(col.mean() - 400) <= 3 * stderr / math.sqrt(10)

    def test_full_participation_is_all_ones(self):
        matrix = assign_bis_schedule(7, 5, 5, seed=1)
        assert matrix.sum() == 35

    def test_rows_independent_of_order(self):
        # Row i depends only on (seed, i): the first rows ignore how many follow.
        assert np.array_equal(assign_bis_schedule(10, 6, 2, seed=9)[:4], assign_bis_schedule(4, 6, 2, seed=9))

    def test_rows_are_uniform_subsets(self):
        # T=5, k=2: each of the C(5,2)=10 subsets takes a 1/10 share of the
        # rows, within 4 standard errors over 20,000 rows.
        matrix = assign_bis_schedule(20000, 5, 2, seed=13)
        subsets, counts = np.unique(matrix, axis=0, return_counts=True)
        assert len(subsets) == 10 and (subsets.sum(axis=1) == 2).all()
        assert np.all(np.abs(counts - 2000) <= 4 * math.sqrt(20000 * 0.1 * 0.9))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            assign_bis_schedule(5, 3, 4, seed=0)

    def test_sample_count_goes_through_the_field_rule(self):
        with pytest.raises(ValueError, match=r"^n_samples must be >= 1, got 0$"):
            assign_bis_schedule(0, 3, 1, seed=0)


class TestSchedulesInRuns:
    def test_bis_schedule_row_sums_in_trace(self):
        task = make_linear_task(20, 6, seed=0)
        config = SimConfig(T=10, c=1.0, sigma=1.0, mode="plain", schedule="bis", k=4, seed=3)
        trace = run_model_split_training(task, config)
        assert trace.bis_row_sums == [4] * 20
        per_iter = [r["participants"] for r in trace.records]
        assert sum(per_iter) == 20 * 4

    def test_poisson_schedule_counts(self):
        task = make_linear_task(50, 6, seed=0)
        config = SimConfig(T=40, c=1.0, sigma=1.0, mode="plain", schedule="poisson", gamma=0.3, seed=5)
        trace = run_model_split_training(task, config)
        total = sum(r["participants"] for r in trace.records)
        expect = 50 * 40 * 0.3
        assert abs(total - expect) <= 3 * math.sqrt(50 * 40 * 0.3 * 0.7)

    def test_draws_do_not_depend_on_later_samples(self):
        # Samples 4..9 have zero gradients, so the ten-sample run ends where the
        # four-sample run does only if samples 0..3 draw the same participation
        # and blocks in every iteration.
        task = make_linear_task(10, 6, seed=3)
        zeroed = SyntheticTask(np.where(np.arange(10)[:, None] < 4, task.features, 0.0), task.targets)
        config = SimConfig(T=8, c=1.0, sigma=0.0, mode="model_split", plan=even_split_plan(6, 3),
                           schedule="poisson", gamma=0.5, seed=4)
        full = run_model_split_training(zeroed, config)
        prefix = run_model_split_training(SyntheticTask(task.features[:4], task.targets[:4]), config)
        assert np.array_equal(full.final_params, prefix.final_params)
        assert any(r["participants"] for r in prefix.records)

    @pytest.mark.parametrize("mode", ["plain", "model_split", "dropout"])
    def test_iteration_without_participants(self, mode):
        # At seed 164 the third of four Poisson draws over 3 samples is empty.
        config = SimConfig(T=4, c=1.0, sigma=1.0, mode=mode, schedule="poisson", gamma=0.3, seed=164,
                           plan=even_split_plan(4, 2) if mode == "model_split" else None)
        if mode == "dropout":
            trace = run_dropout_training(make_hidden_task(3, 4, 2, seed=0), config)
        else:
            trace = run_model_split_training(make_linear_task(3, 4, seed=0), config)
        empty = trace.records[2]
        assert [r["participants"] for r in trace.records] == [1, 1, 0, 2]
        assert empty["max_clipped_norm"] == empty["mean_clipped_norm"] == 0.0
        assert empty["mask_draws"] == (0 if mode == "dropout" else None)


class TestReportPrivacy:
    def test_plain_poisson_full_rate_single_iteration(self):
        config = SimConfig(T=1, c=1.0, sigma=1.0, mode="plain", schedule="poisson", gamma=1.0)
        report = report_privacy(config)
        assert not report.refused
        assert report.guarantee.epsilon == pytest.approx(5.302585092994046, rel=1e-12)

    def test_model_split_d1_equals_plain(self):
        split = report_privacy(
            SimConfig(T=7, c=1.0, sigma=2.0, mode="model_split", plan=even_split_plan(6, 1))
        )
        plain = report_privacy(SimConfig(T=7, c=1.0, sigma=2.0, mode="plain"))
        assert split.guarantee.epsilon == pytest.approx(plain.guarantee.epsilon, rel=1e-9)

    def test_plain_bis_uses_joint_curve(self):
        config = SimConfig(T=10, c=1.0, sigma=2.0, mode="plain", schedule="bis", k=4)
        report = report_privacy(config)
        assert not report.refused
        expected = to_dp(
            rdp_curve(__import__("amplify_acct.accountant", fromlist=["Bis"]).Bis(T=10, k=4, c=1.0, sigma=2.0)),
            1e-5,
        )
        assert report.guarantee.epsilon == pytest.approx(expected.epsilon, rel=1e-12)

    def test_dropout_uses_two_way_split(self):
        config = SimConfig(T=5, c=1.0, sigma=2.0, mode="dropout")
        report = report_privacy(config)
        assert not report.refused
        plain = to_dp(scale_curve(rdp_curve(Gaussian(c=1.0, sigma=2.0)), 5), 1e-5)
        assert report.guarantee.epsilon < plain.epsilon

    def test_split_with_subsampling_refused(self):
        config = SimConfig(
            T=10, c=1.0, sigma=1.0, mode="model_split", plan=even_split_plan(9, 3), schedule="poisson", gamma=0.1
        )
        report = report_privacy(config)
        assert report.refused
        assert "no divergence bound for that nested mixture" in report.refusal

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            report_privacy(SimConfig(T=1, c=1.0, sigma=0.0, mode="plain"))


class TestTraceSerialization:
    def test_jsonl_and_summary_round_trip(self, tmp_path):
        task = make_linear_task(12, 5, seed=0)
        config = SimConfig(T=6, c=1.0, sigma=1.0, mode="model_split", plan=even_split_plan(5, 2), seed=1)
        trace = run_model_split_training(task, config)
        trace.write_jsonl(tmp_path / "trace.jsonl")
        trace.write_summary(tmp_path / "summary.json")

        rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 6
        assert rows[0]["iteration"] == 0
        assert all(r["support_violations"] == 0 for r in rows)

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["mode"] == "model_split"
        assert summary["diagnostics"]["support_violations"] == 0
        assert summary["privacy"]["epsilon"] > 0

    def test_jsonl_is_one_json_dumps_line_per_record(self, tmp_path):
        task = make_hidden_task(16, 3, 4, seed=6)
        trace = run_dropout_training(task, SimConfig(T=4, c=1.0, sigma=1.0, mode="dropout", seed=3))
        trace.records.append({"iteration": 4, "loss": float("nan"), "noise_norm": float("inf"), "label": "\u00e9\n"})
        trace.write_jsonl(tmp_path / "trace.jsonl")
        expected = "".join(json.dumps(record, sort_keys=True) + "\n" for record in trace.records)
        assert (tmp_path / "trace.jsonl").read_bytes() == expected.encode()


def _run(task, config, forced_mask=None):
    if config.mode == "dropout":
        return run_dropout_training(task, config, forced_mask=forced_mask)
    return run_model_split_training(task, config)


def _task(mode, n=12, m=6, seed=1):
    return make_hidden_task(n, m, 3, seed=seed) if mode == "dropout" else make_linear_task(n, m, seed=seed)


def _assert_same_trace(tmp_path, trace, reference):
    trace.write_jsonl(tmp_path / "trace.jsonl")
    reference.write_jsonl(tmp_path / "reference.jsonl")
    assert (tmp_path / "trace.jsonl").read_text() == (tmp_path / "reference.jsonl").read_text()
    assert trace.final_params.tobytes() == reference.final_params.tobytes()
    assert trace.bis_row_sums == reference.bis_row_sums
    assert trace.privacy == reference.privacy


class TestTracesAgainstPerDrawStreams:
    """Keys derived once per run and one re-keyed Philox give the per-draw loop's traces bit for bit."""

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("schedule", ["all", "bis", "poisson"])
    @pytest.mark.parametrize("mode", ["plain", "model_split", "dropout"])
    def test_every_mode_and_schedule(self, tmp_path, mode, schedule, sigma):
        config = SimConfig(T=9, c=0.5, sigma=sigma, mode=mode, schedule=schedule, k=3 if schedule == "bis" else None,
                           gamma=0.4 if schedule == "poisson" else None, seed=2**40 + 7,
                           plan=even_split_plan(6, 3) if mode == "model_split" else None)
        task = _task(mode)
        _assert_same_trace(tmp_path, _run(task, config), train_per_draw_streams(task, config))

    @pytest.mark.parametrize("schedule", ["all", "poisson"])
    @pytest.mark.parametrize("mask", [[0, 0, 0], [1, 1, 1], [1, 0, 0]])
    def test_forced_masks(self, tmp_path, mask, schedule):
        config = SimConfig(T=5, c=1.0, sigma=1.0, mode="dropout", schedule=schedule,
                           gamma=0.5 if schedule == "poisson" else None, seed=3)
        task = _task("dropout")
        mask = np.array(mask, dtype=float)
        _assert_same_trace(tmp_path, _run(task, config, mask), train_per_draw_streams(task, config, mask))

    @pytest.mark.parametrize("mode", ["plain", "model_split", "dropout"])
    def test_iteration_without_participants(self, tmp_path, mode):
        # The seed-164 run of TestSchedulesInRuns, whose third iteration is empty.
        config = SimConfig(T=4, c=1.0, sigma=1.0, mode=mode, schedule="poisson", gamma=0.3, seed=164,
                           plan=even_split_plan(4, 2) if mode == "model_split" else None)
        task = _task(mode, n=3, m=4, seed=0)
        trace = _run(task, config)
        assert trace.records[2]["participants"] == 0
        _assert_same_trace(tmp_path, trace, train_per_draw_streams(task, config))

    def test_leaky_task_counts(self, tmp_path):
        base = make_hidden_task(20, 4, 3, seed=4)
        config = SimConfig(T=5, c=1.0, sigma=1.0, mode="dropout", seed=2)
        trace = _run(LeakyHiddenTask(base.features, base.targets, base.hidden_dim), config)
        reference = train_per_draw_streams(LeakyHiddenTask(base.features, base.targets, base.hidden_dim), config)
        assert [r["zeroing_violations"] for r in trace.records] == [r["zeroing_violations"] for r in reference.records]
        assert trace.zeroing_violations > 0
        _assert_same_trace(tmp_path, trace, reference)
