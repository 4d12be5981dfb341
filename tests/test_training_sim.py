import json
import math

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
)


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


class TestSplitPlan:
    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError):
            SplitPlan(((0, 1), (1, 2)))

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
