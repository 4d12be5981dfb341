import json
import os
import subprocess
import sys

import numpy as np
import pytest

from amplify_acct.accountant import MECHANISMS, spec_params
from amplify_acct.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY_FAILED, build_parser, main
from reference_formulas import reverse_bound_paper


def test_import_loads_no_scipy():
    # A fresh interpreter: this process may already hold scipy from other tests.
    import amplify_acct

    src = os.path.dirname(os.path.dirname(os.path.abspath(amplify_acct.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    forbidden = ("scipy", "concurrent.futures")
    code = (
        "import sys, amplify_acct.cli; "
        f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {forbidden!r})))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEpsilon:
    def test_gaussian_reference_value(self, capsys):
        code, out, _ = run(capsys, "epsilon", "--mech", "gaussian", "--c", "1", "--sigma", "1",
                           "--count", "1", "--delta", "1e-5")
        assert code == EXIT_OK
        assert "epsilon = 5.30258509299" in out
        assert "achieving_order = 6" in out
        assert "provenance = exact" in out

    def test_model_split_with_subsampling_refused(self, capsys):
        code, _, err = run(capsys, "epsilon", "--mech", "model-split", "--d", "3", "--c", "1",
                           "--sigma", "1", "--count", "1", "--delta", "1e-5", "--poisson", "0.1")
        assert code == EXIT_CONFIG
        assert "no divergence bound for that nested mixture" in err

    def test_bis_full_participation_matches_composed_gaussian(self, capsys):
        _, out_bis, _ = run(capsys, "epsilon", "--mech", "bis", "--T", "10", "--k", "10",
                            "--c", "1", "--sigma", "1", "--delta", "1e-5")
        _, out_gauss, _ = run(capsys, "epsilon", "--mech", "gaussian", "--c", "1", "--sigma", "1",
                              "--count", "10", "--delta", "1e-5")
        eps_bis = [l for l in out_bis.splitlines() if l.startswith("epsilon")]
        eps_g = [l for l in out_gauss.splitlines() if l.startswith("epsilon")]
        assert eps_bis == eps_g

    def test_gaussian_with_poisson_modifier_is_subsampled(self, capsys):
        code, out, _ = run(capsys, "epsilon", "--mech", "gaussian", "--c", "1", "--sigma", "1",
                           "--count", "1", "--delta", "1e-5", "--poisson", "1.0")
        assert code == EXIT_OK
        assert "epsilon = 5.30258509299" in out

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "epsilon", "--mech", "bis", "--T", "5", "--k", "9",
                           "--c", "1", "--sigma", "1", "--delta", "1e-5")
        assert code == EXIT_CONFIG
        assert "k must satisfy" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["epsilon", "--mech", "dropout-split", "--d", "7"], "--d"),
            (["epsilon", "--mech", "gaussian", "--poisson", "0.1", "--gamma", "0.2"], "--gamma"),
            (["epsilon", "--mech", "bis", "--T", "10", "--k", "4", "--d", "3", "--c-split", "1"], "--c-split, --d"),
            (["calibrate", "--mech", "model-split", "--d", "3", "--k", "2", "--epsilon", "2"], "--k"),
            (["epsilon", "--mech", "partial-split", "--d", "3", "--c-split", "1", "--c-nonsplit", "0.5", "--c", "5"],
             "--c"),
        ],
    )
    def test_flag_the_mechanism_lacks_exits_2(self, capsys, argv, flags):
        code, out, err = run(capsys, *argv, "--delta", "1e-5")
        assert code == EXIT_CONFIG
        assert f"takes no {flags}" in err
        assert out == ""

    def test_config_field_the_mechanism_lacks_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": {"d": 7}}))
        code, _, err = run(capsys, "--config", str(cfg), "epsilon", "--mech", "dropout-split", "--delta", "1e-5")
        assert code == EXIT_CONFIG
        assert "dropout-split takes no --d" in err


# Flags that complete each --mech entry.
_MECH_ARGS = {
    "gaussian": [],
    "poisson-gaussian": ["--gamma", "0.1"],
    "model-split": ["--d", "3"],
    "mixture-split": ["--d", "3"],
    "dropout-split": [],
    "partial-split": ["--d", "3", "--c-split", "1", "--c-nonsplit", "0.5"],
    "bis": ["--T", "10", "--k", "4"],
}


@pytest.mark.parametrize("command", [["epsilon"], ["calibrate", "--epsilon", "2"]], ids=["epsilon", "calibrate"])
@pytest.mark.parametrize("mech", sorted(_MECH_ARGS))
def test_empty_order_list_exits_2(capsys, mech, command):
    code, out, err = run(capsys, *command, "--mech", mech, *_MECH_ARGS[mech], "--delta", "1e-5", "--max-order", "1")
    assert code == EXIT_CONFIG
    assert err == "error: curve must contain at least one order\n"
    assert out == ""


_FIELDS = [(cls.cli_name, name, kind) for cls in MECHANISMS for name, kind in spec_params(cls).items()]


@pytest.mark.parametrize("command", ["epsilon", "calibrate"])
@pytest.mark.parametrize("mech, field, kind", _FIELDS, ids=[f"{mech}-{field}" for mech, field, _ in _FIELDS])
def test_every_mechanism_field_has_its_flag(command, mech, field, kind):
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    flags = {option: action for action in parser._actions for option in action.option_strings}
    flag = "--" + field.replace("_", "-")
    if command == "calibrate" and field == "sigma":
        assert flag not in flags  # calibrate searches for sigma
    else:
        assert flags[flag].dest == field and flags[flag].type is kind


class TestCurve:
    def test_csv_structure_and_order(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--bis", "T=10,k=4", "--poisson", "gamma=0.4,count=10",
                         "--sigma", "2", "--c", "1", "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# amplify-acct ")
        assert lines[1].startswith("# config: ")
        assert lines[2] == "alpha,epsilon,mechanism,mode,provenance"
        rows = [line.split(",", 2) for line in lines[3:]]
        assert len(rows) == 2 * 99
        mechs = sorted({r[2].rsplit(",", 2)[0] for r in rows})
        assert len(mechs) == 2
        # sorted by mechanism then alpha
        labels = [line.split(",")[2] for line in lines[3:]]
        assert labels == sorted(labels)

    def test_bis_below_poisson_in_figure3_regime(self, capsys, tmp_path):
        out_file = tmp_path / "fig3.csv"
        run(capsys, "curve", "--bis", "T=10,k=4", "--poisson", "gamma=0.4,count=10",
            "--sigma", "2", "--c", "1", "--out", str(out_file))
        bis, poisson = {}, {}
        for line in out_file.read_text().splitlines()[3:]:
            alpha, eps, mech = line.split(",")[:3]
            (bis if mech.startswith("bis") else poisson)[int(alpha)] = float(eps)
        assert all(bis[a] < poisson[a] for a in bis)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "curve", "--gaussian", "c=1,sigma=2", "--out", str(a))
        run(capsys, "curve", "--gaussian", "c=1,sigma=2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "curve.json"
        code, _, _ = run(capsys, "curve", "--gaussian", "c=1,sigma=1,count=2", "--max-order", "4",
                         "--format", "json", "--out", str(out_file))
        assert code == EXIT_OK
        payload = json.loads(out_file.read_text())
        assert payload["tool"] == "amplify-acct"
        assert [r["epsilon"] for r in payload["rows"]] == [2.0, 3.0, 4.0]

    def test_single_gaussian_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "curve", "--gaussian", "c=1,sigma=1")
        assert code == EXIT_OK
        rows = [line for line in out.splitlines() if line and not line.startswith(("#", "alpha"))]
        assert len(rows) == 99
        for line in rows:
            alpha, eps = line.split(",")[:2]
            assert float(eps) == pytest.approx(int(alpha) / 2, rel=1e-12)

    def test_unknown_mech_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "curve", "--gaussian", "c=1,sgma=1")
        assert code == EXIT_CONFIG
        assert "unknown mechanism parameter" in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["curve", "--poisson", "count=3"], "gamma"),
            (["curve", "--bis", "T=10"], "k"),
            (["curve", "--model-split", "c=1"], "d"),
            (["curve", "--partial-split", "d=3"], "c_split, c_nonsplit"),
            (["verify", "--family", "k=1", "--checks", "alpha2"], "needs key(s) d"),
            (["curve", "--bis", "T=10,T=20,k=4"], "key 'T' repeated"),
            (["verify", "--family", "d=2,k=1", "--alpha", "1", "--checks", "alpha2"], "integer >= 2, got 1"),
        ],
    )
    def test_malformed_key_value_exits_2(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert key in err
        assert out == ""

    def test_no_mechanism_rejected(self, capsys):
        code, _, err = run(capsys, "curve")
        assert code == EXIT_CONFIG
        assert "at least one mechanism" in err

    def test_empty_order_list_exits_2(self, capsys):
        code, out, err = run(capsys, "curve", "--model-split", "d=3", "--max-order", "1")
        assert code == EXIT_CONFIG
        assert err == "error: curve must contain at least one order\n"
        assert out == ""


class TestCalibrate:
    def test_round_trip_gaussian(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--mech", "gaussian", "--c", "1",
                           "--epsilon", "5.302585092994046", "--delta", "1e-5")
        assert code == EXIT_OK
        record = json.loads(out.splitlines()[-1])
        assert record["sigma"] == pytest.approx(1.0, rel=1e-3)
        assert record["achieved_epsilon"] <= 5.302585092994046
        assert record["iterations"] >= 1
        assert record["bracket_lo"] == 0.001 and record["bracket_hi"] == 1000.0

    def test_unachievable_target(self, capsys):
        code, _, err = run(capsys, "calibrate", "--mech", "gaussian", "--c", "1",
                           "--epsilon", "1e-9", "--delta", "1e-12", "--count", "1000000")
        assert code == EXIT_CONFIG
        assert "not bracketed" in err


class TestVerify:
    def test_clean_family_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "d=2,k=2,c=1,sigma=1", "--alpha", "2")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines() if not line.startswith("#")]
        meta = records[0]
        assert meta["record"] == "meta" and meta["tool"] == "amplify-acct"
        checks_records = records[1:]
        assert all(r["ok"] for r in checks_records)
        assert {r["check"] for r in checks_records} == {
            "sandwich",
            "offset-identity",
            "alpha2-tightness",
            "dim-reduction",
        }

    def test_zero_scale_family_all_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "d=3,k=1,c=0,sigma=1", "--alpha", "2",
                           "--checks", "sandwich", "--mc-samples", "200000")
        assert code == EXIT_OK
        record = json.loads(out.splitlines()[1])
        assert record["tight"] == 0.0 and record["loose"] == 0.0

    def test_reverse_bound_defect_detected(self, capsys, monkeypatch):
        # The paper's reverse formula sits below the true reverse divergence
        # here; run against it, verify must fail loudly, reprinting the
        # failing record.
        monkeypatch.setattr("amplify_acct.oracles.reverse_bound", reverse_bound_paper)
        code, out, _ = run(capsys, "verify", "--family", "d=2,k=1,c=1,sigma=1", "--alpha", "2",
                           "--checks", "sandwich")
        assert code == EXIT_VERIFY_FAILED
        assert "checks failed" in out
        record = json.loads(out.splitlines()[1])
        assert record["ok_reverse_below_bound"] is False
        assert record["forward_matches_exact"] is True

    @pytest.mark.parametrize("family", ["d=30,k=3", "d=100,k=5"])
    def test_alpha2_beyond_the_enumeration_budget_exits_2(self, capsys, family):
        # Only a forward bound exists here; it must not be reported as exact.
        code, out, err = run(capsys, "verify", "--family", family, "--checks", "alpha2")
        assert code == EXIT_CONFIG
        assert "no exact forward path" in err
        assert out == ""

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--checks", "sandwich,zigzag")
        assert code == EXIT_CONFIG
        assert "zigzag" in err

    def test_empty_check_list_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--checks", "")
        assert code == EXIT_CONFIG
        assert "unknown check ''" in err
        assert out == ""

    @pytest.mark.parametrize(
        "family, check, limit",
        [
            ("d=3,k=1", "dimred", "dimred d <= 2"),
            ("d=5,k=1", "offset", "offset d <= 4"),
            ("d=3,k=1", "dimred,alpha2", "dimred d <= 2"),
            ("d=5,k=1", "sandwich", "sandwich d <= 4"),
        ],
    )
    def test_no_family_fits_the_checks_exits_2(self, capsys, family, check, limit):
        code, out, err = run(capsys, "verify", "--family", family, "--checks", check)
        assert code == EXIT_CONFIG
        assert f"requested checks {check} ({limit})" in err
        assert out == ""

    def test_family_too_large_for_every_oracle_check_skips_them(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "d=5,k=1", "--alpha", "2", "--mc-samples", "100000")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert [r.get("record", r.get("check")) for r in records] == ["meta", "alpha2-tightness"]

    def test_requested_check_skips_the_families_too_large_for_it(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "d=4,k=1", "--family", "d=5,k=1", "--alpha", "2",
                           "--checks", "sandwich", "--mc-samples", "100000")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()[1:]]
        assert [(r["check"], r["d"]) for r in records] == [("sandwich", 4)]


class TestSimulate:
    def test_model_split_run_with_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "simulate", "--mode", "model-split", "--d", "3", "--T", "12",
                           "--c", "1", "--sigma", "1", "--seed", "7", "--n", "24", "--m", "9",
                           "--out-dir", str(out_dir))
        assert code == EXIT_OK
        assert "support_violations = 0" in out
        assert "privacy = (" in out
        rows = [json.loads(line) for line in (out_dir / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 12
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["diagnostics"]["support_violations"] == 0

    @pytest.mark.parametrize(
        "key, value, argv",
        [
            ("rate", 0.5, ["simulate", "--mode", "dropout", "--T", "2"]),
            ("nonsplit", 1, ["simulate", "--mode", "model-split", "--d", "2", "--T", "2"]),
            ("sigma", 7, ["calibrate", "--mech", "gaussian", "--epsilon", "2", "--delta", "1e-5"]),
        ],
        ids=["rate", "nonsplit", "sigma"],
    )
    def test_rate_flag_and_config_key_are_gone(self, capsys, tmp_path, key, value, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, f"--{key}", str(value))
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({argv[0]: {key: value}}))
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == EXIT_CONFIG
        assert f"unknown config key(s) for '{argv[0]}': ['{key}']" in err
        assert out == ""

    def test_bis_schedule_row_sums(self, capsys, tmp_path):
        out_dir = tmp_path / "bis"
        code, out, _ = run(capsys, "simulate", "--mode", "plain", "--schedule", "bis", "--k", "4",
                           "--T", "10", "--c", "1", "--sigma", "1", "--n", "20", "--m", "6",
                           "--out-dir", str(out_dir))
        assert code == EXIT_OK
        assert "bis_row_sums_all_k = True" in out
        total = sum(json.loads(line)["participants"] for line in (out_dir / "trace.jsonl").read_text().splitlines())
        assert total == 20 * 4

    def test_unaccountable_combination_refused_before_running(self, capsys, tmp_path):
        out_dir = tmp_path / "never"
        code, _, err = run(capsys, "simulate", "--mode", "model-split", "--d", "3", "--schedule",
                           "poisson", "--gamma", "0.1", "--T", "5", "--c", "1", "--sigma", "1",
                           "--m", "9", "--out-dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert "no divergence bound for that nested mixture" in err
        assert not out_dir.exists()

    def test_accountable_run_builds_one_curve(self, capsys, monkeypatch):
        # The early refusal check builds no curve; only the run's report does.
        import amplify_acct
        from amplify_acct import accountant

        original, calls = accountant.rdp_curve, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in vars(amplify_acct).values():
            if getattr(module, "rdp_curve", None) is original:
                monkeypatch.setattr(module, "rdp_curve", counted)
        code, out, _ = run(capsys, "simulate", "--mode", "model-split", "--d", "3", "--T", "4",
                           "--c", "1", "--sigma", "1", "--n", "6", "--m", "9")
        assert code == EXIT_OK
        assert "privacy = (" in out
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["--n", "0"], "n_samples"),
            (["--m", "0"], "param_dim"),
            (["--mode", "dropout", "--hidden", "0"], "hidden_dim"),
            (["--mode", "dropout", "--m", "-1"], "in_dim"),
        ],
    )
    def test_empty_task_exits_2(self, capsys, tmp_path, argv, size):
        out_dir = tmp_path / "never"
        code, out, err = run(capsys, "simulate", "--T", "2", *argv, "--out-dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert f"{size} must be >= 1" in err
        assert "Traceback" not in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--gamma", "0.3"], "--gamma"),
            (["--schedule", "poisson", "--gamma", "0.3", "--k", "2"], "--k"),
            (["--mode", "dropout", "--d", "2"], "--d"),
            (["--hidden", "3"], "--hidden"),
        ],
    )
    def test_flag_the_mode_or_schedule_lacks_exits_2(self, capsys, tmp_path, argv, flag):
        out_dir = tmp_path / "never"
        code, out, err = run(capsys, "simulate", "--T", "3", "--n", "8", *argv, "--out-dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert f"takes no {flag}" in err
        assert out == ""
        assert not out_dir.exists()

    def test_noiseless_run_reports_no_privacy(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "simulate", "--T", "3", "--n", "8", "--sigma", "0", "--out-dir", str(out_dir))
        assert code == EXIT_OK
        assert "privacy = none (sigma = 0)" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["privacy"] is None
        assert summary["tool"] == "amplify-acct" and summary["cli_config"]["sigma"] == 0.0

    def test_deterministic_outputs(self, capsys, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            run(capsys, "simulate", "--mode", "dropout", "--T", "6", "--c", "1", "--sigma", "1",
                "--seed", "3", "--n", "16", "--m", "5", "--hidden", "4", "--out-dir", str(d))
        assert (dirs[0] / "trace.jsonl").read_bytes() == (dirs[1] / "trace.jsonl").read_bytes()
        assert (dirs[0] / "summary.json").read_bytes() == (dirs[1] / "summary.json").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": {"mech": "gaussian", "c": 1.0, "sigma": 1.0,
                                               "count": 1, "delta": 1e-5}}))
        code, out, _ = run(capsys, "--config", str(cfg), "epsilon", "--mech", "gaussian", "--delta", "1e-5")
        assert code == EXIT_OK
        assert "epsilon = 5.30258509299" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": {"mech": "gaussian", "sigma": 1.0, "count": 1, "delta": 1e-5}}))
        code, out, _ = run(capsys, "--config", str(cfg), "epsilon", "--mech", "gaussian",
                           "--delta", "1e-5", "--sigma", "2.0")
        assert code == EXIT_OK
        eps = float([l for l in out.splitlines() if l.startswith("epsilon")][0].split()[2])
        assert eps < 5.0  # more noise than the config's sigma=1

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": {"mech": "gaussian", "sigm": 1.0}}))
        code, _, err = run(capsys, "--config", str(cfg), "epsilon", "--mech", "gaussian", "--delta", "1e-5")
        assert code == EXIT_CONFIG
        assert "sigm" in err

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"d": 2.5}, "'d'"),
            ({"d": 3, "sigma": [1]}, "'sigma'"),
        ],
    )
    def test_value_of_wrong_type_exits_2(self, capsys, tmp_path, section, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": section}))
        code, out, err = run(capsys, "--config", str(cfg), "epsilon", "--mech", "model-split", "--delta", "1e-5")
        assert code == EXIT_CONFIG
        assert f"config key {key}" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "config, argv, kept, dropped",
        [
            ({"verify": {"alpha": [2]}},
             ["verify", "--family", "d=2,k=1,c=1,sigma=1", "--checks", "alpha2", "--alpha", "3"],
             '"alpha": [3]', '"alpha": [2'),
            ({"curve": {"bis": ["T=10,k=4"]}},
             ["curve", "--bis", "T=20,k=4", "--max-order", "3", "--mode", "loose"],
             "bis(T=20,k=4", "T=10"),
        ],
        ids=["verify-alpha", "curve-bis"],
    )
    def test_repeated_flag_replaces_config_list(self, capsys, tmp_path, config, argv, kept, dropped):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, "--config", str(cfg), *argv)
        assert code == EXIT_OK
        assert kept in out
        assert dropped not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "{tmp}/missing.json", "epsilon", "--mech", "gaussian", "--delta", "1e-5"],
        ["curve", "--gaussian", "c=1,sigma=1", "--out", "{tmp}/missing/x.csv"],
        ["simulate", "--T", "2", "--n", "4", "--m", "3", "--out-dir", "{tmp}/file/run"],
    ],
    ids=["config", "curve-out", "simulate-out-dir"],
)
def test_unusable_file_exits_2(capsys, tmp_path, argv):
    (tmp_path / "file").write_text("")
    code, _, err = run(capsys, *[a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == EXIT_CONFIG
    assert err.startswith("error: ")


def _load_golden_recorder():
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "record_goldens.py")
    spec = importlib.util.spec_from_file_location("record_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_outputs():
    recorder = _load_golden_recorder()
    failures = []
    for command in recorder.load_commands():
        want = recorder.load_golden(command["name"])
        got = recorder.run_command(command)
        if sorted(got) != sorted(want):
            failures.append(f"{command['name']}: files {sorted(got)}, golden has {sorted(want)}")
            continue
        for rel in sorted(want):
            diff = recorder.golden_mismatch(got[rel], want[rel])
            if diff is not None:
                failures.append(f"{command['name']}/{rel}:\n{diff}")
    assert not failures, (
        "CLI outputs differ from tests/golden (if the change is intended, regenerate them with "
        "`PYTHONPATH=src python3 scripts/record_goldens.py` and review the diff):\n" + "\n".join(failures)
    )


@pytest.mark.parametrize("out_dir", [None, "out"])
@pytest.mark.parametrize(
    "fresh,kept",
    [
        ('{"T": 10, "tail_term": 0.09012024665725527}\n', True),  # 4.9e-15 relative
        ('{"T": 10, "tail_term": 0.09012024674737597}\n', False),  # 1e-9 relative
        ('{"T": 11, "tail_term": 0.09012024665725571}\n', False),
    ],
)
def test_recorder_keeps_the_golden_text_it_agrees_with(tmp_path, monkeypatch, fresh, kept, out_dir):
    recorder = _load_golden_recorder()
    golden_dir = tmp_path / "golden"
    (golden_dir / "demo").mkdir(parents=True)
    (golden_dir / "commands.json").write_text(json.dumps([{"name": "demo", "argv": []}]))
    golden = '{"T": 10, "tail_term": 0.09012024665725571}\n'
    (golden_dir / "demo" / "stdout").write_text(golden)
    monkeypatch.setattr(recorder, "GOLDEN_DIR", str(golden_dir))
    monkeypatch.setattr(recorder, "run_command", lambda command: {"stdout": fresh})
    target = golden_dir if out_dir is None else tmp_path / out_dir
    monkeypatch.setattr(sys, "argv", ["record_goldens.py"] + ([] if out_dir is None else [str(target)]))
    recorder.main()
    assert (target / "demo" / "stdout").read_text() == (golden if kept else fresh)
