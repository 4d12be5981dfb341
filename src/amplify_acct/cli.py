"""Command line front end: amplify-acct.

Subcommands:

* ``epsilon``   -- (epsilon, delta) guarantee for one mechanism spec.
* ``curve``     -- per-order epsilon table for one or more mechanisms
                   (CSV or JSON, the data behind the comparison figures).
* ``calibrate`` -- search the noise for a target (epsilon, delta).
* ``verify``    -- oracle sweeps: sandwich bounds, offset identity,
                   dimension reduction, order-2 tightness.
* ``simulate``  -- run the training simulator and report diagnostics.

Mechanisms come from ``accountant.MECHANISMS``: ``--mech`` takes each
entry's CLI name and reads its fields from the flags of the same name
(``--c-split`` for ``c_split``; ``--c`` is 1 unless given), one flag per
field name across the table, and refuses the field flags of other
entries; ``curve`` has one repeatable flag per entry (``--poisson`` for
``poisson-gaussian``) taking ``key=value`` pairs named after the fields
plus ``count``, with ``c`` and ``sigma`` defaulting to ``--c`` and
``--sigma``.  A missing, repeated or unknown key exits 2.  A new table
entry, or a new field, appears here with no code change.  The only special
case is ``--poisson RATE`` on ``gaussian``, the subsampled Gaussian.
``calibrate`` takes no ``--sigma``: it searches for sigma.  ``simulate``
refuses ``--gamma``, ``--k``, ``--d`` and ``--hidden`` where its schedule
or mode does not use them.

A JSON config file (``--config``) holds one object per command name;
explicit flags override config values (a repeatable flag replaces the
config's list); unknown keys, and values their flag would not accept, are
errors.
Every output embeds the fully resolved configuration and the tool
version, outputs are byte-identical for identical (flags, config, seed),
and numbers print with 12 significant digits.  Exit codes: 0 success,
1 verification failure, 2 configuration error, refusal, or a file that
cannot be read or written.

Output schemas
--------------

``curve`` CSV: two ``#`` header lines (tool version, resolved config as
canonical JSON), then ``alpha,epsilon,mechanism,mode,provenance`` rows
sorted by mechanism label and ascending order.  The JSON format mirrors
the same rows under ``{"tool", "version", "config", "rows"}``.

``calibrate`` prints ``sigma`` and the achieved epsilon, then one JSON
record: sigma, achieved/target epsilon, delta, iteration count (regula
falsi probes after the two bracket endpoints), bracket endpoints, label of
the calibrated mechanism, config, version.

``verify`` emits a leading meta record (tool, version, resolved config)
followed by one JSON record per check: ``check`` (sandwich /
offset-identity / alpha2-tightness / dim-reduction), the family fields
(d, k, c, sigma), alpha, the computed quantities, and ``ok``; failing
records are reprinted after a ``#`` summary line.  Each family skips the
checks it is too large for (``oracles.CHECK_MAX_D``); a check named in
``--checks`` that fits none of the families exits 2 before any check runs.

``simulate`` writes ``trace.jsonl`` (one record per iteration: iteration,
participants, assignment_counts, max/mean clipped norm, noise_norm, loss,
support_violations, zeroing_violations, mask_ones, mask_draws) and
``summary.json`` (config echo, aggregated diagnostics, final loss, and
the privacy guarantee or refusal).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .accountant import (
    MECHANISMS,
    CalibrationBracketError,
    PoissonGaussian,
    calibrate_sigma,
    mechanism_label,
    rdp_curve,
    scale_curve,
    spec_params,
    to_dp,
)
from .oracles import (
    CHECK_MAX_D,
    McSpec,
    forward_exact_value,
    verify_dim_reduction,
    verify_offset_identity,
    verify_sandwich,
)
# forward_exact_enum: bound here for perfbench/tests/test_perfbench.py's binding test (ROADMAP item 1)
from .rdp_math import MixtureFamily, check_fields, family_mixture, forward_bound, forward_exact_enum, validate_order
from .training_sim import (
    SimConfig,
    even_split_plan,
    make_hidden_task,
    make_linear_task,
    report_privacy,
    run_dropout_training,
    run_model_split_training,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2

_MECHS = {cls.cli_name: cls for cls in MECHANISMS}
_CURVE_FLAGS = {cls: getattr(cls, "curve_flag", cls.cli_name) for cls in MECHANISMS}
# Every field name of the table and its type, one flag each in epsilon and
# calibrate; sigma is each command's own (calibrate searches for it).
_FIELDS = {name: kind for cls in MECHANISMS for name, kind in spec_params(cls).items() if name != "sigma"}


class CliError(Exception):
    """Configuration or refusal error; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _build_mechanism(args) -> object:
    """Mechanism spec from epsilon/calibrate-style flags.

    ``--poisson RATE`` is the data-subsampling modifier: valid only on the
    plain Gaussian (giving the subsampled Gaussian); combining it with a
    split or balanced-subsampling mechanism has no accounting rule and is
    refused.
    """
    mech, rate = args.mech, args.poisson
    if rate is not None and mech != "gaussian":
        raise CliError(
            f"--poisson data subsampling combined with {mech} is not accountable: each iteration "
            f"would release a mixture over both the subsampling draw and the {mech} randomness, "
            "and no divergence bound for that nested mixture is implemented; refusing"
        )
    params = spec_params(_MECHS[mech])
    # Field flags are None unless set.
    others = sorted(set(_FIELDS) - set(params))
    stray = [_flag(name) for name in others if getattr(args, name) is not None]
    if stray:
        raise CliError(f"{mech} takes no {', '.join(stray)}")
    if "c" in params and args.c is None:
        args.c = 1.0  # the default clipping norm, filled in before the config is echoed
    # calibrate has no --sigma: its probes replace the template's sigma of 1.
    given = {"sigma": 1.0, **vars(args)}
    if rate is not None:
        return PoissonGaussian(c=args.c, sigma=given["sigma"], gamma=rate)
    missing = [_flag(name) for name in params if given[name] is None]
    if missing:
        raise CliError(f"{mech} needs {', '.join(missing)}")
    return _MECHS[mech](**{name: given[name] for name in params})


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse_kv(text: str, flag: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise CliError(f"{flag}: expected key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in out:
            raise CliError(f"{flag}: key {key!r} repeated in {text!r}")
        out[key] = value
    return out


def _kv_spec(cls, text: str, flag: str, defaults: dict):
    """(cls instance, unused keys) from a key=value list; defaults fill absent fields."""
    kv = _parse_kv(text, flag)
    params = spec_params(cls)
    missing = [name for name in params if name not in kv and name not in defaults]
    if missing:
        raise CliError(f"{flag}: {text!r} needs key(s) {', '.join(missing)}")
    spec = cls(**{name: kind(kv.pop(name)) if name in kv else defaults[name] for name, kind in params.items()})
    return spec, kv


def _curve_mechanisms(args):
    """(spec, count) pairs from the repeatable curve flags."""
    shared = {"c": args.c, "sigma": args.sigma}
    pairs = []
    for cls, flag in _CURVE_FLAGS.items():
        for text in getattr(args, flag.replace("-", "_")) or []:
            spec, kv = _kv_spec(cls, text, f"--{flag}", shared)
            count = int(kv.pop("count", 1))
            if kv:
                raise CliError(f"unknown mechanism parameter(s) {sorted(kv)} for {mechanism_label(spec)}")
            check_fields(count=count)
            pairs.append((spec, count))
    if not pairs:
        raise CliError("curve needs at least one mechanism flag")
    return pairs


# Output locations do not determine the computed numbers, so they stay out
# of the echoed config: the same computation writes identical bytes wherever
# it lands.
_CONFIG_SKIP = ("command", "config", "out", "out_dir")


def _resolved_config(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items()) if key not in _CONFIG_SKIP and not callable(value)}


def _orders(args):
    return tuple(range(2, args.max_order + 1))


def cmd_epsilon(args) -> int:
    spec = _build_mechanism(args)
    curve = scale_curve(rdp_curve(spec, _orders(args), args.mode), args.count)
    guarantee = to_dp(curve, args.delta)
    prov = curve.provenance[curve.orders.index(guarantee.achieving_order)]
    print(f"mechanism = {mechanism_label(spec)} x {args.count}")
    print(f"epsilon = {_fmt(guarantee.epsilon)} (delta = {_fmt(args.delta)})")
    print(f"achieving_order = {guarantee.achieving_order}")
    print(f"provenance = {prov}")
    return EXIT_OK


def _write_lines(path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_curve(args) -> int:
    orders = _orders(args)
    rows = []
    for spec, count in _curve_mechanisms(args):
        curve = scale_curve(rdp_curve(spec, orders, args.mode), count)
        label = mechanism_label(spec) + (f"x{count}" if count > 1 else "")
        for alpha, eps, prov in zip(curve.orders, curve.epsilons, curve.provenance):
            rows.append((label, alpha, eps, prov))
    rows.sort(key=lambda r: (r[0], r[1]))

    if args.format == "csv":
        lines = [f"# amplify-acct {__version__}", f"# config: {json.dumps(_resolved_config(args), sort_keys=True)}"]
        lines.append("alpha,epsilon,mechanism,mode,provenance")
        for label, alpha, eps, prov in rows:
            lines.append(f"{alpha},{_fmt(eps)},{label},{args.mode},{prov}")
    else:
        payload = {
            "tool": "amplify-acct",
            "version": __version__,
            "config": _resolved_config(args),
            "rows": [
                {"alpha": alpha, "epsilon": eps, "mechanism": label, "mode": args.mode, "provenance": prov}
                for label, alpha, eps, prov in rows
            ],
        }
        lines = [json.dumps(payload, sort_keys=True)]
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    spec = _build_mechanism(args)
    try:
        result = calibrate_sigma(spec, args.count, args.epsilon, args.delta, _orders(args), args.mode)
    except CalibrationBracketError as exc:
        raise CliError(str(exc)) from exc
    record = dataclasses.asdict(result)
    record.update(
        {
            "tool": "amplify-acct",
            "version": __version__,
            "mechanism": mechanism_label(dataclasses.replace(spec, sigma=result.sigma)),
            "count": args.count,
            "config": _resolved_config(args),
        }
    )
    print(f"sigma = {_fmt(result.sigma)}")
    print(f"achieved_epsilon = {_fmt(result.achieved_epsilon)} (target {_fmt(args.epsilon)}, delta {_fmt(args.delta)})")
    _write_lines(args.out, [json.dumps(record, sort_keys=True)])
    return EXIT_OK


def _family_from_kv(text: str) -> MixtureFamily:
    family, kv = _kv_spec(MixtureFamily, text, "--family", {"k": 1, "c": 1.0, "sigma": 1.0})
    if kv:
        raise CliError(f"unknown family parameter(s) {sorted(kv)}")
    return family


def _default_verify_grid():
    return [MixtureFamily(d=d, k=k, c=ratio, sigma=1.0) for d in (2, 3, 4) for k in (1, 2) for ratio in (0.5, 1.0, 2.0)]


_CHECKS = ("sandwich", "offset", "dimred", "alpha2")
# Report fields the verify records leave out: the family is spread into its
# own keys, and the tolerances and combined stderr stay internal.
_REPORT_SKIP = ("family", "tol_forward", "tol_reverse", "stderr")


def _record(check: str, family: MixtureFamily, rep) -> dict:
    """Verify record: check name, family fields, the report's fields by name and ``ok``."""
    fields = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name not in _REPORT_SKIP}
    return {"check": check, **dataclasses.asdict(family), **fields, "ok": rep.ok}


def cmd_verify(args) -> int:
    checks = args.checks.split(",") if args.checks is not None else list(_CHECKS)
    for name in checks:
        if name not in _CHECKS:
            raise CliError(f"unknown check {name!r}")
    families = [_family_from_kv(text) for text in args.family] if args.family else _default_verify_grid()
    alphas = tuple(validate_order(alpha) for alpha in args.alpha) if args.alpha else (2, 3, 5)
    if args.checks is not None:
        smallest = min(family.d for family in families)
        unfit = [name for name in checks if smallest > CHECK_MAX_D.get(name, smallest)]
        if unfit:
            limits = ", ".join(f"{name} d <= {CHECK_MAX_D[name]}" for name in unfit)
            raise CliError(
                f"requested checks {','.join(checks)} ({limits}): no family fits {', '.join(unfit)}; nothing was checked"
            )
    mc = McSpec(n_samples=args.mc_samples, seed=args.seed)

    records = []
    for family in families:
        fits = [name for name in checks if family.d <= CHECK_MAX_D.get(name, family.d)]
        for alpha in alphas:
            if "sandwich" in fits:
                records.append(_record("sandwich", family, verify_sandwich(family, alpha, mc_spec=mc)))
            if "offset" in fits:
                records.append(_record("offset-identity", family, verify_offset_identity(family, alpha, mc_spec=mc)))
        if "alpha2" in fits:
            # Order 2 whatever the --alpha list: one record per family.
            exact2 = forward_exact_value(family, 2)
            bound2 = forward_bound(family, 2)
            ok = abs(exact2 - bound2) <= 1e-9 * max(1.0, abs(bound2))
            fields = {"alpha": 2, "forward_exact": exact2, "forward_bound": bound2, "ok": ok}
            records.append({"check": "alpha2-tightness", **dataclasses.asdict(family), **fields})
        if "dimred" in fits:
            centers = family_mixture(family).centers
            for alpha in alphas:
                records.append(_record("dim-reduction", family, verify_dim_reduction(centers, family.sigma, alpha)))

    failures = [record for record in records if not record["ok"]]
    meta = {"record": "meta", "tool": "amplify-acct", "version": __version__, "config": _resolved_config(args)}
    lines = [json.dumps(meta, sort_keys=True)] + [json.dumps(r, sort_keys=True) for r in records]
    _write_lines(args.out, lines)
    if failures:
        sys.stdout.write(f"# {len(failures)} of {len(records)} checks failed:\n")
        for record in failures:
            sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_simulate(args) -> int:
    mode = args.mode.replace("-", "_")
    unused = {
        "gamma": args.schedule != "poisson",
        "k": args.schedule != "bis",
        "d": mode != "model_split",
        "hidden": mode != "dropout",
    }
    stray = [_flag(name) for name, off in unused.items() if off and getattr(args, name) is not None]
    if stray:
        raise CliError(f"simulate --mode {args.mode} --schedule {args.schedule} takes no {', '.join(stray)}")
    if mode == "dropout" and args.hidden is None:
        args.hidden = 6  # the default hidden width, filled in before the config is echoed
    try:
        plan = None
        if mode == "model_split":
            if args.d is None:
                raise CliError("model-split mode needs --d")
            plan = even_split_plan(args.m, args.d)
        config = SimConfig(
            T=args.T,
            c=args.c,
            sigma=args.sigma,
            mode=mode,
            plan=plan,
            schedule=args.schedule,
            k=args.k,
            gamma=args.gamma,
            seed=args.seed,
            learning_rate=args.lr,
            delta=args.delta,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    if config.sigma > 0:
        privacy = report_privacy(config)
        if privacy.refused:
            raise CliError(f"refusing to simulate an unaccountable configuration: {privacy.refusal}")

    if mode == "dropout":
        trace = run_dropout_training(make_hidden_task(args.n, args.m, args.hidden, args.task_seed), config)
    else:
        trace = run_model_split_training(make_linear_task(args.n, args.m, args.task_seed), config)

    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        trace.write_jsonl(os.path.join(args.out_dir, "trace.jsonl"))
        path = os.path.join(args.out_dir, "summary.json")
        trace.write_summary(path, tool="amplify-acct", version=__version__, cli_config=_resolved_config(args))

    diag = trace.diagnostics()
    print(f"iterations = {config.T}, samples = {args.n}")
    print(f"max_clipped_norm = {_fmt(diag['max_clipped_norm'])} (clip {_fmt(config.c)})")
    print(f"support_violations = {diag['support_violations']}")
    print(f"zeroing_violations = {diag['zeroing_violations']}")
    if diag["bis_row_sums_all_k"] is not None:
        print(f"bis_row_sums_all_k = {diag['bis_row_sums_all_k']}")
    if trace.privacy is None:
        print("privacy = none (sigma = 0)")
    else:
        g = trace.privacy.guarantee
        print(f"privacy = ({_fmt(g.epsilon)}, {_fmt(g.delta)})-DP at order {g.achieving_order}")
    return EXIT_OK


def _add_mech_flags(parser) -> None:
    parser.add_argument("--mech", required=True, choices=tuple(_MECHS))
    for name, kind in _FIELDS.items():
        mechs = ", ".join(cls.cli_name for cls in MECHANISMS if name in spec_params(cls))
        note = " (default 1)" if name == "c" else ""
        parser.add_argument(_flag(name), dest=name, type=kind, default=None, help=f"for {mechs}{note}")
    parser.add_argument("--poisson", type=float, default=None, help="extra data-subsampling rate (gaussian only)")
    parser.add_argument("--count", type=int, default=1, help="sequential repetitions")
    parser.add_argument("--mode", choices=("tight", "loose"), default="tight")
    parser.add_argument("--max-order", dest="max_order", type=int, default=100)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amplify-acct", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"amplify-acct {__version__}")
    parser.add_argument("--config", default=None, help="JSON config file keyed by command name")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eps = sub.add_parser("epsilon", help="(epsilon, delta) guarantee for one mechanism")
    _add_mech_flags(p_eps)
    p_eps.add_argument("--sigma", type=float, default=1.0, help="noise standard deviation")
    p_eps.add_argument("--delta", type=float, required=True)
    p_eps.set_defaults(func=cmd_epsilon)

    p_curve = sub.add_parser("curve", help="per-order epsilon table for mechanisms")
    for cls, flag in _CURVE_FLAGS.items():
        keys = ",".join(f"{name}=..." for name in spec_params(cls))
        p_curve.add_argument(f"--{flag}", action="append", metavar="KV", help=f"{keys},count=... (repeatable)")
    p_curve.add_argument("--c", type=float, default=1.0)
    p_curve.add_argument("--sigma", type=float, default=1.0)
    p_curve.add_argument("--mode", choices=("tight", "loose"), default="tight")
    p_curve.add_argument("--max-order", dest="max_order", type=int, default=100)
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curve.add_argument("--out", default=None)
    p_curve.set_defaults(func=cmd_curve)

    p_cal = sub.add_parser("calibrate", help="noise for a target (epsilon, delta)")
    _add_mech_flags(p_cal)
    p_cal.add_argument("--epsilon", type=float, required=True, help="target epsilon")
    p_cal.add_argument("--delta", type=float, required=True)
    p_cal.add_argument("--out", default=None)
    p_cal.set_defaults(func=cmd_calibrate)

    p_ver = sub.add_parser("verify", help="oracle verification sweeps")
    p_ver.add_argument("--family", action="append", metavar="KV", help="d=..,k=..,c=..,sigma=..")
    p_ver.add_argument("--alpha", action="append", type=int)
    p_ver.add_argument("--checks", default=None, help="comma list: sandwich,offset,dimred,alpha2")
    p_ver.add_argument("--mc-samples", dest="mc_samples", type=int, default=1_000_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run the training simulator")
    p_sim.add_argument("--mode", choices=("plain", "model-split", "dropout"), default="plain")
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--c", type=float, default=1.0)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--d", type=int, default=None)
    p_sim.add_argument("--schedule", choices=("all", "bis", "poisson"), default="all")
    p_sim.add_argument("--k", type=int, default=None)
    p_sim.add_argument("--gamma", type=float, default=None)
    p_sim.add_argument("--n", type=int, default=64, help="samples")
    p_sim.add_argument("--m", type=int, default=12, help="parameter / input dimension")
    p_sim.add_argument("--hidden", type=int, default=None, help="hidden units (dropout mode, default 6)")
    p_sim.add_argument("--lr", type=float, default=0.05)
    p_sim.add_argument("--delta", type=float, default=1e-5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--task-seed", dest="task_seed", type=int, default=0)
    p_sim.add_argument("--out-dir", dest="out_dir", default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _config_value(action, key: str, value):
    """A config value checked and converted as its flag's command-line text would be.

    Non-strings reach the flag's ``type`` and ``choices`` as their JSON text,
    so 2.5 is no int; ``append`` flags take a list, checked element by
    element; null stands only for a flag whose default is unset.
    """
    if value is None and action.default is None:
        return None
    many = isinstance(action, argparse._AppendAction)
    if many != isinstance(value, list):
        raise CliError(f"config key {key!r} must be {'a list' if many else 'one value'}, got {json.dumps(value)}")
    items = []
    for item in value if many else [value]:
        text = item if isinstance(item, str) else json.dumps(item)
        try:
            items.append(action.type(text) if action.type else text)
        except ValueError:
            raise CliError(f"config key {key!r} must be {action.type.__name__}, got {json.dumps(item)}") from None
        if action.choices is not None and items[-1] not in action.choices:
            raise CliError(f"config key {key!r} must be one of {list(action.choices)}, got {json.dumps(item)}")
    return items if many else items[0]


def _apply_config_file(parser, argv, args):
    """Merge the per-command config-file section under the explicit flags."""
    with open(args.config) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError("config file must hold one JSON object keyed by command name")
    section = config.get(args.command, {})
    if not isinstance(section, dict):
        raise CliError(f"config section {args.command!r} must be an object")
    known = set(vars(args)) - {"command", "config", "func"}
    unknown = set(section) - known
    if unknown:
        raise CliError(f"unknown config key(s) for {args.command!r}: {sorted(unknown)}")
    # set_defaults fills only values the command line left at their default,
    # so explicit flags keep priority.  argparse appends to a list default,
    # so an append flag given on the command line (they default to None)
    # drops its config list.
    command_parser = parser._subparsers._group_actions[0].choices[args.command]
    actions = {action.dest: action for action in command_parser._actions}
    values = {key: _config_value(actions[key], key, value) for key, value in section.items()}
    appended = {key for key, action in actions.items() if isinstance(action, argparse._AppendAction)}
    given = {key for key in values if key in appended and getattr(args, key) is not None}
    command_parser.set_defaults(**{key: value for key, value in values.items() if key not in given})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config_file(parser, argv, args)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
