#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/ from the current tree.

``tests/golden/commands.json`` lists the commands: a name, the argv, and
optional input files (JSON written before the run).  ``{tmp}`` in an argv
stands for a fresh scratch directory.  Each command runs in process through
``amplify_acct.cli.main`` and must exit 0; its stdout is stored as
``<name>/stdout`` and every file it writes under ``{tmp}`` as ``<name>/<path>``.
``tests/test_cli.py::test_golden_outputs`` compares a fresh run against them
with ``golden_mismatch``: the same text, integers exactly, floats to 1e-12
relative.  Where a fresh file agrees with the committed one that way, the
committed text is written back, so float noise of the last digits between
machines leaves ``tests/golden`` byte for byte.

Run with the package importable (``PYTHONPATH=src``).  An optional argument
names another output directory, for byte-comparing two trees; it gets a
copy of ``commands.json`` too, so on an unchanged tree
``diff -r OUT_DIR tests/golden`` prints nothing:

    PYTHONPATH=src python3 scripts/record_goldens.py [OUT_DIR]
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from decimal import Decimal

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "golden")


def load_commands() -> list:
    with open(os.path.join(GOLDEN_DIR, "commands.json")) as fh:
        return json.load(fh)


def load_golden(name: str) -> dict:
    """{relative path: text} of the committed outputs of command ``name``."""
    target = os.path.join(GOLDEN_DIR, name)
    golden = {}
    for root, _, files in os.walk(target):
        for file in files:
            path = os.path.join(root, file)
            with open(path) as fh:
                golden[os.path.relpath(path, target)] = fh.read()
    return golden


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _numbers_agree(got: str, want: str) -> bool:
    """Ints exactly; floats to 1e-12 relative, or one unit in the 12th digit of a 12-digit print."""
    if got == want:
        return True
    if re.fullmatch(r"[-+]?\d+", want):
        return False
    g, w = Decimal(got), Decimal(want)
    if not (g.is_finite() and w.is_finite()):
        return False
    tol = Decimal("1e-12") * abs(w)
    if len(w.as_tuple().digits) <= 12:
        tol = max(tol, Decimal(1).scaleb(w.adjusted() - 11))
    return abs(g - w) <= tol


def golden_mismatch(got: str, want: str):
    """None when the texts agree; else the first differing line."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}"
    for g, w in zip(got_lines, want_lines):
        same_text = _NUMBER.sub("#", g) == _NUMBER.sub("#", w)
        g_nums, w_nums = _NUMBER.findall(g), _NUMBER.findall(w)
        if not same_text or not all(_numbers_agree(a, b) for a, b in zip(g_nums, w_nums)):
            return f"got    {g}\ngolden {w}"
    return None


def run_command(command: dict) -> dict:
    """{relative path: text} of what the command prints and writes."""
    from amplify_acct.cli import main

    tmp = tempfile.mkdtemp()
    try:
        for name, content in command.get("inputs", {}).items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(content, fh)
        argv = [a.replace("{tmp}", tmp) for a in command["argv"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{command['name']}: exit {code}")
        outputs = {"stdout": buf.getvalue()}
        for root, _, files in os.walk(tmp):
            for name in files:
                path = os.path.join(root, name)
                rel = os.path.relpath(path, tmp)
                if rel not in command.get("inputs", {}):
                    with open(path) as fh:
                        outputs[rel] = fh.read()
        return outputs
    finally:
        shutil.rmtree(tmp)


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR
    if os.path.realpath(out_dir) != os.path.realpath(GOLDEN_DIR):
        os.makedirs(out_dir, exist_ok=True)
        shutil.copyfile(os.path.join(GOLDEN_DIR, "commands.json"), os.path.join(out_dir, "commands.json"))
    for command in load_commands():
        outputs, golden = run_command(command), load_golden(command["name"])
        target = os.path.join(out_dir, command["name"])
        shutil.rmtree(target, ignore_errors=True)
        for rel, text in outputs.items():
            if rel in golden and golden_mismatch(text, golden[rel]) is None:
                text = golden[rel]
            path = os.path.join(target, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        print(f"recorded {command['name']}")


if __name__ == "__main__":
    main()
