#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/ from the current tree.

``tests/golden/commands.json`` lists the commands: a name, the argv, and
optional input files (JSON written before the run).  ``{tmp}`` in an argv
stands for a fresh scratch directory.  Each command runs in process through
``amplify_acct.cli.main`` and must exit 0; its stdout is stored as
``<name>/stdout`` and every file it writes under ``{tmp}`` as ``<name>/<path>``.
``tests/test_cli.py::test_golden_outputs`` compares a fresh run against them.

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
import shutil
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "golden")


def load_commands() -> list:
    with open(os.path.join(GOLDEN_DIR, "commands.json")) as fh:
        return json.load(fh)


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
        target = os.path.join(out_dir, command["name"])
        shutil.rmtree(target, ignore_errors=True)
        for rel, text in run_command(command).items():
            path = os.path.join(target, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        print(f"recorded {command['name']}")


if __name__ == "__main__":
    main()
