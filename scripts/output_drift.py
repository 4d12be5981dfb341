#!/usr/bin/env python3
"""Compare the benchmark pool outputs of two checkouts, op by op.

    python3 scripts/output_drift.py PARENT_DIR CHANGE_DIR

Every op of both workload pools (``perfbench/workloads.pool``) runs through
``workloads.run_op`` in one fresh interpreter per checkout, set up by that
checkout's ``perfbench/bootstrap.setup`` (its ``src`` first on the path,
one BLAS thread).  Values are compared as float hex, and tags as strings.
For each workload it prints the op count, the ops whose values or tags
changed, and the largest relative deviation over the changed values,
|a - b| / max(|a|, |b|, 1e-300): a parent value of 0 that becomes 1 reads
1, not 1e300, and the floor only keeps -0.0 against 0.0 at 0.  A value that
turns non-finite, or an op whose value count changed, reads inf.  Op
outputs go to a temporary directory; neither checkout is written.
"""

import json
import math
import os
import subprocess
import sys

WORKLOADS = ("queries", "exhaustive")
FLOOR = 1e-300

CHILD_CODE = """
import json, os, sys, tempfile
root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "perfbench"))
import bootstrap
bootstrap.setup(root)
import workloads
with tempfile.TemporaryDirectory() as tmp:
    for workload in sys.argv[2:]:
        for op in workloads.pool(workload):
            out = workloads.run_op(op, tmp)
            values = [float(v).hex() for v in out.values]
            print(json.dumps([workload, op.key, values, list(out.tags)]))
"""


def pool_outputs(root: str) -> dict:
    """{(workload, op key): (value hex list, tag list)} of every pool op run in ``root``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD_CODE, os.path.abspath(root), *WORKLOADS],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    outputs = {}
    for line in proc.stdout.splitlines():
        workload, key, values, tags = json.loads(line)
        outputs[workload, key] = (values, tags)
    return outputs


def deviation(a_hex: str, b_hex: str) -> float:
    a, b = float.fromhex(a_hex), float.fromhex(b_hex)
    if a_hex == b_hex:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), FLOOR)


def compare(parent: dict, change: dict) -> list:
    """Per workload: (name, op count, ops changed, largest relative deviation)."""
    if parent.keys() != change.keys():
        raise SystemExit("the two checkouts draw different op pools; compare them with the same perfbench")
    rows = []
    for workload in WORKLOADS:
        keys = [key for key in parent if key[0] == workload]
        changed, worst = 0, 0.0
        for key in keys:
            (pv, pt), (cv, ct) = parent[key], change[key]
            if (pv, pt) == (cv, ct):
                continue
            changed += 1
            if len(pv) != len(cv):
                worst = math.inf
                continue
            worst = max([worst] + [deviation(a, b) for a, b in zip(pv, cv)])
        rows.append((workload, len(keys), changed, worst))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: output_drift.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (pool_outputs(root) for root in argv)
    print(f"{'workload':<12} {'ops':>5} {'changed':>8} {'max_rel_dev':>12}")
    for workload, ops, changed, worst in compare(parent, change):
        print(f"{workload:<12} {ops:>5} {changed:>8} {worst:>12.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
