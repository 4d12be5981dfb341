#!/usr/bin/env python3
"""Record the reference outputs of every op in a workload's pool.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.jsonl.gz``: one line per op with
its key, output digest and values.  Every op must pass its correctness
checks; the script stops at the first that does not.
"""

import gzip
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bootstrap  # noqa: E402

bootstrap.setup(os.getcwd())

import workloads  # noqa: E402


def record(workload: str, tmp_root: str) -> None:
    path = os.path.join(HERE, "reference", f"{workload}.jsonl.gz")
    ops = sorted(workloads.pool(workload), key=lambda o: o.key)
    lines = []
    for o in ops:
        out = workloads.run_op(o, tmp_root)
        errs = workloads.check_op(o, out)
        if errs:
            raise SystemExit(f"{o.key}: {errs}")
        rec = {"key": o.key, "digest": out.digest(), "values": [float(v) for v in out.values]}
        lines.append(json.dumps(rec))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # mtime=0 keeps the file byte-identical when the outputs are.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    print(f"{workload}: {len(lines)} ops -> {path}")


def main() -> None:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    out_root = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp_root:
        for name in names:
            record(name, tmp_root)


if __name__ == "__main__":
    main()
