"""Set-up step of one benchmark run: write the inputs and a manifest.

    python3 perfbench/setup_inputs.py WORKLOAD SEED OPS OUTDIR

The manifest lists the run's OPS operations in the order the benchmark
runs them; each has a label, the child arguments (paths relative to
OUTDIR) and what its output must show.  The operations depend only on
WORKLOAD and OPS (see inputs.py); SEED shuffles their order.
"""

from __future__ import annotations

import os
import random
import sys

import inputs


def manifest(workload, n_ops, outdir):
    if workload == "analyze_quadric":
        ops = []
        for label, form, moves in inputs.quadric_inputs(n_ops - 1):
            name = f"{label}.json"
            inputs.write_json(os.path.join(outdir, name), form)
            ops.append({"label": label, "kind": "analyze-quadric", "moves": moves,
                        "args": ["analyze-quadric", name],
                        "expect": {"degree_dims": inputs.QUADRIC_DEGREE_DIMS,
                                   "radical_dim": inputs.QUADRIC_RADICAL_DIM,
                                   "levi_dim": inputs.QUADRIC_LEVI_DIM}})
        return ops
    if workload == "structure_algebra_a":
        expected, copies = inputs.structure_inputs(n_ops)
        inputs.write_json(os.path.join(outdir, "expected.json"), expected)
        ops = []
        for label, algebra, moves in copies:
            name = f"{label}.json"
            inputs.write_json(os.path.join(outdir, name), algebra)
            ops.append({"label": label, "kind": "structure", "moves": moves,
                        "args": [name, "expected.json"],
                        "expect": {"checks": inputs.STRUCTURE_CHECKS}})
        return ops
    if workload == "tables_rank8":
        # the tables are a fixed enumeration, made n_ops times
        return [{"label": "max_rank_8", "kind": "tables", "moves": [],
                 "args": ["tables", "--max-rank", str(inputs.TABLES_MAX_RANK)],
                 "expect": {"kind_1": inputs.TABLES_KIND_1_ROWS,
                            "kind_2": inputs.TABLES_KIND_2_ROWS}}] * n_ops
    raise SystemExit(f"unknown workload {workload!r}")


def main():
    workload, seed, n_ops, outdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    os.makedirs(outdir, exist_ok=True)
    ops = manifest(workload, n_ops, outdir)
    random.Random(seed).shuffle(ops)
    inputs.write_json(os.path.join(outdir, "manifest.json"),
                      {"workload": workload, "seed": seed, "ops": ops})


if __name__ == "__main__":
    main()
