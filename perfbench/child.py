"""One benchmark operation, run in its own process.

    python3 perfbench/child.py [--trace OUT] cli ARGS...
    python3 perfbench/child.py [--trace OUT] structure ALGEBRA.json EXPECTED.json

``cli`` runs ``levitanaka.cli.main(ARGS)``; untraced CLI operations call
``python3 -m levitanaka.cli`` directly instead of this file.  ``structure``
runs the deep corpus checks on an algebra file and prints them as JSON.
With ``--trace`` the tracer is installed before the operation starts and
its spans are written to OUT when the operation ends, also when it raises.
The benchmark passes its spawn time in PERFBENCH_SPAWN_TIME.
"""

from __future__ import annotations

import json
import os
import sys


def structure(algebra_path, expected_path):
    from levitanaka import corpus
    from levitanaka.graded import GradedLieAlgebra

    with open(expected_path) as fh:
        expected = json.load(fh)
    # corpus expectations key degree_dims by int; JSON turned the keys into str
    if "degree_dims" in expected:
        expected["degree_dims"] = {int(k): v for k, v in expected["degree_dims"].items()}
    entry = corpus.CorpusEntry("benchmark_copy", "algebra",
                               GradedLieAlgebra.load(algebra_path), expected, {})
    checks = corpus.run_checks(entry, deep=True)
    sys.stdout.write(json.dumps(checks, sort_keys=True) + "\n")
    return 0 if all(c["status"] == "pass" for c in checks) else 1


def run(argv):
    if argv[0] == "cli":
        from levitanaka import cli
        return cli.main(argv[1:])
    if argv[0] == "structure":
        return structure(*argv[1:])
    raise SystemExit(f"unknown operation {argv[0]!r}")


def main():
    argv = sys.argv[1:]
    if argv[0] != "--trace":
        return run(argv)
    out, argv = argv[1], argv[2:]
    import tracer

    t = tracer.Tracer(float(os.environ["PERFBENCH_SPAWN_TIME"]))
    root_system = tracer.install(t)
    try:
        return run(argv)
    finally:
        t.dump(out, root_system.cache_info().misses)


if __name__ == "__main__":
    sys.exit(main())
