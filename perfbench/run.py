"""levitanaka benchmark: CLI-level workloads, one operation per child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see perfbench/README.md for why each was chosen):

  analyze_quadric      levitanaka analyze-quadric on the n=7, k=8 corpus quadric
                       in corpus coordinates and on isomorphic transvection copies
  structure_algebra_a  deep corpus checks on basis changes of the 70-dim
                       example_algebra_a
  tables_rank8         levitanaka tables --max-rank 8

Closed loop, one client: each operation is a fresh child process, started
only after the previous one exited, so every operation pays interpreter
start, imports and a cold root-system cache as a CLI user does.  A run
makes a fixed list of operations, sized so that it takes about ``--seconds``
at NOMINAL_OP_S per operation; the copies come from a frozen panel seed
(see inputs.py) and ``--seed`` shuffles their order, so every run makes the
same operations and meets the same failures.  Set-up
(generate, build and write the inputs) runs SETUP_REPEATS times in
its own child and its median is ``setup_s``.  Every output is checked
against frozen invariants.  With ``--trace 1`` the operations run under the
tracer (perfbench/tracer.py) and the per-layer metrics are reported instead
of the end-to-end ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["analyze_quadric", "structure_algebra_a", "tables_rank8"]
SETUP_REPEATS = 5
# typical seconds per operation of every workload on a 2-core x86-64 VM; it
# sets how many operations a run of --seconds makes, whatever the machine
NOMINAL_OP_S = 6.5
RUN_LIMIT_S = 170  # a run must end within 180 s; no operation may start past this
NOT_STARTED_S = float("inf")


# -- child processes -----------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # string hashing is the one per-process random input; fix it so counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, cwd, stdout_path, stderr_path, timeout, env):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB, timed out)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        env = dict(env, PERFBENCH_SPAWN_TIME=repr(time.time()))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, killed.is_set()


# -- verification ----------------------------------------------------------------

def _mismatch(kind, report, expect):
    """Why a parsed output contradicts its frozen invariants, or None."""
    if kind == "structure":
        names = [c["name"] for c in report]
        if names != expect["checks"]:
            return f"checks run {names}, expected {expect['checks']}"
        bad = [c for c in report if c["status"] != "pass"]
        return f"failed checks {bad}" if bad else None
    failing = [c for c in report["checks"] if c["status"] != "pass"]
    if failing:
        return f"failed checks {failing}"
    if kind == "tables":
        got = {"kind_1": len(report["table"]["kind_1"]),
               "kind_2": len(report["table"]["kind_2"])}
    else:
        got = {"degree_dims": report["degree_dims"],
               "radical_dim": report["verdicts"]["radical_dim"],
               "levi_dim": report["verdicts"]["levi_dim"]}
    return None if got == expect else f"got {got}, expected {expect}"


def verify(op, code, stdout_path, stderr_path, timed_out):
    """(None, None) when the operation succeeded with the right output, else
    ("failed", reason) for a crash, timeout or missing report and
    ("wrong", reason) for an output that contradicts the invariants."""
    if timed_out:
        return "failed", "timeout"
    err = Path(stderr_path).read_text(errors="replace").strip()
    last_err = (err.splitlines() or [""])[-1]
    if "Traceback" in err:
        return "failed", "traceback: " + last_err
    lines = Path(stdout_path).read_text(errors="replace").strip().splitlines()
    if not lines:
        return "failed", f"exit {code}, no report: {last_err}"
    try:
        reason = _mismatch(op["kind"], json.loads(lines[-1]), op["expect"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"malformed report: {exc!r}"
    if reason:
        return "wrong", reason
    if code != 0:
        return "failed", f"exit {code}: {last_err}"
    return None, None


# -- one run -----------------------------------------------------------------------

def op_argv(op, trace_out=None):
    cli = op["kind"] != "structure"
    if cli and trace_out is None:
        return [sys.executable, "-m", "levitanaka.cli"] + op["args"]
    head = [sys.executable, str(BENCH / "child.py")]
    if trace_out is not None:
        head += ["--trace", str(trace_out)]
    return head + ["cli" if cli else "structure"] + op["args"]


def plan_size(seconds):
    """Number of operations in a run of ``seconds``; it depends on nothing else."""
    return max(2, round(seconds / NOMINAL_OP_S))


def setup(workload, seed, n_ops, work, env):
    """Run the set-up child SETUP_REPEATS times; returns (median s, manifest, inputs dir)."""
    times = []
    digests = set()
    for r in range(SETUP_REPEATS):
        out = work / f"setup{r}"
        code, wall, _, timed_out = spawn(
            [sys.executable, str(BENCH / "setup_inputs.py"), workload, str(seed), str(n_ops),
             str(out)],
            ROOT, work / f"setup{r}.out", work / f"setup{r}.err", 120, env)
        if code != 0 or timed_out:
            raise SystemExit(f"set-up failed:\n{(work / f'setup{r}.err').read_text()}")
        times.append(wall)
        digests.add(tuple(sorted((p.name, p.read_bytes()) for p in out.iterdir())))
    if len(digests) != 1:
        raise SystemExit("set-up is not deterministic: one seed gave different inputs")
    manifest = json.loads((work / f"setup{SETUP_REPEATS - 1}" / "manifest.json").read_text())
    return statistics.median(times), manifest, work / f"setup{SETUP_REPEATS - 1}"


def run_workload(workload, seed, seconds, trace, work):
    env = _env()
    run_start = time.perf_counter()
    setup_s, manifest, inputs_dir = setup(workload, seed, plan_size(seconds), work, env)
    ops = manifest["ops"]
    # a traced run makes one input once more, to check that counts repeat; the
    # input does not depend on the seed, so neither do the run's failures
    plan = ops + [min(ops, key=lambda op: op["label"])] if trace else ops
    samples = []  # (label, wall s, rss MB, None / "failed" / "wrong", reason)
    traced = {}  # label -> layer metrics of its first traced operation
    count_mismatch = []
    loop_start = time.perf_counter()
    for i, op in enumerate(plan):
        remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
        if remaining < 10:
            # a planned operation that cannot start in time is a failure
            samples += [(o["label"], NOT_STARTED_S, 0.0, "failed", "not started: run time limit")
                        for o in plan[i:]]
            break
        stdout_path, stderr_path = work / f"op{i}.out", work / f"op{i}.err"
        trace_out = work / f"op{i}.trace.json" if trace else None
        code, wall, rss, timed_out = spawn(op_argv(op, trace_out), inputs_dir,
                                           stdout_path, stderr_path, remaining, env)
        outcome, reason = verify(op, code, stdout_path, stderr_path, timed_out)
        samples.append((op["label"], wall, rss, outcome, reason))
        if trace and trace_out.exists():
            record = json.loads(trace_out.read_text())
            m = tracer.layer_metrics(record)
            m["by_caller"] = tracer.echelon_by_caller(record)
            m["op_s"] = wall
            first = traced.setdefault(op["label"], m)
            diff = [k for k in tracer.EXACT_COUNTS if first[k] != m[k]]
            if diff:
                count_mismatch.append((op["label"], diff))
    loop_s = time.perf_counter() - loop_start
    return {"workload": workload, "seed": seed, "setup_s": setup_s, "loop_s": loop_s,
            "samples": samples, "traced": traced, "count_mismatch": count_mismatch,
            "ops": ops}


# -- metrics ------------------------------------------------------------------------

def _op_s_mean(res):
    """Mean wall time of a verified operation.

    Every run makes the same operations and meets the same failures, so the
    mean is over the same inputs in every run.  A mean, not the median of a
    run's few operations, because the mean is what stays steady on a shared
    VM (see perfbench/README.md).  When no operation was verified
    the run's loop time stands in, so that the value stays a finite number.
    """
    ok = [s[1] for s in res["samples"] if s[3] is None]
    return statistics.fmean(ok) if ok else res["loop_s"]


def end_to_end(res):
    """The user-visible metrics of one untraced run.

    ops_per_min counts verified operations over the whole loop, so time
    spent on failed operations lowers it.
    """
    samples = res["samples"]
    verified = [s for s in samples if s[3] is None]
    return {
        "op_s_mean": {"value": _op_s_mean(res), "unit": "s"},
        "ops_per_min": {"value": 60.0 * len(verified) / res["loop_s"], "unit": "1/min"},
        "peak_rss_mb": {"value": max(s[2] for s in samples), "unit": "MB"},
        "setup_s": {"value": res["setup_s"], "unit": "s"},
    }


def per_layer(res):
    """Layer metrics summed over one pass of the workload's inputs."""
    out = {}
    labels = dict.fromkeys(op["label"] for op in res["ops"])  # distinct, in plan order
    passes = [res["traced"][label] for label in labels if label in res["traced"]]
    for name in tracer.TIME_METRICS:
        out[name] = {"value": sum(m[name] for m in passes), "unit": "s"}
    for name in tracer.COUNT_METRICS:
        values = [m[name] for m in passes]
        total = max(values, default=0) if name == "elimination.max_bits" else sum(values)
        out[name] = {"value": total, "unit": "count"}
    rows = out["elimination.rows_in"]["value"]
    out["elimination.pivot_yield"] = {
        "value": out["elimination.pivots"]["value"] / rows if rows else 0.0, "unit": "ratio"}
    out["trace.op_s_mean"] = {"value": _op_s_mean(res), "unit": "s"}
    return out


def report(res, trace):
    samples = res["samples"]
    failures = [(s[0], s[4]) for s in samples if s[3]]
    wrong = [s for s in samples if s[3] == "wrong"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"{'traced' if trace else 'untraced'}  operations {len(samples)}  "
          f"loop {res['loop_s']:.2f} s")
    print("  note: the seed only orders the operations; the inputs are the same for every seed")
    for op in {op["label"]: op for op in res["ops"]}.values():
        got = [s for s in samples if s[0] == op["label"]]
        ok = [s[1] for s in got if s[3] is None]
        print(f"  input {op['label']}: {len(got)} ops, {len(ok)} verified"
              + (f", median {statistics.median(ok):.3f} s" if ok else "")
              + (f", moves {op['moves']}" if op["moves"] else ""))
    print("  operation times in run order: "
          + " ".join(f"{s[1]:.3f}" + ("" if s[3] is None else "(failed)") for s in samples))
    print(f"  failed_share {len(failures)}/{len(samples)}"
          f" = {len(failures) / len(samples):.3f}")
    for label in sorted({f[0] for f in failures}):
        reasons = sorted({f[1] for f in failures if f[0] == label})
        print(f"  FAILED input {label}: {'; '.join(reasons)}")
    for label, diff in res["count_mismatch"]:
        print(f"  COUNT MISMATCH input {label}: {diff}")
    metrics = per_layer(res) if trace else end_to_end(res)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if trace:
        for label, m in res["traced"].items():
            print(f"  layers of {label}: op {m['op_s']:.3f} s, "
                  f"elimination.busy_s {m['elimination.busy_s']:.3f}, "
                  f"rows_in {m['elimination.rows_in']}, max_bits {m['elimination.max_bits']}")
            for caller, agg in sorted(m["by_caller"].items()):
                print(f"    eliminator under {caller}: {agg['calls']} calls, "
                      f"{agg['rows_in']} rows, {agg['busy_s']:.3f} s")
    print(f"  verification: {len(samples) - len(failures)} of {len(samples)} operations "
          f"verified; wrong outputs {len(wrong)}; count self-check "
          f"{'ok' if not res['count_mismatch'] else 'MISMATCH'}")
    correct = not wrong and not res["count_mismatch"]
    return {"correct": correct, "attempted": len(samples), "failed": len(failures),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levitanaka" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no levitanaka sources under {ROOT / 'src'}\n")
        return 2
    # build step: byte-compile once so no timed operation pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
                   check=True, stdout=subprocess.DEVNULL)
    scratch = ROOT / ".perfbench_work"
    results = {}
    names = WORKLOADS if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    for name in names:
        for trace in traces:
            work = scratch / f"{name}-s{args.seed}-t{trace}-p{os.getpid()}"
            work.mkdir(parents=True)
            try:
                results[(name, trace)] = report(
                    run_workload(name, args.seed, args.seconds, trace, work), trace)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    if not any(scratch.iterdir()):
        scratch.rmdir()
    if args.workload != "all":
        print(json.dumps(results[(args.workload, args.trace)], sort_keys=True))
        return 0
    summary = {}
    for name in names:
        plain, traced = results[(name, 0)], results[(name, 1)]
        overhead = (traced["metrics"]["trace.op_s_mean"]["value"]
                    - plain["metrics"]["op_s_mean"]["value"])
        print(f"{name}: tracing overhead {overhead:+.3f} s per operation (traced minus "
              f"untraced op_s_mean)")
        summary[name] = {"correct": plain["correct"] and traced["correct"],
                         "attempted": plain["attempted"], "failed": plain["failed"],
                         "metrics": plain["metrics"], "tracing_overhead_s": overhead}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
