"""Command-line front end.

Commands: analyze-quadric, prolong, classify, tables, corpus.  Output is
canonical JSON (sorted keys, no timestamps) so identical inputs produce
byte-identical reports; --pretty switches to an indented rendering.

Exit codes: 0 success, 1 domain failure (with a witness in the report),
2 input error, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from .classify import (
    FactorDescriptor,
    grading_data,
    phi_is_admissible,
    regenerate_tables,
    theorem_membership,
    tilde_s_general,
    tilde_s_semisimple,
    w0_reverses_E,
)
from .errors import (
    CapReachedError,
    IncompleteFactorsError,
    KindError,
    LeviTanakaError,
    PreconditionError,
)
from .graded import GradedLieAlgebra
from .involution import gamma_case, s_property_sufficient
from .prolongation import prolong, transitivity_check
from .quadric import HermitianFormSystem
from .scalars import rat_to_str


def _emit(report, args) -> None:
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail_input(message: str) -> int:
    sys.stderr.write(f"input error: {message}\n")
    return 2


def _report(command, input_echo, checks, degree_dims=None, verdicts=None):
    return {
        "command": command,
        "input": input_echo,
        "checks": checks,
        "degree_dims": ([[d, n] for d, n in sorted(degree_dims.items())]
                        if degree_dims else None),
        "verdicts": verdicts,
        "timings": None,
    }


def cmd_analyze_quadric(args) -> int:
    if args.max_degree < 0:
        return _fail_input("--max-degree must be non-negative")
    try:
        with open(args.path) as fh:
            blob = json.load(fh)
        form = HermitianFormSystem.from_json(blob)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail_input(str(exc))
    echo = {"path": args.path, "n": form.n, "k": form.k}
    m, checks = form.m_minus_with_checks()
    if m is None:
        _emit(_report("analyze-quadric", echo, checks), args)
        return 1
    try:
        result = prolong(m, max_degree=args.max_degree)
    except (CapReachedError, PreconditionError) as exc:
        checks.append({"name": "prolongation", "status": "fail",
                       "witness": str(exc)})
        _emit(_report("analyze-quadric", echo, checks), args)
        return 1
    checks.append({"name": "prolongation", "status": "pass", "witness": None})
    trans = transitivity_check(result)
    checks.append({"name": "transitivity",
                   "status": "pass" if trans.ok else "fail",
                   "witness": None if trans.ok else trans.offending_degree})
    alg = result.algebra
    # E_r = 0 is decided by [g, g] membership; no Levi factor is lifted
    in_levi = alg.grading_element_in_levi()
    radical_dim = alg.radical().dim
    verdicts = {
        "grading_element_in_levi": in_levi,
        "levi_dim": alg.dim - radical_dim,
        "radical_dim": radical_dim,
    }
    report = _report("analyze-quadric", echo, checks,
                     degree_dims=result.degree_dims, verdicts=verdicts)
    report["characteristic_element"] = {
        alg.names[i]: rat_to_str(x)
        for i, x in result.characteristic_element.items()}
    _emit(report, args)
    return 0 if all(c["status"] == "pass" for c in checks) else 1


def cmd_prolong(args) -> int:
    if args.max_degree < 0:
        return _fail_input("--max-degree must be non-negative")
    try:
        with open(args.path) as fh:
            algebra = GradedLieAlgebra.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail_input(str(exc))
    echo = {"path": args.path, "dim": algebra.dim}
    checks = []
    try:
        result = prolong(algebra, max_degree=args.max_degree)
    except (CapReachedError, PreconditionError) as exc:
        checks.append({"name": "prolongation", "status": "fail",
                       "witness": str(exc)})
        _emit(_report("prolong", echo, checks), args)
        return 1
    checks.append({"name": "prolongation", "status": "pass", "witness": None})
    report = _report("prolong", echo, checks, degree_dims=result.degree_dims)
    report["algebra"] = result.algebra.to_json()
    _emit(report, args)
    return 0


def cmd_classify(args) -> int:
    try:
        with open(args.path) as fh:
            blob = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail_input(str(exc))
    if isinstance(blob, list):
        blob = {"factors": blob}
    try:
        factors = [FactorDescriptor.from_json(f) for f in blob["factors"]]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail_input(str(exc))
    semisimple = blob.get("semisimple", False)
    e_r_is_zero = blob.get("e_r_is_zero", True)
    for field, value in (("semisimple", semisimple), ("e_r_is_zero", e_r_is_zero)):
        if not isinstance(value, bool):
            return _fail_input(f"field {field!r} must be true or false, "
                               f"not {json.dumps(value)}")
    rows = []
    kind2 = []
    kind1 = []
    for d in factors:
        admissible = phi_is_admissible(d)
        row = {"descriptor": d.to_json(), "admissible": admissible}
        if admissible:
            g = grading_data(d)
            row["kind"] = g.kind
            row["w0_reverses_E"] = w0_reverses_E(d)
            try:
                row["in_theorem_list"] = theorem_membership(d)
                row["gamma_case"] = gamma_case(d)
            except KindError:
                row["in_theorem_list"] = None
                row["gamma_case"] = None
            if g.kind == 2:
                kind2.append(d)
            elif g.kind == 1:
                kind1.append(d)
            else:
                return _fail_input(
                    f"factor {d!r} has kind {g.kind}; only kinds 1 and 2 "
                    "describe Levi factors of quadric algebras")
        rows.append(row)
    if any(not r["admissible"] for r in rows):
        report = _report("classify", {"path": args.path}, rows,
                         verdicts={"tilde_s": False, "s_sufficient": False,
                                   "reason": "inadmissible factor"})
        _emit(report, args)
        return 1
    try:
        if semisimple:
            tilde = tilde_s_semisimple(factors)
        else:
            tilde = tilde_s_general(kind2, kind1, e_r_is_zero)
    except (IncompleteFactorsError, KindError) as exc:
        return _fail_input(str(exc))
    sufficient = tilde and s_property_sufficient(kind2, kind1, semisimple)
    report = _report("classify", {"path": args.path,
                                  "semisimple": semisimple,
                                  "e_r_is_zero": e_r_is_zero},
                     rows, verdicts={"tilde_s": tilde,
                                     "s_sufficient": sufficient})
    _emit(report, args)
    return 0


def cmd_tables(args) -> int:
    if args.max_rank < 4:
        return _fail_input("--max-rank must be at least 4")
    table = regenerate_tables(args.max_rank)
    report = _report("tables", {"max_rank": args.max_rank},
                     checks=[{"name": "oracle_agrees_with_lists",
                              "status": "pass" if not table["disagreements"]
                              else "fail",
                              "witness": table["disagreements"] or None}])
    report["table"] = {"kind_1": table["kind_1"], "kind_2": table["kind_2"]}
    _emit(report, args)
    return 3 if table["disagreements"] else 0


def cmd_corpus(args) -> int:
    if args.only:
        try:
            entries = [corpus_mod.entry_by_name(args.only)]
        except KeyError:
            return _fail_input(f"unknown corpus entry {args.only!r}")
    else:
        entries = corpus_mod.all_entries()
    matrix = []
    all_ok = True
    for entry in entries:
        checks = corpus_mod.run_checks(entry, deep=args.run_all)
        ok = all(c["status"] == "pass" for c in checks)
        all_ok = all_ok and ok
        matrix.append({"entry": entry.name, "status": "pass" if ok else "fail",
                       "checks": checks})
    report = _report("corpus", {"run_all": bool(args.run_all),
                                "only": args.only},
                     matrix, verdicts={"all_pass": all_ok})
    _emit(report, args)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levitanaka",
        description="Exact symmetry analysis of CR quadric algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true",
                       help="indented human-readable JSON")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("analyze-quadric",
                       help="hermitian form file -> full analysis report")
    p.add_argument("path")
    p.add_argument("--max-degree", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_analyze_quadric)

    p = sub.add_parser("prolong", help="raw graded algebra file -> prolongation")
    p.add_argument("path")
    p.add_argument("--max-degree", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("classify", help="descriptor list -> symmetry verdicts")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables", help="regenerate the oracle-vs-list tables")
    p.add_argument("--max-rank", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("corpus", help="run the example corpus checks")
    p.add_argument("--run-all", action="store_true",
                   help="include prolongation- and radical-level checks")
    p.add_argument("--only", help="run a single named entry")
    common(p)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LeviTanakaError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except Exception as exc:
        # a defect of the program, not of its input: one line, no traceback
        message = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
