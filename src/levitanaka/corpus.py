"""Programmatic builders for the worked examples, with expected metadata.

Each entry carries ground-truth values for the test suites, with a
provenance tag per value: "literature" for numbers quoted from the
source material, "derived" for values established by independent
computation (brute-force oracle, construction bookkeeping) and then
frozen as regression goldens.

The two large algebras are complex matrix Lie algebras realified over
Q, read off a basis of matrices by ``_realified``: each bracket is a
commutator, put on the basis by one ``elimination.Echelon``; a line's
degree is its eigenvalue under ad of a diagonal grading matrix, and on
degree -1 the CR structure J is i times its eigenvalue under ad of a
second diagonal matrix.  The real algebra doubles each basis line into
(x, ix) and carries J as its degree -1 block.
"""

from __future__ import annotations

from fractions import Fraction

from . import elimination
from .classify import FactorDescriptor, tilde_s_general
from .errors import (
    NoCharacteristicElementError,
    NotUniqueCharacteristicElementError,
    certify,
    check,
)
from .graded import GradedLieAlgebra
from .involution import s_property_sufficient
from .matrices import ExactMatrix
from .prolongation import prolong, transitivity_check
from .quadric import HermitianFormSystem, diagonal_form, extract_components
from .scalars import exact

# positions of the complex parameters inside the n=7, k=8 hermitian form
COUNTEREXAMPLE_POSITIONS = [
    [(2, 1)],          # alpha
    [(3, 2)],          # beta
    [(2, 4), (5, 1)],  # gamma
    [(2, 6), (7, 1)],  # delta
]


class CorpusEntry:
    """Named example plus its expected values and provenance tags."""

    def __init__(self, name, kind, payload, expected, provenance):
        self.name = name
        self.kind = kind  # "quadric" or "algebra"
        self.payload = payload
        self.expected = expected
        self.provenance = provenance

    def to_json(self):
        return {"name": self.name, "kind": self.kind,
                "payload": self.payload.to_json(),
                "expected": self.expected, "provenance": self.provenance}

    def __repr__(self):
        return f"CorpusEntry({self.name})"


def _commutator(a, b):
    """ab - ba for sparse matrices {(row, col): x}; zero entries may stay."""
    out = {}
    for (i, k), x in a.items():
        for (l, j), y in b.items():
            if k == l:
                out[i, j] = out.get((i, j), 0) + x * y
            if j == i:
                out[l, k] = out.get((l, k), 0) - y * x
    return out


def _eigenvalue(name, matrix, diag):
    """The eigenvalue of a sparse matrix under ad of the diagonal matrix diag."""
    values = {diag[r] - diag[c] for r, c in matrix}
    certify(len(values) == 1, lambda: f"{name} is not a weight vector")
    return values.pop()


def _realified(basis, grading, jdiag):
    """The real graded algebra of the complex Lie algebra spanned by ``basis``.

    ``basis`` lists (name, matrix) pairs, each matrix a sparse
    {(row, col): rational} of size len(grading); ``grading`` and ``jdiag``
    are the diagonals of two diagonal matrices.  Certified on the way: the
    lines are independent; each is a weight vector of ad(grading) with an
    integral eigenvalue, its degree; on degree -1 it is a weight vector of
    ad(jdiag) with eigenvalue +-1, and J is i times it; every commutator
    lies in the span.  Line x gives the real lines x and ix, with
    J(x) = +-ix.
    """
    n = len(grading)

    def flat(matrix):
        return {r * n + c: x for (r, c), x in matrix.items()}

    span = elimination.Echelon(n * n)
    names, degrees, signs = [], [], {}
    for t, (name, matrix) in enumerate(basis):
        certify(span.add(flat(matrix)),
                lambda: f"{name} is dependent on the lines before it")
        degree = exact(_eigenvalue(name, matrix, grading))
        certify(type(degree) is int,
                lambda: f"non-integral degree {degree} on {name}")
        if degree == -1:
            sign = _eigenvalue(name, matrix, jdiag)
            certify(sign in (1, -1), lambda: f"bad J eigenvalue {sign} on {name}")
            signs[t] = sign
        names += [name, f"i{name}"]
        degrees += [degree, degree]
    table = {}
    for i, (x, a) in enumerate(basis):
        for j in range(i + 1, len(basis)):
            y, b = basis[j]
            coords = span.coords(flat(_commutator(a, b)))
            certify(coords is not None,
                    lambda: f"[{x}, {y}] leaves the span of the basis")
            if coords:
                re_part = {2 * z: c for z, c in coords.items()}
                im_part = {2 * z + 1: c for z, c in coords.items()}
                table[2 * i, 2 * j] = re_part
                table[2 * i, 2 * j + 1] = table[2 * i + 1, 2 * j] = im_part
                table[2 * i + 1, 2 * j + 1] = {k: -c for k, c in re_part.items()}
    pos = {g: p for p, g in enumerate(t for t, d in enumerate(degrees) if d == -1)}
    rows = [[0] * len(pos) for _ in pos]
    for t, sign in signs.items():
        # J(x) = sign * ix, J(ix) = -sign * x
        rows[pos[2 * t + 1]][pos[2 * t]] = sign
        rows[pos[2 * t]][pos[2 * t + 1]] = -sign
    return GradedLieAlgebra(names, degrees, table, ExactMatrix.from_rows(rows))


# sl(3, C) on C^3: root vectors E_rs and the Cartan lines H1, H2
_SL3 = {"E12": {(0, 1): 1}, "E13": {(0, 2): 1}, "E23": {(1, 2): 1},
        "E21": {(1, 0): 1}, "E31": {(2, 0): 1}, "E32": {(2, 1): 1},
        "H1": {(0, 0): 1, (1, 1): -1}, "H2": {(1, 1): 1, (2, 2): -1}}


def example_algebra_a() -> CorpusEntry:
    """The 70-dimensional graded algebra behind the n=7, k=8 example.

    sl(3, C) with its kind-2 grading acts on the standard module V, two
    dual copies W^1, W^2 (shifted so their degrees are 0..2), and two
    adjoint copies U^1, U^2; products of V with W^k land in U^k plus a
    trace line c_k.  W, U and the trace lines commute with everything
    inside the radical, so the radical is 2-step nilpotent and the two
    trace lines are central: the grading of this algebra is not inner.

    All of it lives in gl(10) on C^3 + C + C^3 + C^3: sl(3) acts as
    diag(A, 0, A, A), v_r is E_{r,3}, w^k_s is E_{3,b_k+s}, and u^k_x and
    c_k are x and the identity in the block (0, b_k), with b_1 = 4 and
    b_2 = 7.
    """
    def placed(matrix, row, col):
        return {(row + r, col + c): x for (r, c), x in matrix.items()}

    offsets = {1: 4, 2: 7}
    basis = [(name, {**placed(m, 0, 0), **placed(m, 4, 4), **placed(m, 7, 7)})
             for name, m in _SL3.items()]
    basis += [(f"v{r + 1}", {(r, 3): 1}) for r in range(3)]
    basis += [(f"w{k}_{s + 1}", {(3, b + s): 1})
              for k, b in offsets.items() for s in range(3)]
    basis += [(f"u{k}_{name}", placed(m, 0, b))
              for k, b in offsets.items() for name, m in _SL3.items()]
    basis += [(f"c{k}", {(r, b + r): 1 for r in range(3)})
              for k, b in offsets.items()]
    algebra = _realified(basis, (1, 0, -1, 1, 1, 0, -1, 1, 0, -1),
                         (0, 1, 0, 0, 0, 1, 0, 0, 1, 0))
    expected = {
        "degree_dims": {-2: 8, -1: 14, 0: 22, 1: 16, 2: 10},
        "degree_1_split": {"U_parts": 8, "W_parts": 4, "s_part": 4},
        "radical_dim": 54,
        "nilradical_dim": 54,
        "levi_simple_dims": [16],
        "center_dim": 4,
        "characteristic_element": "none",
        "has_tilde_s": False,
    }
    provenance = {
        "degree_dims.1": "literature",
        "degree_dims.2": "literature",
        "degree_dims.-1": "literature",
        "degree_dims.-2": "literature",
        "degree_dims.0": "derived",
        "degree_1_split": "derived",
        "radical_dim": "derived",
        "nilradical_dim": "derived",
        "levi_simple_dims": "derived",
        "center_dim": "derived",
        "characteristic_element": "derived",
        "has_tilde_s": "derived",
    }
    return CorpusEntry("example_algebra_a", "algebra", algebra,
                       expected, provenance)


# -- so(8, C) + sl(2, C) ------------------------------------------------------

_O8_DIAG = (1, 1, 1, 0, 0, -1, -1, -1)
_O8_JDIAG = (0, 0, 0, 1, -1, 0, 0, 0)  # times i


# orbit representatives (i, j) of the root vectors of so(8) in the
# antidiagonal-form realization X_{ij} = -X_{9-j, 9-i}
_O8_REPS = [(i, j) for i in range(1, 9) for j in range(1, 9)
            if i != j and i + j != 9 and (i, j) <= (9 - j, 9 - i)]


def o8_sl2_example(shift_choice: str = "double") -> CorpusEntry:
    """Semidirect product of so(8,C) + sl(2,C) with C^8 (x) C^2 and a
    central-acting scaling line T.

    The natural grading element gives the tensor module half-integral
    weights, so an integral convention must be chosen:

    - "double": all degrees doubled; the grading element stays inside
      the semisimple factor (reversal symmetry intact).  Default.
    - "minus-half": shift the module grading by -1/2 of the scaling
      line; degrees stay in -2..2 but the grading element picks up a
      radical component, which kills the reversal symmetry.

    All of it lives in gl(17): so(8) (x) 1 and 1 (x) sl(2) act on
    C^8 (x) C^2 (coordinate 2(a-1) + beta-1 for the pair (a, beta)), T is
    the identity there, and x_{a,beta} is that coordinate's entry of
    column 16.
    """
    if shift_choice not in ("double", "minus-half"):
        raise ValueError(f"unknown shift_choice {shift_choice!r}")
    doubled = shift_choice == "double"

    def tensor(m, s):
        return {(2 * r + p, 2 * c + q): x * y
                for (r, c), x in m.items() for (p, q), y in s.items()}

    one8 = {(a, a): 1 for a in range(8)}
    one2 = {(0, 0): 1, (1, 1): 1}
    # B_ij = E_ij - E_{9-j,9-i} for a root vector, D_t the same with i = j = t
    basis = [(f"B{i}_{j}", tensor({(i - 1, j - 1): 1, (8 - j, 8 - i): -1}, one2))
             for (i, j) in _O8_REPS]
    basis += [(f"D{t}", tensor({(t - 1, t - 1): 1, (8 - t, 8 - t): -1}, one2))
              for t in range(1, 5)]
    basis += [("sl2e", tensor(one8, {(0, 1): 1})),
              ("sl2f", tensor(one8, {(1, 0): 1})),
              ("sl2h", tensor(one8, {(0, 0): 1, (1, 1): -1}))]
    basis += [(f"x{a}_{beta}", {(2 * a + beta - 3, 16): 1})
              for a in range(1, 9) for beta in (1, 2)]
    basis.append(("T", {(k, k): 1 for k in range(16)}))
    # the sl2 weights of beta = 1, 2 are +-1/2, and T acts with J-value 1/2
    half = Fraction(1, 2)
    scale = 2 if doubled else 1
    grading = [scale * (d + w) for d in _O8_DIAG for w in (half, -half)]
    jdiag = [d + w + half for d in _O8_JDIAG for w in (half, -half)]
    algebra = _realified(basis, grading + [0 if doubled else half], jdiag + [0])
    expected = {
        "radical_dim": 34,
        "nilradical_dim": 32,
        "levi_simple_dims": [6, 56],
        "center_dim": 0,
        "characteristic_element": "unique",
        "E_r_zero": doubled,
        "has_tilde_s": doubled,
        "has_s": doubled,
        "s_sufficient": False,
        "kind2_descriptors": [["D", 4, "COMPLEX", ["a3", "a4'"]]],
        "kind1_descriptors": [["A", 1, "COMPLEX", ["a1"]]],
    }
    if doubled:
        expected["degree_dims"] = {-4: 6, -3: 6, -2: 14, -1: 10, 0: 24,
                                   1: 10, 2: 14, 3: 6, 4: 6}
    provenance = {
        "radical_dim": "derived",
        "nilradical_dim": "derived",
        "levi_simple_dims": "derived",
        "center_dim": "derived",
        "characteristic_element": "derived",
        "E_r_zero": "literature" if doubled else "derived",
        "has_tilde_s": "literature" if doubled else "derived",
        "has_s": "literature" if doubled else "derived",
        "s_sufficient": "derived",
        "kind2_descriptors": "derived",
        "kind1_descriptors": "derived",
        "degree_dims": "derived",
    }
    return CorpusEntry(f"o8_sl2_{shift_choice}", "algebra", algebra,
                       expected, provenance)


# -- quadric entries ----------------------------------------------------------

def heisenberg(n: int, signature) -> CorpusEntry:
    """Diagonal k = 1 quadric entry with frozen prolongation dimensions."""
    if n < 1 or len(signature) != n or any(s not in (1, -1) for s in signature):
        raise ValueError("signature must be n entries of +-1")
    h = diagonal_form(list(signature))
    pos = sum(1 for s in signature if s == 1)
    neg = n - pos
    p, q = sorted((pos + 1, neg + 1))
    expected = {
        "m_dims": {-2: 1, -1: 2 * n},
        "prolong_dims": {-2: 1, -1: 2 * n, 0: n * n + 1, 1: 2 * n, 2: 1},
        "total_dim": (n + 2) ** 2 - 1,
        "radical_dim": 0,
        "has_tilde_s": True,
        "has_s": True,
        "s_sufficient": True,
        "kind2_descriptors": [["A", n + 1, "A IV" if p == 1 else "A III",
                               ["a1"], p, q]],
        "kind1_descriptors": [],
    }
    provenance = {
        "m_dims": "derived",
        "prolong_dims": "derived (brute-force oracle, frozen)",
        "total_dim": "derived",
        "radical_dim": "derived",
        "has_tilde_s": "derived",
        "has_s": "derived",
        "s_sufficient": "derived",
        "kind2_descriptors": "derived",
        "kind1_descriptors": "derived",
    }
    sig_tag = "".join("p" if s == 1 else "m" for s in signature)
    return CorpusEntry(f"heisenberg_{n}_{sig_tag}", "quadric", h,
                       expected, provenance)


def counterexample_quadric() -> CorpusEntry:
    """The n=7, k=8 quadric whose positive part outgrows its negative part."""
    h = extract_components(7, COUNTEREXAMPLE_POSITIONS)
    expected = {
        "m_dims": {-2: 8, -1: 14},
        "prolong_dims_lower": {1: 16, 2: 10},
        "prolong_dims": {-2: 8, -1: 14, 0: 28, 1: 16, 2: 10},
        "positive_exceeds_negative": True,
        "radical_dim": 54,
        "nilradical_dim": 50,
        "levi_simple_dims": [6, 16],
        "center_dim": 0,
        "characteristic_element": "unique",
        "E_r_zero": False,
        "has_tilde_s": False,
    }
    provenance = {
        "m_dims": "literature",
        "prolong_dims_lower": "literature",
        "prolong_dims": "derived (frozen from the exact run)",
        "positive_exceeds_negative": "literature",
        "radical_dim": "derived",
        "nilradical_dim": "derived",
        "levi_simple_dims": "derived",
        "center_dim": "derived",
        "characteristic_element": "derived",
        "E_r_zero": "derived",
        "has_tilde_s": "derived",
    }
    return CorpusEntry("counterexample_quadric", "quadric", h,
                       expected, provenance)


# name -> builder of every registered entry, in a fixed order
ENTRIES = {
    "heisenberg_1_p": lambda: heisenberg(1, (1,)),
    "heisenberg_2_pp": lambda: heisenberg(2, (1, 1)),
    "heisenberg_2_pm": lambda: heisenberg(2, (1, -1)),
    "heisenberg_3_ppp": lambda: heisenberg(3, (1, 1, 1)),
    "counterexample_quadric": counterexample_quadric,
    "example_algebra_a": example_algebra_a,
    "o8_sl2_double": lambda: o8_sl2_example("double"),
}


def all_entries():
    """Every registered corpus entry, in a fixed order."""
    return [build() for build in ENTRIES.values()]


def entry_by_name(name: str) -> CorpusEntry:
    """Build the registered entry ``name``; KeyError if there is none."""
    return ENTRIES[name]()


def _descriptors_from_expected(entry):
    kind2 = [FactorDescriptor(*spec[:3], spec[3], *spec[4:])
             for spec in entry.expected.get("kind2_descriptors", [])]
    kind1 = [FactorDescriptor(*spec[:3], spec[3], *spec[4:])
             for spec in entry.expected.get("kind1_descriptors", [])]
    return kind2, kind1


def run_checks(entry: CorpusEntry, deep: bool = False):
    """Evaluate an entry against its expected metadata.

    Returns a list of report checks (``errors.check``); a failed check's
    witness carries the mismatch.  Deep mode adds the prolongation- and
    radical-level checks, and its (S~) and S-sufficiency verdicts read E_r
    and the radical off the computed algebra; shallow mode takes them from
    the expectations.
    """
    checks = []

    def record(name, ok, witness=None):
        checks.append(check(name, ok, witness))

    def compare(name, got, want):
        record(name, got == want, {"got": got, "want": want})

    exp = entry.expected
    if entry.kind == "quadric":
        m, regularity = entry.payload.m_minus_with_checks()
        checks += regularity
        if m is None:
            return checks
        compare("m_dims", m.degree_dims(),
                {int(k): v for k, v in exp["m_dims"].items()})
        record("m_validates", m.validate().ok)
        algebra = None
        if deep:
            result = prolong(m)
            algebra = result.algebra
            compare("prolong_dims", result.degree_dims, exp["prolong_dims"])
            for p, bound in exp.get("prolong_dims_lower", {}).items():
                record(f"prolong_dim_{p}_at_least_{bound}",
                       result.degree_dims.get(int(p), 0) >= bound,
                       {"got": result.degree_dims.get(int(p), 0)})
            if exp.get("positive_exceeds_negative"):
                record("positive_exceeds_negative",
                       result.degree_dims[1] > result.degree_dims[-1]
                       and result.degree_dims[2] > result.degree_dims[-2],
                       {"dims": result.degree_dims})
            checks.append(transitivity_check(result))
    else:
        algebra = entry.payload
        record("validates", algebra.validate().ok)
        if "degree_dims" in exp:
            compare("degree_dims", algebra.degree_dims(), exp["degree_dims"])

    if algebra is not None:
        expected_char = exp.get("characteristic_element")
        if expected_char is not None:
            try:
                algebra.characteristic_element()
                got = "unique"
            except NoCharacteristicElementError:
                got = "none"
            except NotUniqueCharacteristicElementError:
                got = "not_unique"
            compare("characteristic_element", got, expected_char)
        if deep:
            rad = algebra.radical()
            if "radical_dim" in exp:
                compare("radical_dim", rad.dim, exp["radical_dim"])
            if "nilradical_dim" in exp:
                compare("nilradical_dim", algebra.nilradical().dim,
                        exp["nilradical_dim"])
            if "center_dim" in exp:
                compare("center_dim", algebra.center().dim, exp["center_dim"])
            if "levi_simple_dims" in exp or "E_r_zero" in exp \
                    or exp.get("has_tilde_s"):
                dec = algebra.levi_decomposition()
                record("levi_r_is_radical", dec.r.dim == rad.dim)
                nq = dec.s.dim
                record("levi_s_semisimple",
                       elimination.rank(dec.s_algebra.killing_rows(), nq) == nq)
                if "levi_simple_dims" in exp:
                    ideals = algebra.simple_ideals(dec.s)
                    compare("levi_simple_dims",
                            sorted(i.dim for i in ideals),
                            exp["levi_simple_dims"])
                if "E_r_zero" in exp:
                    got = dec.E_r is not None and not dec.E_r
                    compare("E_r_zero", got, exp["E_r_zero"])
                if exp.get("has_tilde_s"):
                    low = algebra.degree_indices(-2)
                    rad_low = [v for v in rad.vectors
                               if any(i in v for i in low)]
                    record("radical_meets_g_minus2_properly",
                           len(rad_low) < len(low),
                           {"rad_low": len(rad_low), "dim": len(low)})
                    record("grading_element_in_levi",
                           dec.E_r is not None and not dec.E_r)

    if "kind2_descriptors" in exp and exp["kind2_descriptors"]:
        kind2, kind1 = _descriptors_from_expected(entry)
        if deep:
            e_r_zero = algebra.grading_element_in_levi()
            semisimple = rad.dim == 0
        else:
            semisimple = exp.get("radical_dim") == 0
            e_r_zero = exp.get("E_r_zero", semisimple)
        compare("tilde_s_verdict", tilde_s_general(kind2, kind1, e_r_zero),
                exp["has_tilde_s"])
        compare("s_sufficient_verdict",
                s_property_sufficient(kind2, kind1, semisimple),
                exp["s_sufficient"])
    return checks
