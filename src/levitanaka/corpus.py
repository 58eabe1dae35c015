"""Programmatic builders for the worked examples, with expected metadata.

Each entry carries ground-truth values for the test suites, with a
provenance tag per value: "literature" for numbers quoted from the
source material, "derived" for values established by independent
computation (brute-force oracle, construction bookkeeping) and then
frozen as regression goldens.

The two large algebras are complex Lie algebras realified over Q: the
builder below takes complex structure constants (Gaussian rationals)
and emits the real graded algebra, doubling each basis line into
(x, ix) and translating multiplication-by-i data into the J block.
"""

from __future__ import annotations

from fractions import Fraction

from . import elimination
from .classify import FactorDescriptor, tilde_s_general
from .errors import (
    InternalConsistencyError,
    NoCharacteristicElementError,
    NotUniqueCharacteristicElementError,
)
from .graded import GradedLieAlgebra
from .involution import s_property_sufficient
from .matrices import ExactMatrix
from .prolongation import prolong, transitivity_check
from .quadric import HermitianFormSystem, diagonal_form, extract_components
from .scalars import GaussRational

Q = Fraction

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


class ComplexAlgebraBuilder:
    """Realification of a complex Lie algebra given by structure constants.

    Basis lines are added with a degree and, for degree -1 lines, the
    multiplication-by-i eigenvalue of the CR structure (+1 for J = i,
    -1 for J = -i).  Brackets are complex-bilinear with GaussRational
    coefficients.  realify() emits the real algebra with basis
    (x, ix) per line and the induced J block.
    """

    def __init__(self):
        self.names = []
        self.degrees = []
        self.j_signs = {}
        self.index = {}
        self.brackets = {}

    def add(self, name, degree, j_sign=None):
        if name in self.index:
            raise ValueError(f"duplicate basis name {name}")
        self.index[name] = len(self.names)
        self.names.append(name)
        self.degrees.append(degree)
        if j_sign is not None:
            if degree != -1:
                raise ValueError("J data only lives on degree -1 lines")
            self.j_signs[name] = j_sign
        return name

    def set_bracket(self, x, y, components):
        """[x, y] = sum of coeff * z over components {z: GaussRational}."""
        i, j = self.index[x], self.index[y]
        if i == j:
            raise ValueError("[x, x] must vanish")
        if i > j:
            i, j = j, i
            components = {z: -c for z, c in components.items()}
        clean = {}
        for z, c in components.items():
            c = c if isinstance(c, GaussRational) else GaussRational(c)
            if c:
                clean[self.index[z]] = c
        if clean:
            if (i, j) in self.brackets:
                raise ValueError(f"bracket ({i},{j}) set twice")
            self.brackets[(i, j)] = clean

    def realify(self) -> GradedLieAlgebra:
        names = []
        degrees = []
        for name, deg in zip(self.names, self.degrees):
            names.append(name)
            names.append(f"i{name}")
            degrees.append(deg)
            degrees.append(deg)
        # set_bracket keeps each pair once with i < j, so the four real
        # keys below are ordered and distinct; GradedLieAlgebra drops zeros
        table = {}
        for (i, j), comp in self.brackets.items():
            re_part = {2 * z: c.re for z, c in comp.items()}
            re_part.update({2 * z + 1: c.im for z, c in comp.items()})
            im_part = {2 * z: -c.im for z, c in comp.items()}
            im_part.update({2 * z + 1: c.re for z, c in comp.items()})
            table[(2 * i, 2 * j)] = re_part
            table[(2 * i, 2 * j + 1)] = im_part
            table[(2 * i + 1, 2 * j)] = im_part
            table[(2 * i + 1, 2 * j + 1)] = {k: -c for k, c in re_part.items()}
        block = [t for t, d in enumerate(degrees) if d == -1]
        jmat = None
        if self.j_signs:
            pos = {g: t for t, g in enumerate(block)}
            rows = [[Q(0)] * len(block) for _ in range(len(block))]
            for name, sign in self.j_signs.items():
                i = self.index[name]
                # J(x) = sign * ix, J(ix) = -sign * x
                rows[pos[2 * i + 1]][pos[2 * i]] = Q(sign)
                rows[pos[2 * i]][pos[2 * i + 1]] = Q(-sign)
            jmat = ExactMatrix.from_rows(rows)
        return GradedLieAlgebra(names, degrees, table, jmat)


# -- sl(3, C) helpers ---------------------------------------------------------

_SL3_BASIS = ("E12", "E13", "E23", "E21", "E31", "E32", "H1", "H2")
_SL3_MATRICES = {
    "E12": [(0, 1)], "E13": [(0, 2)], "E23": [(1, 2)],
    "E21": [(1, 0)], "E31": [(2, 0)], "E32": [(2, 1)],
}


def _sl3_matrix(name):
    m = [[0] * 3 for _ in range(3)]
    if name == "H1":
        m[0][0], m[1][1] = 1, -1
    elif name == "H2":
        m[1][1], m[2][2] = 1, -1
    else:
        for (r, c) in _SL3_MATRICES[name]:
            m[r][c] = 1
    return m


def _sl3_decompose(m):
    """gl(3) matrix -> (sl3 coefficients, trace/3); diag = a H1 + b H2."""
    coeffs = {}
    tr = Q(m[0][0] + m[1][1] + m[2][2], 3)
    d = [m[0][0] - tr, m[1][1] - tr, m[2][2] - tr]
    if d[0]:
        coeffs["H1"] = Q(d[0])
    if d[0] + d[1]:
        coeffs["H2"] = Q(d[0] + d[1])
    for name, pos in _SL3_MATRICES.items():
        (r, c) = pos[0]
        if m[r][c]:
            coeffs[name] = Q(m[r][c])
    return coeffs, tr


def _commutator(a, b):
    """ab - ba; basis matrices have one or two nonzero entries, so only
    the nonzero entries of a and b are multiplied out."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i in range(n):
            for k in range(n):
                if x[i][k]:
                    for j in range(n):
                        out[i][j] += sign * x[i][k] * y[k][j]
    return out


def example_algebra_a() -> CorpusEntry:
    """The 70-dimensional graded algebra behind the n=7, k=8 example.

    sl(3, C) with its kind-2 grading acts on the standard module V, two
    dual copies W^1, W^2 (shifted so their degrees are 0..2), and two
    adjoint copies U^1, U^2; products of V with W^k land in U^k plus a
    trace line c_k.  W, U and the trace lines commute with everything
    inside the radical, so the radical is 2-step nilpotent and the two
    trace lines are central: the grading of this algebra is not inner.
    """
    b = ComplexAlgebraBuilder()
    s_degrees = {"E12": 1, "E13": 2, "E23": 1, "E21": -1, "E31": -2,
                 "E32": -1, "H1": 0, "H2": 0}
    s_jsign = {"E21": 1, "E32": -1}
    for name in _SL3_BASIS:
        b.add(name, s_degrees[name], s_jsign.get(name))
    for r in range(3):
        b.add(f"v{r+1}", -r, 1 if r == 1 else None)
    for k in (1, 2):
        for r in range(3):
            b.add(f"w{k}_{r+1}", r)
    for k in (1, 2):
        for name in _SL3_BASIS:
            b.add(f"u{k}_{name}", s_degrees[name],
                  s_jsign.get(name) if s_degrees[name] == -1 else None)
    b.add("c1", 0)
    b.add("c2", 0)

    mats = {name: _sl3_matrix(name) for name in _SL3_BASIS}
    # [s, s] once per unordered pair, and s acting on both adjoint copies
    for i, x in enumerate(_SL3_BASIS):
        for j, y in enumerate(_SL3_BASIS):
            if i == j:
                continue
            coeffs, tr = _sl3_decompose(_commutator(mats[x], mats[y]))
            if tr != 0:
                raise InternalConsistencyError(f"sl3 commutator has trace {tr}")
            if not coeffs:
                continue
            if i < j:
                b.set_bracket(x, y, {z: GaussRational(c) for z, c in coeffs.items()})
            for k in (1, 2):
                b.set_bracket(x, f"u{k}_{y}",
                              {f"u{k}_{z}": GaussRational(c)
                               for z, c in coeffs.items()})
    # standard module and its duals
    for x in _SL3_BASIS:
        m = mats[x]
        for r in range(3):
            col = {f"v{s+1}": GaussRational(m[s][r]) for s in range(3) if m[s][r]}
            if col:
                b.set_bracket(x, f"v{r+1}", col)
            for k in (1, 2):
                row = {f"w{k}_{s+1}": GaussRational(-m[r][s])
                       for s in range(3) if m[r][s]}
                if row:
                    b.set_bracket(x, f"w{k}_{r+1}", row)
    # V x W^k -> U^k + C_k via the rank-one matrix E_{rs}
    for k in (1, 2):
        for r in range(3):
            for s in range(3):
                e = [[int(rr == r and cc == s) for cc in range(3)]
                     for rr in range(3)]
                coeffs, tr = _sl3_decompose(e)
                comp = {f"u{k}_{z}": GaussRational(c) for z, c in coeffs.items()}
                if tr:
                    comp[f"c{k}"] = GaussRational(tr)
                b.set_bracket(f"v{r+1}", f"w{k}_{s+1}", comp)
    algebra = b.realify()
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


def _o8_matrix(rep):
    i, j = rep
    m = [[0] * 8 for _ in range(8)]
    m[i - 1][j - 1] = 1
    m[8 - j][8 - i] = -1
    return m


def _o8_diag_matrix(t):
    m = [[0] * 8 for _ in range(8)]
    m[t - 1][t - 1] = 1
    m[8 - t][8 - t] = -1
    return m


def _o8_decompose(m):
    """so(8) matrix -> coefficients on the orbit/diagonal basis."""
    coeffs = {}
    for t in range(1, 5):
        if m[t - 1][t - 1]:
            coeffs[f"D{t}"] = Q(m[t - 1][t - 1])
    for (i, j) in _O8_REPS:
        if m[i - 1][j - 1]:
            coeffs[f"B{i}_{j}"] = Q(m[i - 1][j - 1])
    return coeffs


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
    """
    if shift_choice not in ("double", "minus-half"):
        raise ValueError(f"unknown shift_choice {shift_choice!r}")
    doubled = shift_choice == "double"
    b = ComplexAlgebraBuilder()
    o8_names = [f"B{i}_{j}" for (i, j) in _O8_REPS] + \
        [f"D{t}" for t in range(1, 5)]
    o8_mats = {f"B{i}_{j}": _o8_matrix((i, j)) for (i, j) in _O8_REPS}
    o8_mats.update({f"D{t}": _o8_diag_matrix(t) for t in range(1, 5)})

    def o8_eigenvalue(name, diag):
        # ad(diag d) eigenvalue: d_i - d_j on the support entry
        m = o8_mats[name]
        for i in range(8):
            for j in range(8):
                if m[i][j] and i != j:
                    return diag[i] - diag[j]
        return 0

    scale = 2 if doubled else 1
    v_shift = Q(0) if doubled else Q(-1, 2)

    def v_degree(a, beta):
        sl2_weight = Q(1, 2) if beta == 1 else Q(-1, 2)
        deg = scale * (Q(_O8_DIAG[a - 1]) + sl2_weight + v_shift)
        if deg.denominator != 1:
            raise InternalConsistencyError(
                f"non-integral degree {deg} on x{a}_{beta}")
        return int(deg)

    def v_jvalue(a, beta):
        sl2_j = Q(1, 2) if beta == 1 else Q(-1, 2)
        # T acts on the module with J-value 1/2
        return Q(_O8_JDIAG[a - 1]) + sl2_j + Q(1, 2)

    for name in o8_names:
        deg = scale * o8_eigenvalue(name, _O8_DIAG)
        jsign = None
        if deg == -1:
            jsign = o8_eigenvalue(name, _O8_JDIAG)
            if jsign not in (1, -1):
                raise InternalConsistencyError(f"bad J eigenvalue {jsign} on {name}")
        b.add(name, deg, jsign)
    b.add("sl2e", scale * 1)
    b.add("sl2f", scale * -1, -1 if scale == 1 else None)
    b.add("sl2h", 0)
    for a in range(1, 9):
        for beta in (1, 2):
            deg = v_degree(a, beta)
            jsign = None
            if deg == -1:
                jv = v_jvalue(a, beta)
                if jv not in (1, -1):
                    raise InternalConsistencyError(
                        f"bad J eigenvalue {jv} on x{a}_{beta}")
                jsign = int(jv)
            b.add(f"x{a}_{beta}", deg, jsign)
    b.add("T", 0)

    # so(8) internal brackets
    for i, x in enumerate(o8_names):
        for y in o8_names[i + 1:]:
            coeffs = _o8_decompose(_commutator(o8_mats[x], o8_mats[y]))
            if coeffs:
                b.set_bracket(x, y, {z: GaussRational(c)
                                     for z, c in coeffs.items()})
    # sl2 internal
    b.set_bracket("sl2h", "sl2e", {"sl2e": GaussRational(2)})
    b.set_bracket("sl2h", "sl2f", {"sl2f": GaussRational(-2)})
    b.set_bracket("sl2e", "sl2f", {"sl2h": GaussRational(1)})
    # module actions
    for name in o8_names:
        m = o8_mats[name]
        for a in range(1, 9):
            for beta in (1, 2):
                comp = {f"x{c+1}_{beta}": GaussRational(m[c][a - 1])
                        for c in range(8) if m[c][a - 1]}
                if comp:
                    b.set_bracket(name, f"x{a}_{beta}", comp)
    for a in range(1, 9):
        # e: y_2 -> y_1, f: y_1 -> y_2, h: diag(1, -1)
        b.set_bracket("sl2e", f"x{a}_2", {f"x{a}_1": GaussRational(1)})
        b.set_bracket("sl2f", f"x{a}_1", {f"x{a}_2": GaussRational(1)})
        b.set_bracket("sl2h", f"x{a}_1", {f"x{a}_1": GaussRational(1)})
        b.set_bracket("sl2h", f"x{a}_2", {f"x{a}_2": GaussRational(-1)})
        for beta in (1, 2):
            b.set_bracket("T", f"x{a}_{beta}", {f"x{a}_{beta}": GaussRational(1)})
    algebra = b.realify()
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

    Returns a list of {"name", "status", "witness"} dicts; "witness" is
    null on success and carries the mismatch on failure.  Deep mode adds
    the prolongation- and radical-level checks, and its (S~) and
    S-sufficiency verdicts read E_r and the radical off the computed
    algebra; shallow mode takes them from the expectations.
    """
    checks = []

    def record(name, ok, witness=None):
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "witness": None if ok else witness})

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
            record("transitivity", transitivity_check(result).ok)
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
