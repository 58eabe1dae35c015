"""Finite-dimensional graded real Lie algebras given by structure constants.

The algebra is a named basis with integer degrees, a sparse antisymmetric
bracket table over the rationals, and an optional complex structure J on
the degree -1 block.  On top of that sit the classical exact tools:
Killing form, solvable radical, nilpotency series, grading element, a
graded Levi-Malcev decomposition computed by correcting a section along
the derived series of the radical, and the split into simple ideals.

Whether the grading element E lies in a graded Levi factor s (E_r = 0 in
E = E_s + E_r along g = s + r) needs no lifted s: when E is unique,
E_r = 0 exactly when E lies in [g, g].  E_r centralises s, and ad E_r is
semisimple, as ad E and ad E_s are; E in [g, g] = s + [g, r] puts E_r in
the nilradical, so ad E_r is also nilpotent, hence 0, and E_r is central
of degree 0.  The uniqueness of E certifies that the degree-0 centre is
0, so E_r = 0 (``grading_element_in_levi``; N. Jacobson, *Lie Algebras*,
1962, for [g, rad g] inside the nilradical and for Levi factors).

Everything is exact.  The scalars are Python ints, and ``Fraction``s
only where some division left a remainder: the table stores integral
constants as ints, and the results of ``elimination`` come through its
``ratio``.  An element of the algebra has one form, going in and coming
out: a sparse ``{index: value}`` dict of its nonzero coordinates.  That
holds for ``bracket`` and ``ad``, ``Subspace.vectors``, the grading
element and the Levi decomposition's ``E_s`` and ``E_r`` (zero is
``{}``), so ``bracket``, ``ad`` and the echelon spans cost time in
proportion to the nonzero entries, not to the dimension.  The batch
solvers ``kernel_basis``, ``solve`` and ``rank`` take their rows in the
same form and answer with dense lists of unknowns; ``_sparse`` turns a
kernel vector into a dict where one is received.  The Killing form is
kept as sparse rows of such scalars, which the radical, nilradical,
Levi certificate and simple ideals read.  The Killing form is
degree-paired: trace(ad x_i ad x_j) is summed only where
d_i + d_j = 0, since ad x_i ad x_j shifts every degree by d_i + d_j and
so has no diagonal otherwise.  That rests on degree additivity, which is
checked once per algebra; a table that fails it raises rather than
getting a wrong Killing form.  ``validate`` checks Jacobi on every
triple, one pass over the ad-columns per pair, in int arithmetic on the
table scaled by the lcm of its denominators.  Every structural claim an
operation returns is re-verified by membership and rank tests before it
is handed back; a failed certificate raises
``InternalConsistencyError``, which ``python -O`` keeps.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from . import elimination
from .errors import (
    InternalConsistencyError,
    LiftFailedError,
    NilradicalUnsupportedError,
    NoCharacteristicElementError,
    NotUniqueCharacteristicElementError,
)
from .matrices import ExactMatrix
from .scalars import rat_from_str, rat_to_str

Q = Fraction


def _sparse(v):
    """A dense list, such as a kernel vector, as a dict of its nonzero entries."""
    return {k: x for k, x in enumerate(v) if x}


class Subspace:
    """Span of exact vectors, {index: value} dicts, in a parent algebra."""

    def __init__(self, parent, vectors):
        self.parent = parent
        self.vectors = list(vectors)
        self._echelon = None

    @property
    def dim(self):
        return len(self.vectors)

    def _span(self):
        if self._echelon is None:
            self._echelon = elimination.Echelon(self.parent.dim, self.vectors)
        return self._echelon

    def reduce(self, vector):
        """Residual of a vector after reduction against the span."""
        return self._span().reduce(vector)

    def contains(self, vector) -> bool:
        return self._span().contains(vector)

    def __repr__(self):
        return f"Subspace(dim={self.dim})"


def span_basis(vectors, ncols):
    """Reduced row echelon basis of the span of the given vectors."""
    return elimination.Echelon(ncols, vectors).basis


def _combination(coeffs, vectors, base=None):
    """base + sum of c * vectors[t] over the coefficients {t: c}."""
    out = dict(base) if base else {}
    for t, c in coeffs.items():
        for k, x in vectors[t].items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def _exact(c):
    """A rational as an int when it is integral, else as a Fraction."""
    c = Q(c)
    return c.numerator if c.denominator == 1 else c


def _add_ad(out, ci, coef, y):
    """out += coef * [e_i, y], for the ad-column ci of e_i and a sparse y.

    The indices are those of both ci and y, found by walking the shorter,
    so the cost follows the nonzero entries, not the dimension.
    """
    for j in ci.keys() & y.keys():
        c0 = coef * y[j]
        for k, c in ci[j].items():
            out[k] = out.get(k, 0) + c0 * c


class ValidationReport:
    """Outcome of validate(): a certificate or a list of violations."""

    def __init__(self):
        self.violations = []

    @property
    def ok(self):
        return not self.violations

    def add(self, check, detail, **info):
        self.violations.append({"check": check, "detail": detail, **info})

    def __repr__(self):
        status = "certificate" if self.ok else f"{len(self.violations)} violation(s)"
        return f"ValidationReport({status})"


class GradedLieAlgebra:
    """Graded Lie algebra over Q from sparse structure constants.

    ``table`` maps (i, j) with i < j to {k: c} giving [e_i, e_j] = sum c e_k;
    the antisymmetric completion is implied.  ``J`` (optional) is a d x d
    ExactMatrix on the d-dim degree -1 block, in basis order of that
    block; any other shape raises ValueError.
    """

    def __init__(self, names, degrees, table, J=None):
        if len(names) != len(degrees):
            raise ValueError("names/degrees length mismatch")
        for d in degrees:
            if type(d) is not int:
                raise ValueError(f"degree {d!r} is not an integer")
        self.names = list(names)
        self.degrees = list(degrees)
        self.table = {}
        n = len(self.names)
        for (i, j), comp in table.items():
            for x in (i, j, *comp):
                if type(x) is not int or not 0 <= x < n:
                    raise ValueError(f"bracket index {x!r} outside the basis "
                                     f"of dimension {n}")
            if i == j:
                if any(comp.values()):
                    raise ValueError("nonzero [x,x] entry")
                continue
            if i > j:
                i, j, comp = j, i, {k: -c for k, c in comp.items()}
            clean = {k: _exact(c) for k, c in comp.items() if c}
            if clean:
                if (i, j) in self.table:
                    raise ValueError(f"duplicate bracket entry ({i},{j})")
                self.table[(i, j)] = clean
        if J is not None:
            d = self.degrees.count(-1)
            if J.nrows != d or J.ncols != d:
                raise ValueError(f"J is {J.nrows}x{J.ncols}, "
                                 f"degree -1 block has dim {d}")
        self.J = J
        self._cols = None
        self._bad_degrees = None
        self._killing_rows = None
        self._radical = None
        self._radical_series = None
        self._derived = None
        self._quotient = None
        self._char = None

    # -- basic structure ----------------------------------------------

    @property
    def dim(self):
        return len(self.names)

    def degree_indices(self, p):
        return [i for i, d in enumerate(self.degrees) if d == p]

    def degree_dims(self):
        dims = {}
        for d in self.degrees:
            dims[d] = dims.get(d, 0) + 1
        return dict(sorted(dims.items()))

    def bracket_elements(self, i, j):
        """[e_i, e_j] as a sparse {k: coeff} dict (sign handled)."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        comp = self.table.get((j, i))
        if not comp:
            return {}
        return {k: -c for k, c in comp.items()}

    def _columns(self):
        """ad-columns: cols[i][j] = sparse [e_i, e_j] for all i, j."""
        if self._cols is None:
            cols = [{} for _ in range(self.dim)]
            for (i, j), comp in self.table.items():
                cols[i][j] = comp
                cols[j][i] = {k: -c for k, c in comp.items()}
            self._cols = cols
        return self._cols

    def ad(self, i, v):
        """[e_i, v] from the ad-columns, for a vector v {index: value}."""
        out = {}
        _add_ad(out, self._columns()[i], 1, v)
        return {k: x for k, x in out.items() if x}

    def bracket(self, x, y):
        """Bilinear extension of the table to vectors {index: value}."""
        cols = self._columns()
        out = {}
        for i, xi in x.items():
            _add_ad(out, cols[i], xi, y)
        return {k: v for k, v in out.items() if v}

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check degree additivity, Jacobi on all triples, and J^2 = -Id."""
        report = ValidationReport()
        deg = self.degrees
        for i, j, k in self._degree_violations():
            report.add("degree_additivity",
                       f"[{self.names[i]},{self.names[j]}] hits degree "
                       f"{deg[k]} != {deg[i]}+{deg[j]}",
                       triple=(i, j, k))
        triple = self._jacobi_failure()
        if triple is not None:
            i, j, k = triple
            report.add("jacobi",
                       f"Jacobi fails on ({self.names[i]},"
                       f"{self.names[j]},{self.names[k]})",
                       triple=triple)
            return report
        if self.J is not None:
            d = self.J.nrows
            if self.J * self.J != ExactMatrix.identity(d).scale(Q(-1)):
                report.add("J_square", "J^2 != -Id on the degree -1 block")
        return report

    def _degree_violations(self):
        """Table entries (i, j, k) with deg k != deg i + deg j, found once."""
        if self._bad_degrees is None:
            deg = self.degrees
            self._bad_degrees = [(i, j, k) for (i, j), comp in self.table.items()
                                 for k in comp if deg[k] != deg[i] + deg[j]]
        return self._bad_degrees

    def _jacobi_failure(self):
        """The first triple i < j < k, in lexicographic order, failing Jacobi.

        One pass per pair (i, j) sums the three terms of the Jacobi sum
        [e_i, [e_j, e_k]] - [e_j, [e_i, e_k]] - [[e_i, e_j], e_k] for every
        k > j at once, keyed by k * dim + t for the coefficient of e_t;
        the smallest failing k of the first failing pair is reported.
        The sum is quadratic in the structure constants, so it runs on
        the constants times the lcm L of their denominators: the sums
        are L**2 times the true ones, zero at the same places, and ints.
        """
        cols = self._columns()
        n = self.dim
        lcm = 1
        for comp in self.table.values():
            for c in comp.values():
                if type(c) is not int:
                    lcm = lcm // gcd(lcm, c.denominator) * c.denominator
        if lcm != 1:
            cols = [{j: {k: c.numerator * (lcm // c.denominator)
                         for k, c in comp.items()}
                     for j, comp in ci.items()} for ci in cols]
        for i in range(n):
            ci = cols[i]
            for j in range(i + 1, n):
                cj = cols[j]
                acc = {}
                for k, cjk in cj.items():
                    if k > j:
                        base = k * n
                        for m, c in cjk.items():
                            cim = ci.get(m)
                            if cim:
                                for t, c2 in cim.items():
                                    acc[base + t] = acc.get(base + t, 0) + c * c2
                for k, cik in ci.items():
                    if k > j:
                        base = k * n
                        for m, c in cik.items():
                            cjm = cj.get(m)
                            if cjm:
                                for t, c2 in cjm.items():
                                    acc[base + t] = acc.get(base + t, 0) - c * c2
                cij = ci.get(j)
                if cij:
                    for m, c in cij.items():
                        for k, cmk in cols[m].items():
                            if k > j:
                                base = k * n
                                for t, c2 in cmk.items():
                                    acc[base + t] = acc.get(base + t, 0) - c * c2
                failing = [key for key, v in acc.items() if v]
                if failing:
                    return i, j, min(failing) // n
        return None

    # -- Killing form and radical ----------------------------------------

    def killing_rows(self):
        """Sparse rows {j: trace(ad x_i ad x_j)} of the Killing form.

        ad x_i ad x_j raises degrees by d_i + d_j, so its trace vanishes
        unless d_i + d_j = 0, and only those degree-paired entries are
        summed.  That rests on degree additivity: a table that is not
        degree-additive raises ``InternalConsistencyError``.
        """
        if self._killing_rows is not None:
            return self._killing_rows
        bad = self._degree_violations()
        if bad:
            i, j, k = bad[0]
            raise InternalConsistencyError(
                f"Killing form of a table that is not degree-additive: "
                f"[{self.names[i]},{self.names[j]}] hits {self.names[k]}")
        n = self.dim
        deg = self.degrees
        cols = self._columns()
        partners = {d: self.degree_indices(-d) for d in set(deg)}
        rows = [{} for _ in range(n)]
        for i in range(n):
            ci = cols[i]
            for j in partners[deg[i]]:
                if j < i:
                    continue
                s = 0
                for l, col in cols[j].items():
                    # contribution sum_k ad_i[l, k] ad_j[k, l]
                    for k, c in col.items():
                        c2 = ci.get(k, {}).get(l)
                        if c2:
                            s += c * c2
                if s:
                    rows[i][j] = rows[j][i] = _exact(s)
        self._killing_rows = rows
        return rows

    def _killing_apply(self, v):
        """K v as a sparse {j: value} dict for a sparse v (K is symmetric)."""
        rows = self.killing_rows()
        out = {}
        for i, x in v.items():
            for j, k in rows[i].items():
                out[j] = out.get(j, 0) + x * k
        return out

    def _derived_span(self):
        """The span of [g, g] as an ``Echelon``, built once per algebra."""
        if self._derived is None:
            self._derived = elimination.Echelon(self.dim, self.table.values())
        return self._derived

    def derived_subalgebra_basis(self):
        """Echelon basis of [g, g], sparse."""
        return self._derived_span().basis

    def graded_components(self, vectors):
        """Split a graded subspace's spanning set into homogeneous bases.

        Returns vectors sorted by (degree, elimination pivot order);
        raises ``InternalConsistencyError`` if the span is not graded.
        """
        if not vectors:
            return []
        total = elimination.Echelon(self.dim, vectors).rank
        deg = self.degrees
        by_degree = {}
        for v in vectors:
            parts = {}
            for i, x in v.items():
                parts.setdefault(deg[i], {})[i] = x
            for d, part in parts.items():
                by_degree.setdefault(d, []).append(part)
        out = []
        for d in sorted(by_degree):
            out.extend(span_basis(by_degree[d], self.dim))
        if len(out) != total:
            raise InternalConsistencyError("subspace is not graded")
        return out

    def radical(self) -> Subspace:
        """Solvable radical: Killing-orthogonal of the derived algebra.

        Computed once per algebra, like the Killing form; every caller
        gets the same Subspace.  Its derived series, the solvability
        certificate, is kept for ``levi_decomposition``.
        """
        if self._radical is not None:
            return self._radical
        derived = self.derived_subalgebra_basis()
        if derived:
            rows = [self._killing_apply(d) for d in derived]
            basis = elimination.kernel_basis(rows, self.dim)
            rad = Subspace(self, self.graded_components(
                [_sparse(v) for v in basis]))
            self._verify_ideal(rad, "radical")
        else:
            rad = Subspace(self, self.graded_components(
                [{i: 1} for i in range(self.dim)]))
        series = self.derived_series(rad)
        if series[-1].dim != 0:
            raise InternalConsistencyError("radical candidate is not solvable (bug)")
        self._radical = rad
        self._radical_series = series
        return rad

    def _ad_maps_into(self, source: Subspace, target: Subspace) -> bool:
        """Certificate: [e_i, v] lies in target for every e_i and v in source."""
        for i in range(self.dim):
            for v in source.vectors:
                w = self.ad(i, v)
                if w and not target.contains(w):
                    return False
        return True

    def _verify_ideal(self, sub: Subspace, label: str):
        if not self._ad_maps_into(sub, sub):
            raise InternalConsistencyError(f"{label} is not an ideal (bug)")

    def derived_series(self, sub: Subspace):
        """sub, [sub,sub], ... down to 0 (strictly decreasing, 0 included)."""
        return self._bracket_series(
            sub, lambda current: combinations(current.vectors, 2))

    def lower_central_series(self, sub: Subspace):
        """sub, [sub,sub], [[sub,sub],sub], ... strictly decreasing prefix."""
        return self._bracket_series(
            sub, lambda current: product(current.vectors, sub.vectors))

    def _bracket_series(self, sub: Subspace, pairs):
        """sub, then the span of [x, y] over pairs(current), while it shrinks."""
        series = [sub]
        current = sub
        while current.dim:
            brackets = [w for x, y in pairs(current)
                        for w in (self.bracket(x, y),) if w]
            nxt = Subspace(self, span_basis(brackets, self.dim))
            if nxt.dim >= current.dim:
                break
            series.append(nxt)
            current = nxt
        return series

    def nilradical(self) -> Subspace:
        """Largest nilpotent ideal, by a verified heuristic.

        Candidate: radical vectors Killing-orthogonal to the whole algebra.
        Certified to be nilpotent and to contain [g, radical], which makes
        it an ideal; when it is the whole radical, ``radical()`` has
        certified that already.  Raises NilradicalUnsupportedError when
        certification fails.
        """
        rad = self.radical()
        if rad.dim == 0:
            return rad
        # row j: the coefficients t of (K v_t)_j over the radical basis v_t
        per_col = {}
        for t, v in enumerate(rad.vectors):
            for j, s in self._killing_apply(v).items():
                if s:
                    per_col.setdefault(j, {})[t] = s
        rows = [per_col[j] for j in sorted(per_col)]
        coeff_basis = elimination.kernel_basis(rows, rad.dim)
        vectors = [_combination(_sparse(cv), rad.vectors) for cv in coeff_basis]
        nil = Subspace(self, self.graded_components(vectors))
        lcs = self.lower_central_series(nil)
        if nil.dim and (not lcs or lcs[-1].dim != 0):
            raise NilradicalUnsupportedError("candidate is not nilpotent")
        if nil.dim != rad.dim and not self._ad_maps_into(rad, nil):
            raise NilradicalUnsupportedError(
                "[g, radical] is not inside the candidate")
        return nil

    # -- characteristic element -----------------------------------------

    def characteristic_element(self):
        """The unique E in g_0 with [E, x] = p x on each degree-p vector.

        Worked out once per algebra, like the radical: every call returns
        the same {index: value} dict, or raises the same error again.
        """
        if self._char is None:
            try:
                self._char = self._solve_characteristic_element()
            except (NoCharacteristicElementError,
                    NotUniqueCharacteristicElementError) as exc:
                self._char = exc
        if isinstance(self._char, Exception):
            raise self._char.with_traceback(None)
        return self._char

    def _solve_characteristic_element(self):
        zero_idx = self.degree_indices(0)
        nun = len(zero_idx)
        cols = self._columns()
        rows = []  # [A | b], b at column nun
        hom_rows = []  # the coefficient parts A that are nonzero
        for j in range(self.dim):
            per_k = {}
            for pos, i in enumerate(zero_idx):
                for k, c in cols[i].get(j, {}).items():
                    per_k.setdefault(k, {})[pos] = c
            rhs_deg = self.degrees[j]
            touched = set(per_k) | ({j} if rhs_deg else set())
            for k in sorted(touched):
                coeffs = per_k.get(k, {})
                rows.append({**coeffs, nun: rhs_deg if k == j else 0})
                if coeffs:
                    hom_rows.append(coeffs)
        if nun == 0:
            if any(self.degrees):
                raise NoCharacteristicElementError("degree-0 part is zero")
            return {}
        sol = elimination.solve(rows, nun + 1, nun)
        if sol is None:
            raise NoCharacteristicElementError("grading is not inner")
        ambiguity = elimination.kernel_basis(hom_rows, nun)
        if ambiguity:
            raise NotUniqueCharacteristicElementError(len(ambiguity))
        e = {i: sol[pos] for pos, i in enumerate(zero_idx) if sol[pos]}
        for j, d in enumerate(self.degrees):
            # [e_j, E] = -p e_j on degree p
            if self.ad(j, e) != ({j: -d} if d else {}):
                raise InternalConsistencyError(
                    "characteristic element verification failed")
        return e

    def center(self) -> Subspace:
        cols = self._columns()
        per = {}
        for i in range(self.dim):
            for j, comp in cols[i].items():
                for k, c in comp.items():
                    per.setdefault((j, k), {})[i] = c
        rows = [per[key] for key in sorted(per)]
        basis = elimination.kernel_basis(rows, self.dim)
        return Subspace(self, [_sparse(v) for v in basis])

    # -- subalgebra extraction ------------------------------------------

    def subalgebra(self, vectors):
        """Structure constants of a bracket-closed homogeneous span.

        Returns (GradedLieAlgebra, vectors); vector i of the result's
        basis is ``vectors[i]`` in the parent's coordinates.
        """
        vecs = list(vectors)
        d = len(vecs)
        degs = []
        for v in vecs:
            present = {self.degrees[i] for i in v}
            if len(present) != 1:
                raise ValueError("subalgebra basis vector is not homogeneous")
            degs.append(present.pop())
        span = elimination.Echelon(self.dim, vecs)
        if span.rank != d:
            raise ValueError("subalgebra basis is not linearly independent")
        table = {}
        for a in range(d):
            for b in range(a + 1, d):
                w = self.bracket(vecs[a], vecs[b])
                if not w:
                    continue
                coords = span.coords(w)
                if coords is None:
                    raise ValueError("span is not bracket-closed")
                table[(a, b)] = coords
        names = [f"v{a}" for a in range(d)]
        return GradedLieAlgebra(names, degs, table), vecs

    # -- Levi decomposition ----------------------------------------------

    def _levi_quotient(self):
        """g / radical on complement units: (units, q_coords, factor algebra).

        The units are basis vectors, taken in degree order, that complete
        the radical's basis; ``q_coords`` gives a vector's coordinates on
        them modulo the radical, and the factor algebra is g / radical in
        those coordinates.  Its Killing form is certified nondegenerate,
        so g / radical is semisimple.  Worked out once per algebra.
        """
        if self._quotient is not None:
            return self._quotient
        rad = self.radical()
        n = self.dim
        complement_idx = []
        q_of_slot = {}
        basis = elimination.Echelon(n, rad.vectors)
        for slot, i in enumerate(sorted(range(n), key=lambda i: self.degrees[i]),
                                 rad.dim):
            if basis.add({i: 1}):
                q_of_slot[slot] = len(complement_idx)
                complement_idx.append(i)
        nq = len(complement_idx)
        if nq + rad.dim != n:
            raise InternalConsistencyError("complement units do not complete the radical")

        def q_coords(vec):
            return {q_of_slot[k]: c for k, c in basis.coords(vec).items()
                    if k in q_of_slot}

        q_table = {}
        for a, i in enumerate(complement_idx):
            for b in range(a + 1, nq):
                comp = q_coords(self.ad(i, {complement_idx[b]: 1}))
                if comp:
                    q_table[(a, b)] = comp
        s_alg = GradedLieAlgebra([f"s{a}" for a in range(nq)],
                                 [self.degrees[i] for i in complement_idx], q_table)
        if elimination.rank(s_alg.killing_rows(), nq) != nq:
            raise LiftFailedError("Levi factor has degenerate Killing form (bug)")
        self._quotient = (complement_idx, q_coords, s_alg)
        return self._quotient

    def grading_element_in_levi(self) -> bool:
        """Whether E lies in a graded Levi factor s, that is E_r = 0.

        Decided without lifting s.  Write E = E_s + E_r along g = s + r.
        Then E_r = 0 if and only if E lies in [g, g], for every graded
        Levi factor s:

        - E_r centralises s: for x in s, [E_r, x] = [E, x] - [E_s, x]
          lies in s and in the ideal r, so it is 0.
        - ad_s E_s is the degree operator of s, so ad E_s is semisimple;
          it commutes with the diagonal ad E, so ad E_r is semisimple.
        - If E is in [g, g] = s + [g, r], then E_r is in [g, r], which
          lies in the nilradical, so ad E_r is also nilpotent: ad E_r = 0.
        - A central element has degree 0, and the degree-0 centre is the
          ambiguity of the grading element, which ``characteristic_element``
          has certified to be 0 (E is unique).  So E_r = 0.
        - Conversely E_r = 0 puts E in s, inside [g, g].

        The facts used are certified: E and its uniqueness, the radical
        (ideal and solvable), g / radical semisimple (``_levi_quotient``),
        and the membership of E in the span of [g, g].  Raises the error
        of ``characteristic_element`` when E is missing or not unique.
        """
        e = self.characteristic_element()
        self._levi_quotient()  # the certificate that g / radical is semisimple
        return self._derived_span().contains(e)

    def levi_decomposition(self):
        """Graded Levi-Malcev decomposition; see LeviDecomposition.

        The section of g / radical (``_levi_quotient``) is corrected along
        the derived series of the radical until it is a subalgebra.
        """
        rad = self.radical()
        complement_idx, q_coords, s_alg = self._levi_quotient()
        nq = s_alg.dim
        q_deg = s_alg.degrees
        sigma = [{i: 1} for i in complement_idx]

        def defects():
            out = {}
            for a in range(nq):
                for b in range(a + 1, nq):
                    delta = _combination(
                        {c: -x for c, x in s_alg.bracket_elements(a, b).items()},
                        sigma, self.bracket(sigma[a], sigma[b]))
                    if delta:
                        out[(a, b)] = delta
            return out

        chain = self._radical_series + [Subspace(self, [])]
        stage = 0
        delta = defects()
        while delta:
            if stage + 1 >= len(chain):
                raise LiftFailedError("defect survived past the derived series")
            level = chain[stage]
            nxt = chain[stage + 1]
            for d in delta.values():
                if not level.contains(d):
                    raise InternalConsistencyError("defect escaped the expected ideal")
            # unknown phi maps q-basis a into the degree-matching part of level
            slots = []
            slot_index = {}
            level_degree = []
            for w in level.vectors:
                wd = {self.degrees[i] for i in w}
                if len(wd) != 1:
                    raise InternalConsistencyError(
                        "radical layer vector is not homogeneous")
                level_degree.append(wd.pop())
            for a in range(nq):
                for m in range(level.dim):
                    if level_degree[m] == q_deg[a]:
                        slot_index[(a, m)] = len(slots)
                        slots.append((a, m))
            rows = []
            bcol = len(slots)
            # reductions mod the next derived ideal
            level_red = [nxt.reduce(w) for w in level.vectors]
            sig_red = {}
            for a in range(nq):
                for m, w in enumerate(level.vectors):
                    red = nxt.reduce(self.bracket(sigma[a], w))
                    if red:
                        sig_red[(a, m)] = red

            # rows for every pair, not only the defective ones: phi must
            # not create a defect where there was none
            pairs = [(a, b) for a in range(nq) for b in range(a + 1, nq)]
            for a, b in pairs:
                per_coord = {}

                def accumulate(slot, sparse_vec, sign):
                    for t, x in sparse_vec.items():
                        d = per_coord.setdefault(t, {})
                        d[slot] = d.get(slot, 0) + sign * x

                for c, val in s_alg.bracket_elements(a, b).items():
                    for m in range(level.dim):
                        slot = slot_index.get((c, m))
                        if slot is not None and level_red[m]:
                            accumulate(slot, {t: val * x
                                              for t, x in level_red[m].items()},
                                       1)
                for m in range(level.dim):
                    slot = slot_index.get((b, m))
                    if slot is not None and (a, m) in sig_red:
                        accumulate(slot, sig_red[(a, m)], -1)
                    slot = slot_index.get((a, m))
                    if slot is not None and (b, m) in sig_red:
                        accumulate(slot, sig_red[(b, m)], 1)
                dvec = delta.get((a, b))
                rhs_red = nxt.reduce(dvec) if dvec else {}
                for t in sorted(per_coord.keys() | rhs_red.keys()):
                    row = {**per_coord.get(t, {}), bcol: rhs_red.get(t, 0)}
                    if any(row.values()):
                        rows.append(row)
            sol = elimination.solve(rows, bcol + 1, bcol)
            if sol is None:
                raise LiftFailedError(f"correction system inconsistent at stage {stage}")
            phi = {}
            for (a, m), slot in slot_index.items():
                if sol[slot]:
                    phi.setdefault(a, {})[m] = sol[slot]
            for a, coeffs in phi.items():
                sigma[a] = _combination(coeffs, level.vectors, sigma[a])
            stage += 1
            delta = defects()

        s_sub = Subspace(self, sigma)
        try:
            e = self.characteristic_element()
        except (NoCharacteristicElementError, NotUniqueCharacteristicElementError):
            return LeviDecomposition(s_sub, rad, None, None, s_alg)
        e_s = _combination(q_coords(e), sigma)
        e_r = _combination({0: 1, 1: -1}, [e, e_s])
        if not rad.contains(e_r):
            raise InternalConsistencyError("E_r is not in the radical")
        if (not e_r) != self.grading_element_in_levi():
            raise InternalConsistencyError(
                "E_r disagrees with the [g, g] membership of E")
        return LeviDecomposition(s_sub, rad, e_s, e_r, s_alg)

    def simple_ideals(self, sub: Subspace):
        """Split a semisimple subalgebra into its simple ideals."""
        result = []
        self._split_simple(sub.vectors, result)
        return [Subspace(self, vecs) for vecs in result]

    def _split_simple(self, vectors, out):
        alg, vecs = self.subalgebra(self.graded_components(vectors))
        d = alg.dim
        if d == 0:
            return
        for t in range(d):
            ideal = _ideal_closure(alg, t)
            di = len(ideal)
            if di == d:
                continue
            rows = [alg._killing_apply(v) for v in ideal]
            comp = elimination.kernel_basis(rows, d)
            if len(comp) + di != d:
                raise InternalConsistencyError("Killing complement has wrong dimension")
            for part in (ideal, [_sparse(cv) for cv in comp]):
                self._split_simple([_combination(cv, vecs) for cv in part], out)
            return
        out.append(vecs)

    def change_basis(self, p: ExactMatrix) -> "GradedLieAlgebra":
        """Algebra in the new basis whose j-th vector is column j of p.

        Columns must be degree-homogeneous; names are kept positional.
        """
        n = self.dim
        if p.nrows != n or p.ncols != n:
            raise ValueError("basis change must be square of matching size")
        cols = [{i: _exact(x) for i, x in enumerate(p.col(j)) if x}
                for j in range(n)]
        new_basis = elimination.Echelon(n, cols)
        if new_basis.rank != n:
            raise ValueError("matrix is singular")
        new_deg = []
        for col in cols:
            present = {self.degrees[i] for i in col}
            if len(present) != 1:
                raise ValueError("basis-change column is not degree-homogeneous")
            new_deg.append(present.pop())
        table = {}
        for a in range(n):
            for b in range(a + 1, n):
                w = self.bracket(cols[a], cols[b])
                if w:
                    table[(a, b)] = new_basis.coords(w)
        jmat = None
        if self.J is not None:
            # J transforms by restriction of the change to the degree -1 block
            block = self.degree_indices(-1)
            new_block = [j for j, d in enumerate(new_deg) if d == -1]
            if sorted(block) != sorted(new_block):
                raise ValueError("degree -1 block changed position")
            sub = ExactMatrix.from_rows(
                [[p.entry(i, j) for j in new_block] for i in block])
            # sub is invertible, a diagonal block of the invertible p
            jsub = self.J * sub
            jmat = ExactMatrix.from_rows([sub.solve(jsub.col(j))
                                          for j in range(jsub.ncols)]).transpose()
        return GradedLieAlgebra(list(self.names), new_deg, table, jmat)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        entries = []
        for (i, j) in sorted(self.table):
            for k in sorted(self.table[(i, j)]):
                entries.append([i, j, k, rat_to_str(self.table[(i, j)][k])])
        jblock = None
        if self.J is not None:
            jblock = {"rows": self.J.nrows,
                      "entries": [rat_to_str(x) for x in self.J.entries]}
        return {"basis": list(self.names), "degrees": list(self.degrees),
                "brackets": entries, "J": jblock}

    @classmethod
    def from_json(cls, obj):
        table = {}
        for i, j, k, c in obj["brackets"]:
            comp = table.setdefault((i, j), {})
            if k in comp:
                raise ValueError(f"duplicate bracket entry ({i},{j},{k})")
            comp[k] = rat_from_str(c)
        jmat = None
        if obj.get("J") is not None:
            r = obj["J"]["rows"]
            entries = [rat_from_str(x) for x in obj["J"]["entries"]]
            jmat = ExactMatrix(r, len(entries) // r if r else 0, entries)
        return cls(obj["basis"], obj["degrees"], table, jmat)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        return f"GradedLieAlgebra(dim={self.dim}, degrees={self.degree_dims()})"


class LeviDecomposition:
    """g = s + r with s a graded semisimple subalgebra, r the radical.

    s is 0 when g is solvable; then E_s is 0 and E_r is all of E.
    """

    def __init__(self, s, r, e_s, e_r, s_algebra):
        self.s = s
        self.r = r
        self.E_s = e_s
        self.E_r = e_r
        self.s_algebra = s_algebra

    def __repr__(self):
        return f"LeviDecomposition(s_dim={self.s.dim}, r_dim={self.r.dim})"


def _ideal_closure(alg: GradedLieAlgebra, t: int):
    """Echelon basis of the smallest ideal containing basis vector t.

    Worklist closure: only vectors that enlarged the span are bracketed
    with the basis, and the search stops once the span is everything.
    """
    n = alg.dim
    span = elimination.Echelon(n)
    work = [{t: 1}]
    span.add(work[0])
    while work and span.rank < n:
        v = work.pop()
        for i in range(n):
            w = alg.ad(i, v)
            if w and span.add(w):
                work.append(w)
    return span.basis
