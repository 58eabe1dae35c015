"""Finite-dimensional graded real Lie algebras given by structure constants.

The algebra is a named basis with integer degrees, a sparse antisymmetric
bracket table over the rationals, and an optional complex structure J on
the degree -1 block.  On top of that sit the classical exact tools:
Killing form, solvable radical, nilpotency series, grading element, a
graded Levi-Malcev decomposition computed by correcting a section along
the derived series of the radical, and the split into simple ideals.
Every derived algebra, a subalgebra, the same algebra in a new basis
(J included) or g / radical, is read off one ``Echelon`` by
``_restricted``: the structure constants of a span and the coordinates
of a vector on its basis modulo an ideal.  A graded span is split into
degrees by one elimination too (``graded_components``).

Whether the grading element E lies in a graded Levi factor s (E_r = 0 in
E = E_s + E_r along g = s + r) needs no lifted s: when E is unique,
E_r = 0 exactly when E lies in [g, g].  E_r centralises s, and ad E_r is
semisimple, as ad E and ad E_s are; E in [g, g] = s + [g, r] puts E_r in
the nilradical, so ad E_r is also nilpotent, hence 0, and E_r is central
of degree 0.  The uniqueness of E certifies that the degree-0 centre is
0, so E_r = 0 (``grading_element_in_levi``; N. Jacobson, *Lie Algebras*,
1962, for [g, rad g] inside the nilradical and for Levi factors).

Everything is exact.  The scalars are Python ints, and ``Fraction``s
only where some division left a remainder: the table stores its
constants through ``scalars.exact``, and divisions go through
``scalars.ratio``.  An element of the algebra has one form, going in and
coming out: a sparse ``{index: value}`` dict of its nonzero coordinates.
That holds for ``bracket`` and ``ad``, ``Subspace.vectors``, the grading
element and the Levi decomposition's ``E_s`` and ``E_r`` (zero is
``{}``), so ``bracket``, ``ad`` and the echelon spans cost time in
proportion to the nonzero entries, not to the dimension.  Every linear
system on such vectors, the centre, the grading element, the radical,
the nilradical and the Levi correction, gets its rows from
``elimination.coefficient_rows``; the batch solvers answer with dense
lists of unknowns, which ``_sparse`` turns into dicts.  The centre and
the faithful degrees share one kernel per degree (``_commutant``).  The
Killing form is kept as sparse rows of such scalars, which the radical,
nilradical, Levi certificate and simple ideals read.  The Killing form is
degree-paired: trace(ad x_i ad x_j) is summed only where
d_i + d_j = 0, since ad x_i ad x_j shifts every degree by d_i + d_j and
so has no diagonal otherwise.  That rests on degree additivity, which is
checked once per algebra; a table that fails it raises rather than
getting a wrong Killing form.  ``validate`` checks Jacobi one pass over
the ad-columns per pair, in int arithmetic on the table scaled by the
lcm of its denominators, and only where faithfulness to g_-1 cannot
prove it.  Call a degree D faithful when y in g_D and [y, g_-1] = 0 force
y = 0 (``unfaithful_degrees``).  For a degree-additive antisymmetric
bracket whose Jacobiator J vanishes on every triple that meets g_-1 and
on every triple of unfaithful total degree, J vanishes: with x in g_-1,
[x, J(a, b, c)] is a sum of Jacobiators of total degree one less, so by
induction on the total degree J(a, b, c) is killed by g_-1 and is 0 in a
faithful degree (proof in ``validate``).  Every structural claim an
operation returns is re-verified by membership and rank tests before it
is handed back; a failed certificate raises ``InternalConsistencyError``
through ``errors.certify``, which ``python -O`` keeps.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import combinations, product
from math import gcd

from . import elimination
from .errors import (
    InputError,
    NilradicalUnsupportedError,
    NoCharacteristicElementError,
    NotUniqueCharacteristicElementError,
    certify,
    json_field,
)
from .matrices import ExactMatrix
from .scalars import exact, rat_from_str, rat_to_str, ratio


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


def _combination(coeffs, vectors, base=None):
    """base + sum of c * vectors[t] over the coefficients {t: c}."""
    out = dict(base) if base else {}
    for t, c in coeffs.items():
        for k, x in vectors[t].items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def _json_rational(x, field):
    """A rational read from JSON, such as "p/q"; an error names the field."""
    try:
        return rat_from_str(x)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field {field}: {exc}") from None


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
            clean = {k: exact(c) for k, c in comp.items() if c}
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
        self._j_columns = None
        self._unfaithful = None
        self._cols = None
        self._bad_degrees = None
        self._killing_rows = None
        self._radical = None
        self._radical_series = None
        self._radical_ends = None
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
        """Check degree additivity, Jacobi and J^2 = -Id.

        Jacobi is scanned only where faithfulness to g_-1 cannot prove it
        (``unfaithful_degrees``): on the triples that meet g_-1 and on those
        whose total degree is unfaithful.  For a degree-additive bracket
        that certifies every triple.  Write J(a, b, c) for the Jacobiator
        [a, [b, c]] + [b, [c, a]] + [c, [a, b]].  Every antisymmetric
        bracket satisfies

            [a, J(b,c,d)] - [b, J(a,c,d)] + [c, J(a,b,d)] - [d, J(a,b,c)]
              = J([a,b],c,d) - J([a,c],b,d) + J([a,d],b,c)
                + J([b,c],a,d) - J([b,d],a,c) + J([c,d],a,b).

        Put d = x in g_-1 and let J vanish on the triples that meet g_-1:
        [x, J(a,b,c)] = -(J([a,x],b,c) - J([b,x],a,c) + J([c,x],a,b)),
        and each term on the right has total degree one less than (a, b, c).
        Induct upward on the total degree D of the basis triples; below the
        lowest one there is none.  An unfaithful D is scanned.  At a faithful
        D the right side vanishes by induction, so J(a, b, c), which lies in
        g_D, is killed by g_-1 and is 0 (N. Tanaka, J. Math. Kyoto Univ. 10,
        1970, for transitivity).

        A table that is not degree-additive, or a failure of the filtered
        scan, gets the full scan, which reports the lexicographically first
        failing triple: the report is the same as a scan of every triple.
        """
        report = ValidationReport()
        deg = self.degrees
        bad = self._degree_violations()
        for i, j, k in bad:
            report.add("degree_additivity",
                       f"[{self.names[i]},{self.names[j]}] hits degree "
                       f"{deg[k]} != {deg[i]}+{deg[j]}",
                       triple=(i, j, k))
        triple = None if bad else self._jacobi_failure(self.unfaithful_degrees())
        if bad or triple is not None:
            triple = self._jacobi_failure()
        if triple is not None:
            i, j, k = triple
            report.add("jacobi",
                       f"Jacobi fails on ({self.names[i]},"
                       f"{self.names[j]},{self.names[k]})",
                       triple=triple)
            return report
        # J^2 = -Id as J(J e_b) = -e_b for each b in g_-1
        jcols = self.j_columns() or {}
        for b, image in jcols.items():
            if _combination(image, jcols) != {b: -1}:
                report.add("J_square", "J^2 != -Id on the degree -1 block")
                break
        return report

    def j_columns(self):
        """J's columns as algebra vectors: {b: J e_b} for each degree -1 index b.

        Each image is a sparse {index: value} vector of exact scalars, so J
        applied to a degree -1 vector v is ``_combination(v, j_columns())``.
        The one reader of J's matrix; computed once per algebra.  None when
        the algebra carries no J.
        """
        if self._j_columns is None and self.J is not None:
            block = self.degree_indices(-1)
            self._j_columns = {
                b: {block[t]: exact(x) for t, x in enumerate(self.J.col(a)) if x}
                for a, b in enumerate(block)}
        return self._j_columns

    def unfaithful_degrees(self):
        """The degrees D with some y != 0 in g_D and [y, g_-1] = 0.

        The other degrees are faithful; a degree with no basis vector is.
        Read off ``_commutant`` against g_-1, once per algebra.  ``validate``
        and ``prolongation.transitivity_check`` read it.
        """
        if self._unfaithful is None:
            self._unfaithful = frozenset(
                self.degrees[max(v)] for v in self._commutant(self.degree_indices(-1)))
        return self._unfaithful

    def _commutant(self, against):
        """The canonical kernels of ``_commutant_rows`` on each g_D, as one list
        of sparse vectors sorted by free column (their last nonzero entry)."""
        out = []
        for d in self.degree_dims():
            idx = self.degree_indices(d)
            out += [{idx[t]: x for t, x in enumerate(v) if x} for v in
                    elimination.kernel_basis(self._commutant_rows(idx, against), len(idx))]
        return sorted(out, key=max)

    def _commutant_rows(self, unknowns, against):
        """The equations [y, e_j] = 0 for each j in ``against``, read off the
        table, on y = sum of x_t e_i over the indices i of ``unknowns``.

        One {t: coefficient} row per coordinate k of [y, e_j], in (j, k)
        order, generated for ``kernel_basis`` to draw.
        """
        for j in against:
            yield from elimination.coefficient_rows(
                (t, self.bracket_elements(i, j), 1) for t, i in enumerate(unknowns))

    def _degree_violations(self):
        """Table entries (i, j, k) with deg k != deg i + deg j, found once."""
        if self._bad_degrees is None:
            deg = self.degrees
            self._bad_degrees = [(i, j, k) for (i, j), comp in self.table.items()
                                 for k in comp if deg[k] != deg[i] + deg[j]]
        return self._bad_degrees

    def _jacobi_failure(self, unfaithful=None):
        """A triple i < j < k failing Jacobi, or None.

        Without ``unfaithful`` every triple is scanned and the first
        failing one in lexicographic order is reported.  With it, a pair
        (i, j) outside g_-1 is scanned only against the k in g_-1 and the
        k whose total degree d_i + d_j + d_k is in ``unfaithful``
        (``validate``), and the first failure found is reported.

        One pass per pair (i, j) sums the three terms of the Jacobi sum
        [e_i, [e_j, e_k]] - [e_j, [e_i, e_k]] - [[e_i, e_j], e_k] for every
        scanned k > j at once, keyed by k * dim + t for the coefficient of
        e_t.  Each ad-column is kept sorted by k, once per set of scanned
        degrees of k, so a slice k > j starts at a ``bisect``.  The sum is
        quadratic in the structure constants, so it runs on the constants
        times the lcm L of their denominators: the sums are L**2 times the
        true ones, zero at the same places, and ints.  Those scaled columns
        are built from the table, not from ``_columns()``, so only one copy
        of the ad-columns is alive during the scan.
        """
        n = self.dim
        deg = self.degrees
        lcm = 1
        for comp in self.table.values():
            for c in comp.values():
                if type(c) is not int:
                    lcm = lcm // gcd(lcm, c.denominator) * c.denominator
        if lcm == 1:
            cols = self._columns()
        else:
            cols = [{} for _ in range(n)]
            for (i, j), comp in self.table.items():
                comp = {k: c.numerator * (lcm // c.denominator)
                        for k, c in comp.items()}
                cols[i][j] = comp
                cols[j][i] = {k: -c for k, c in comp.items()}
        views = {}  # degrees of k -> per ad-column the sorted k of those degrees

        def view(degrees):
            if degrees not in views:
                views[degrees] = [[k for k in sorted(ci) if deg[k] in degrees]
                                  for ci in cols]
            return views[degrees]

        present = tuple(sorted(set(deg)))
        every = view(present)
        scanned = {}  # d_i + d_j -> the view for a pair outside g_-1
        for s in {a + b for a in present for b in present}:
            scanned[s] = every if unfaithful is None else view(tuple(
                d for d in present if d == -1 or s + d in unfaithful))
        for i in range(n):
            ci = cols[i]
            for j in range(i + 1, n):
                cj = cols[j]
                scan = every if -1 in (deg[i], deg[j]) else scanned[deg[i] + deg[j]]
                acc = {}
                ks = scan[j]
                for k in ks[bisect_right(ks, j):]:
                    base = k * n
                    for m, c in cj[k].items():
                        cim = ci.get(m)
                        if cim:
                            for t, c2 in cim.items():
                                acc[base + t] = acc.get(base + t, 0) + c * c2
                ks = scan[i]
                for k in ks[bisect_right(ks, j):]:
                    base = k * n
                    for m, c in ci[k].items():
                        cjm = cj.get(m)
                        if cjm:
                            for t, c2 in cjm.items():
                                acc[base + t] = acc.get(base + t, 0) - c * c2
                cij = ci.get(j)
                if cij:
                    for m, c in cij.items():
                        cm = cols[m]
                        ks = scan[m]
                        for k in ks[bisect_right(ks, j):]:
                            base = k * n
                            for t, c2 in cm[k].items():
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
        certify(not bad, lambda: "Killing form of a table that is not degree-additive: "
                "[{},{}] hits {}".format(*(self.names[x] for x in bad[0])))
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
                        cik = ci.get(k)
                        if cik:
                            c2 = cik.get(l)
                            if c2:
                                s += c * c2
                if s:
                    rows[i][j] = rows[j][i] = exact(s)
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

    def graded_components(self, vectors):
        """Split a graded subspace's spanning set into homogeneous bases.

        Returns the reduced rows of the span, one elimination, sorted
        stably by degree, so by (degree, pivot); raises
        ``InternalConsistencyError`` if a row mixes degrees.  That decides
        gradedness: the degree-d part of a reduced row of a graded span
        lies in the span and has the row's pivot pattern, so it is the row,
        and homogeneous rows span a graded space.
        """
        rows = elimination.Echelon(self.dim, vectors).basis
        certify(None not in map(self._degree, rows), "subspace is not graded")
        return sorted(rows, key=self._degree)

    def radical(self) -> Subspace:
        """Solvable radical: Killing-orthogonal of the derived algebra.

        Computed once per algebra, like the Killing form; every caller
        gets the same Subspace.  Its derived series, the solvability
        certificate, is kept for ``levi_decomposition``, and the columns
        where its kernel vectors end for ``_levi_quotient``.
        """
        if self._radical is not None:
            return self._radical
        # with [g, g] = 0 there is no row, and the kernel is all of g
        rows = [self._killing_apply(d) for d in self._derived_span().basis]
        vectors = [_sparse(v) for v in elimination.kernel_basis(rows, self.dim)]
        rad = Subspace(self, self.graded_components(vectors))
        self._verify_ideal(rad, "radical")
        self._radical_ends = {max(v) for v in vectors}
        series = self.derived_series(rad)
        certify(series[-1].dim == 0, "radical candidate is not solvable (bug)")
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
        certify(self._ad_maps_into(sub, sub), f"{label} is not an ideal (bug)")

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
            nxt = Subspace(self, elimination.Echelon(self.dim, brackets).basis)
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
        rows = elimination.coefficient_rows(
            (t, self._killing_apply(v), 1) for t, v in enumerate(rad.vectors))
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
        the same {index: value} dict, or raises a fresh copy of the same
        error.  The cached error holds no traceback, so it keeps no
        caller's frame alive for the life of the algebra.
        """
        if self._char is None:
            try:
                self._char = self._solve_characteristic_element()
            except (NoCharacteristicElementError,
                    NotUniqueCharacteristicElementError) as exc:
                self._char = exc.with_traceback(None)
        if isinstance(self._char, Exception):
            import copy  # only here: at the top it adds to every command's peak RSS
            raise copy.copy(self._char)
        return self._char

    def _solve_characteristic_element(self):
        zero_idx = self.degree_indices(0)
        nun = len(zero_idx)
        cols = self._columns()
        rows = []  # [A | b], b at column nun: [E, e_j] = deg j * e_j
        for j, d in enumerate(self.degrees):
            rows += elimination.coefficient_rows(
                [*((pos, cols[i].get(j, {}), 1) for pos, i in enumerate(zero_idx)),
                 (nun, {j: d}, 1)])
        if nun == 0:
            if any(self.degrees):
                raise NoCharacteristicElementError("degree-0 part is zero")
            return {}
        # one reduction of [A | b]: E is read off the kernel vector whose free
        # column is nun, and the other vectors span the kernel of A
        basis = elimination.kernel_basis(rows, nun + 1)
        if not basis or not basis[-1][nun]:
            raise NoCharacteristicElementError("grading is not inner")
        if len(basis) > 1:
            raise NotUniqueCharacteristicElementError(len(basis) - 1)
        *x, m = basis[0]
        e = {i: ratio(-v, m) for i, v in zip(zero_idx, x) if v}
        for j, d in enumerate(self.degrees):
            # [e_j, E] = -p e_j on degree p
            certify(self.ad(j, e) == ({j: -d} if d else {}),
                    "characteristic element verification failed")
        return e

    def center(self) -> Subspace:
        """Read off ``_commutant``: on a degree-additive table row (j, k) of
        [y, e_j] = 0 only involves the unknowns of degree deg k - deg j, so
        the canonical kernel over all of g is the union of the per-degree ones."""
        certify(not self._degree_violations(), "centre of a table that is not degree-additive")
        return Subspace(self, self._commutant(range(self.dim)))

    # -- subalgebra extraction ------------------------------------------

    def _degree(self, v):
        """The degree of a homogeneous vector, or None when v mixes degrees or is 0."""
        present = {self.degrees[i] for i in v}
        return present.pop() if len(present) == 1 else None

    def _restricted(self, vecs, modulo=()):
        """(degrees, table, coords) of the span of ``vecs`` modulo the ideal
        spanned by ``modulo``, read off one ``Echelon``.

        The vectors must be homogeneous and independent modulo the ideal,
        and the span of both bracket-closed; ``modulo`` must span an ideal,
        which is not checked.  ``coords(w)`` gives a member's coordinates
        on ``vecs``, its part in the ideal dropped (None off the span), and
        the table is in them.  Raises ValueError otherwise.  ``subalgebra``,
        ``change_basis`` and ``_levi_quotient`` build from it.
        """
        degs = [self._degree(v) for v in vecs]
        if None in degs:
            raise ValueError("basis vector is not degree-homogeneous")
        m = len(modulo)
        span = elimination.Echelon(self.dim, [*modulo, *vecs])
        if span.rank != m + len(vecs):
            raise ValueError("basis is singular: its vectors are linearly dependent")

        def coords(w):
            c = span.coords(w)
            return None if c is None else {k - m: x for k, x in c.items() if k >= m}

        table = {}
        for a, b in combinations(range(len(vecs)), 2):
            w = self.bracket(vecs[a], vecs[b])
            if w:
                comp = coords(w)
                if comp is None:
                    raise ValueError("span is not bracket-closed")
                if comp:
                    table[(a, b)] = comp
        return degs, table, coords

    def subalgebra(self, vectors):
        """Structure constants of a bracket-closed homogeneous span.

        Returns (GradedLieAlgebra, vectors); vector i of the result's
        basis is ``vectors[i]`` in the parent's coordinates.
        """
        vecs = list(vectors)
        degs, table, _ = self._restricted(vecs)
        return GradedLieAlgebra([f"v{a}" for a in range(len(vecs))], degs, table), vecs

    # -- Levi decomposition ----------------------------------------------

    def _levi_quotient(self):
        """g / radical on complement units: (units, q_coords, factor algebra).

        The units are the e_i, in degree order, at the columns where no
        kernel vector of ``radical`` ends: the units a greedy completion of
        the radical in index order keeps, as every radical vector ends at
        one of those columns, and one ending at i puts e_i in the radical
        plus e_0 .. e_i-1.  The radical is graded, so completing in degree
        order, stable by index, keeps the same ones.  ``_restricted``'s rank
        test certifies that they complete the radical, and gives the rest:
        ``q_coords`` gives a vector's coordinates on the units modulo the
        radical, an ideal, and the factor algebra is g / radical in those
        coordinates (W. de Graaf, *Lie Algebras: Theory and Algorithms*,
        2000).  Its Killing form is certified nondegenerate, so g / radical
        is semisimple.  Worked out once per algebra.

        When the radical is 0 the rank test is not repeated: ``radical``
        has computed r = [g, g]^K, the Killing-orthogonal of [g, g], exactly.
        K(x, g) = 0 gives K(x, [g, g]) = 0, so x lies in r = 0: K is
        nondegenerate, and g / r = g is semisimple by Cartan's criterion.
        The factor algebra is g on its basis in degree order, so its
        Killing rank is dim g.  Whenever r != 0 the rank is certified.
        """
        if self._quotient is not None:
            return self._quotient
        rad = self.radical()
        n = self.dim
        complement_idx = sorted((i for i in range(n) if i not in self._radical_ends),
                                key=lambda i: self.degrees[i])
        nq = len(complement_idx)
        certify(nq + rad.dim == n, "complement units do not complete the radical")
        degs, q_table, q_coords = self._restricted(
            [{i: 1} for i in complement_idx], rad.vectors)
        s_alg = GradedLieAlgebra([f"s{a}" for a in range(nq)], degs, q_table)
        certify(not rad.dim or elimination.rank(s_alg.killing_rows(), nq) == nq,
                "Levi factor has degenerate Killing form (bug)")
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

        The section sigma of g / radical (``_levi_quotient``) is corrected
        along the derived series R_0 = radical > R_1 > ... > 0 by one linear
        system per stage k (W. de Graaf, *Lie Algebras: Theory and
        Algorithms*, 2000): the defects delta(a, b) = [sigma_a, sigma_b] -
        sum_c c_ab^c sigma_c lie in R_k, and phi_a in R_k of a's degree solves
        sum_c c_ab^c phi_c - [sigma_a, phi_b] - [phi_a, sigma_b] = delta(a, b)
        mod R_{k+1} on every pair.  ``solve`` gives the solution with the free
        unknowns zero, which depends only on the solution set and the order of
        the unknowns (a, m): a, then the level vectors m of a's degree.  A
        failure is a bug and raises ``InternalConsistencyError``.
        """
        rad = self.radical()
        complement_idx, q_coords, s_alg = self._levi_quotient()
        nq, q_deg = s_alg.dim, s_alg.degrees
        sigma = [{i: 1} for i in complement_idx]
        pairs = [(a, b, s_alg.bracket_elements(a, b))
                 for a, b in combinations(range(nq), 2)]
        series = self._radical_series
        for stage, level in enumerate(series):
            delta = {}
            for a, b, c_ab in pairs:
                d = _combination({c: -x for c, x in c_ab.items()}, sigma,
                                 self.bracket(sigma[a], sigma[b]))
                if d:
                    delta[a, b] = d
            if not delta:
                break
            certify(stage + 1 < len(series), "defect survived past the derived series")
            certify(all(level.contains(d) for d in delta.values()),
                    "defect escaped the expected ideal")
            nxt = series[stage + 1]
            level_deg = [self._degree(w) for w in level.vectors]
            certify(None not in level_deg, "radical layer vector is not homogeneous")
            own = [[m for m, dm in enumerate(level_deg) if dm == d] for d in q_deg]
            col = {key: t for t, key in enumerate(
                (a, m) for a in range(nq) for m in own[a])}
            bcol = len(col)
            level_red = [nxt.reduce(w) for w in level.vectors]
            ad_red = {(a, m): nxt.reduce(self.bracket(sigma[a], level.vectors[m]))
                      for a in range(nq) for m, dm in enumerate(level_deg) if dm in q_deg}

            # every pair, not only the defective ones: phi must not make a
            # defect; each pair's rows are built, then drawn by the solver
            rows = (row for a, b, c_ab in pairs for row in elimination.coefficient_rows([
                *((col[c, m], level_red[m], x) for c, x in c_ab.items() for m in own[c]),
                *((col[b, m], ad_red[a, m], -1) for m in own[b]),
                *((col[a, m], ad_red[b, m], 1) for m in own[a]),
                (bcol, nxt.reduce(delta.get((a, b), {})), 1)]))
            sol = elimination.solve(rows, bcol)
            certify(sol is not None, f"correction system inconsistent at stage {stage}")
            for a in range(nq):
                phi_a = {m: x for m in own[a] if (x := sol[col[a, m]])}
                sigma[a] = _combination(phi_a, level.vectors, sigma[a])

        s_sub = Subspace(self, sigma)
        try:
            e = self.characteristic_element()
        except (NoCharacteristicElementError, NotUniqueCharacteristicElementError):
            return LeviDecomposition(s_sub, rad, None, None, s_alg)
        e_s = _combination(q_coords(e), sigma)
        e_r = _combination({0: 1, 1: -1}, [e, e_s])
        certify(rad.contains(e_r), "E_r is not in the radical")
        certify((not e_r) == self.grading_element_in_levi(),
                "E_r disagrees with the [g, g] membership of E")
        return LeviDecomposition(s_sub, rad, e_s, e_r, s_alg)

    def simple_ideals(self, sub: Subspace):
        """Split a semisimple subalgebra into its simple ideals.

        The split has no simplicity certificate yet: an ideal is kept
        whole when the ideal of no single basis vector is proper, so a
        basis in which every vector mixes two ideals comes back as one.
        """
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
            certify(len(comp) + di == d, "Killing complement has wrong dimension")
            for part in (ideal, [_sparse(cv) for cv in comp]):
                self._split_simple([_combination(cv, vecs) for cv in part], out)
            return
        out.append(vecs)

    def change_basis(self, p: ExactMatrix) -> "GradedLieAlgebra":
        """Algebra in the new basis whose j-th vector is column j of p.

        Columns must be degree-homogeneous; names are kept positional.
        The table and J' are read off one ``Echelon`` of the columns
        (``_restricted``): column b of J' holds the coordinates of J applied
        to the b-th new vector of degree -1 (``j_columns``).  The degree -1
        block must keep its positions.
        """
        n = self.dim
        if p.nrows != n or p.ncols != n:
            raise ValueError("basis change must be square of matching size")
        vecs = [{i: exact(x) for i, x in enumerate(p.col(j)) if x} for j in range(n)]
        new_deg, table, coords = self._restricted(vecs)
        jmat = None
        jcols = self.j_columns()
        if jcols is not None:
            block = self.degree_indices(-1)
            if block != [j for j, d in enumerate(new_deg) if d == -1]:
                raise ValueError("degree -1 block changed position")
            images = [coords(_combination(vecs[j], jcols)) for j in block]
            jmat = ExactMatrix.from_rows([[im.get(k, 0) for im in images] for k in block])
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
        """An algebra from its ``to_json`` object.

        A malformed or missing field raises InputError naming it.
        """
        names = json_field(obj, "basis", list)
        if not all(type(x) is str for x in names) or len(set(names)) != len(names):
            raise InputError("field 'basis' must be a list of distinct names (strings)")
        degrees = json_field(obj, "degrees", list)
        if len(degrees) != len(names):
            raise InputError("field 'degrees' must hold one degree per basis name")
        for t, d in enumerate(degrees):
            if type(d) is not int:
                raise InputError(f"field 'degrees' entry {t} is not an integer")
        table = {}
        for t, entry in enumerate(json_field(obj, "brackets", list)):
            if not (isinstance(entry, list) and len(entry) == 4
                    and all(type(x) is int for x in entry[:3])):
                raise InputError(f"field 'brackets' entry {t} must be "
                                 f"[i, j, k, coefficient] with integer i, j, k")
            i, j, k, c = entry
            comp = table.setdefault((i, j), {})
            if k in comp:
                raise InputError(f"duplicate bracket entry ({i},{j},{k})")
            comp[k] = _json_rational(c, f"'brackets' entry {t}")
        jmat = None
        if obj.get("J") is not None:
            r = json_field(json_field(obj, "J", dict), "rows", int)
            entries = [_json_rational(x, "'J' entries")
                       for x in json_field(obj["J"], "entries", list)]
            d = degrees.count(-1)
            if r != d or len(entries) != d * d:
                raise InputError(f"field 'J' must be {d}x{d} ('rows' {r}, {len(entries)} "
                                 f"entries): degree -1 block has dim {d}")
            jmat = ExactMatrix(r, r, entries)
        return cls(names, degrees, table, jmat)

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
