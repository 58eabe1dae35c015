"""Maximal pseudocomplex (Tanaka) prolongation of a kind-2 fundamental pair.

Input: a graded algebra m with degrees -2/-1 only, fundamental,
nondegenerate, carrying a complex structure J with [JX, JY] = [X, Y].

The prolongation g = m + g_0 + g_1 + ... grows as one algebra: names,
degrees, a bracket table on global indices (m's basis, then each layer
in turn) and the indices of each degree; every bracket is read through
one lookup.  Degree p >= 0 is the space of maps u: x -> [u, x] from m
into g_{deg x + p} with [u, [x, y]] = [[u, x], y] + [x, [u, y]] for
x in g_-1 and y in m after x (g_-1 listed before g_-2), which at p = 0
also commute with J on g_-1.  Each layer is one exact kernel computation
against brackets already in the table.

Layer p's unknowns are the coefficients of [u, x] on g_{deg x + p}, in
columns ordered g_-1 block first, then g_-2 block, and within a block by
target, then by source.  ``kernel_basis`` returns one primitive vector
per free column, so it is canonical for a fixed column order: this order
fixes the layer bases, and with them every byte of the reports.

A solved layer writes its [u, x] into the table at once, and into an
ad-column map that every later bracket lookup reads.  Iteration stops at
the first vanishing layer.  Brackets between layers follow by increasing
total degree from [[u, v], x] = [u, [v, x]] - [v, [u, x]], read at free
columns: each kernel vector of a layer ends at its own free column, where
every other vector of that layer is zero, so the coordinate of [u, v] on
it is the action at that one column divided by the vector's entry there.
The action [[u, v], x] is formed once per source x of a free column, and
every free column with that source is read off it.  The reading is certified, not assumed:
the assembled algebra is re-validated in full, and Jacobi on (u, v, x)
for every x in m is exactly the statement that [u, v] acts on m as
computed (which fixes [u, v], by transitivity), including [u, v] = 0 past
the top degree.  A failed re-validation raises
``InternalConsistencyError``.  The grading element is computed last.
"""

from __future__ import annotations

from . import elimination
from .errors import CapReachedError, InternalConsistencyError, PreconditionError
from .graded import GradedLieAlgebra


class ProlongationResult:
    """Assembled prolongation with its per-degree dimensions."""

    def __init__(self, algebra, degree_dims, characteristic_element, terminated_at):
        self.algebra = algebra
        self.degree_dims = degree_dims
        self.characteristic_element = characteristic_element
        self.terminated_at = terminated_at

    def to_json(self):
        return {"algebra": self.algebra.to_json(),
                "degree_dims": [[d, n] for d, n in sorted(self.degree_dims.items())],
                "terminated_at": self.terminated_at}

    def __repr__(self):
        return f"ProlongationResult(dims={self.degree_dims})"


class TransitivityReport:
    def __init__(self, ok, offending_degree=None):
        self.ok = ok
        self.offending_degree = offending_degree

    def __repr__(self):
        if self.ok:
            return "TransitivityReport(certificate)"
        return f"TransitivityReport(violation at degree {self.offending_degree})"


def _check_preconditions(m: GradedLieAlgebra):
    degrees = set(m.degrees)
    if not degrees <= {-1, -2} or -1 not in degrees or -2 not in degrees:
        raise PreconditionError("input must be graded in degrees -1 and -2")
    if m.J is None:
        raise PreconditionError("input carries no complex structure")
    rep = m.validate()
    if not rep.ok:
        raise PreconditionError(f"input fails validation: {rep.violations[0]}")
    block1 = m.degree_indices(-1)
    block2 = m.degree_indices(-2)
    n1, n2 = len(block1), len(block2)
    # J compatibility [JX, JY] = [X, Y] on basis pairs; J's columns as vectors
    jcols = [{block1[t]: x for t, x in enumerate(m.J.col(a)) if x} for a in range(n1)]
    for a in range(n1):
        for b in range(a + 1, n1):
            if m.bracket(jcols[a], jcols[b]) != m.bracket_elements(block1[a], block1[b]):
                raise PreconditionError("J is not bracket-compatible")
    # fundamental: [g_-1, g_-1] spans g_-2 (rank rows keep global columns)
    pairs = [m.bracket_elements(a, b)
             for i, a in enumerate(block1) for b in block1[i + 1:]]
    rows = [comp for comp in pairs if comp]
    if elimination.rank(rows, m.dim) != n2:
        raise PreconditionError("input is not fundamental")
    # nondegenerate: ad is injective on g_-1; row (b, z) holds [a, b]_z over a
    rows = []
    for b in block1:
        per_z = {}
        for a in block1:
            for z, c in m.bracket_elements(a, b).items():
                per_z.setdefault(z, {})[a] = c
        rows += [per_z[z] for z in block2 if z in per_z]
    if elimination.rank(rows, m.dim) != n1:
        raise PreconditionError("input is not nondegenerate")
    return block1, block2


def prolong(m: GradedLieAlgebra, max_degree: int = 6) -> ProlongationResult:
    """Full Tanaka prolongation of (m, J); see module docstring."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    block1, block2 = _check_preconditions(m)
    sources = block1 + block2
    names = list(m.names)
    degrees = list(m.degrees)
    table = {}  # (i, j), i < j
    ad = [{} for _ in names]  # ad[i][j] = [e_i, e_j], both orders
    by_degree = {-1: block1, -2: block2}
    free = []  # free[p]: (x, k, entry) at the free column of each layer-p vector

    def put(i, j, comp):
        table[i, j] = ad[i][j] = comp
        ad[j][i] = {k: -c for k, c in comp.items()}

    for (i, j), comp in m.table.items():
        put(i, j, dict(comp))

    def layout(p):
        cols = {}
        for s in (-1, -2):
            for k in by_degree.get(s + p, ()):
                for x in by_degree[s]:
                    cols[x, k] = len(cols)
        return cols

    def solve_layer(p, cols):
        rows = []
        # [u, [x, y]] - [[u, x], y] - [x, [u, y]] = 0, one row per target k
        for a, x in enumerate(block1):
            adx = ad[x]
            for y in sources[a + 1:]:
                eqs = {}
                terms = [(k, (w, k), c) for w, c in adx.get(y, {}).items()
                         for k in by_degree.get(degrees[w] + p, ())]
                terms += [(k, (x, t), -c) for t in by_degree.get(degrees[x] + p, ())
                          for k, c in ad[t].get(y, {}).items()]
                terms += [(k, (y, s), -c) for s in by_degree.get(degrees[y] + p, ())
                          for k, c in adx.get(s, {}).items()]
                for k, key, c in terms:
                    eq = eqs.setdefault(k, {})
                    eq[cols[key]] = eq.get(cols[key], 0) + c
                rows += eqs.values()
        if p == 0:
            # u commutes with J on g_-1: (U J - J U) = 0 on (target y, source x)
            jm = m.J
            for a, x in enumerate(block1):
                for b, y in enumerate(block1):
                    eq = {}
                    for t, z in enumerate(block1):
                        eq[cols[z, y]] = eq.get(cols[z, y], 0) + jm.entry(t, a)
                        eq[cols[x, z]] = eq.get(cols[x, z], 0) - jm.entry(b, t)
                    rows.append(eq)
        return elimination.kernel_basis(rows, len(cols))

    terminated_at = None
    for p in range(max_degree + 1):
        cols = layout(p)
        basis = solve_layer(p, cols)
        if not basis:
            terminated_at = p
            break
        if p == max_degree:
            raise CapReachedError(max_degree, len(basis))
        by_degree[p] = list(range(len(names), len(names) + len(basis)))
        names += [f"d{p}_{i}" for i in range(len(basis))]
        degrees += [p] * len(basis)
        ad += [{} for _ in basis]
        for g, v in zip(by_degree[p], basis):
            for x in sources:
                comp = {k: -v[cols[x, k]] for k in by_degree.get(degrees[x] + p, ())
                        if v[cols[x, k]]}
                if comp:
                    put(x, g, comp)
        key_of = list(cols)
        last = [max(c for c, x in enumerate(v) if x) for v in basis]
        free.append([(*key_of[f], v[f]) for f, v in zip(last, basis)])
    if terminated_at == 0:
        raise InternalConsistencyError("degree 0 lost the grading derivation (bug)")
    # all higher layers vanish: check one extra degree
    if solve_layer(terminated_at + 1, layout(terminated_at + 1)):
        raise InternalConsistencyError(
            "prolongation did not stabilize after a zero layer")

    # brackets between layers, read at free columns (module docstring);
    # none is stored at or past the top degree, and the re-validation
    # below certifies every one
    top = len(free)
    for p, q in sorted(((p, q) for p in range(top) for q in range(p, top)
                        if p + q < top), key=sum):
        # the free columns of layer p + q, grouped by their source x
        targets = {}
        for g, (x, k, scale) in zip(by_degree[p + q], free[p + q]):
            targets.setdefault(x, []).append((g, k, scale))
        for a, gu in enumerate(by_degree[p]):
            adu = ad[gu]
            for gv in by_degree[q][a + 1 if p == q else 0:]:
                adv = ad[gv]
                comp = {}
                for x, reads in targets.items():
                    # [[u, v], x] = [u, [v, x]] - [v, [u, x]], once per x
                    col = {}
                    for t, c1 in adv.get(x, {}).items():
                        for k, c2 in adu.get(t, {}).items():
                            col[k] = col.get(k, 0) + c1 * c2
                    for t, c1 in adu.get(x, {}).items():
                        for k, c2 in adv.get(t, {}).items():
                            col[k] = col.get(k, 0) - c1 * c2
                    for g, k, scale in reads:
                        c = col.get(k)
                        if c:
                            comp[g] = elimination.ratio(c, scale)
                if comp:
                    put(gu, gv, comp)

    algebra = GradedLieAlgebra(names, degrees, table, m.J)
    rep = algebra.validate()
    if not rep.ok:
        raise InternalConsistencyError(
            f"assembled prolongation invalid: {rep.violations[0]}")
    e = algebra.characteristic_element()
    return ProlongationResult(algebra, algebra.degree_dims(), e, terminated_at)


def transitivity_check(result: ProlongationResult) -> TransitivityReport:
    """Certify ad(X)|_{g_{-1}} is injective on every nonnegative layer."""
    alg = result.algebra
    block1 = alg.degree_indices(-1)
    for p in range(max(alg.degrees) + 1):
        idx = alg.degree_indices(p)
        # row of X: [X, e_b] for each e_b in g_-1, side by side
        rows = [{b * alg.dim + k: c for b, y in enumerate(block1)
                 for k, c in alg.bracket_elements(i, y).items()}
                for i in idx]
        if elimination.rank(rows, len(block1) * alg.dim) != len(idx):
            return TransitivityReport(False, p)
    return TransitivityReport(True)
