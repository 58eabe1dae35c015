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
the assembled algebra is re-validated, and Jacobi on (u, v, x) for every
x in m is exactly the statement that [u, v] acts on m as computed (which
fixes [u, v], by transitivity), including [u, v] = 0 past the top
degree.  ``validate`` scans Jacobi on every triple that meets g_-1 and on
every triple whose total degree is not faithful to g_-1, and the
faithful degrees prove the rest (the lemma in ``graded``): in a
transitive prolongation every degree but -2 is faithful, as the kernel
test that ``transitivity_check`` reports certifies.  A failed re-validation raises
``InternalConsistencyError`` through ``errors.certify``.  The grading element is
computed last.

Layer p's equations are sparse {col: value} rows, their columns from one
map per source x.  The derivation rows are written out from the table's
brackets.  At p = 0 the rows saying that u commutes with J come first,
one ``elimination.coefficient_rows`` call per source x on J's columns as
algebra vectors (``GradedLieAlgebra.j_columns``), so the head that
``kernel_basis`` eliminates holds them and the derivation rows that
follow pass its check.  The equations are generated, not stored:
``kernel_basis`` draws them one at a time, keeps its head and the tail
rows that fail its check, and draws none past the head when the head has
full column rank (on the n=7, k=8 quadric, 536 of layer 3's 3,134 rows
are ever built).  The table, the ad-column map and the free-column reads
are working maps of ``_assemble``: the ad-column map and the reads are
released before the algebra is built from the table, which the algebra
copies, and the table when ``_assemble`` returns, before the
certificates run.
"""

from __future__ import annotations

from itertools import combinations

from . import elimination
from .errors import CapReachedError, PreconditionError, certify, check
from .graded import GradedLieAlgebra
from .scalars import ratio


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
    # J compatibility [JX, JY] = [X, Y] on basis pairs
    jcols = m.j_columns()
    for a, b in combinations(block1, 2):
        if m.bracket(jcols[a], jcols[b]) != m.bracket_elements(a, b):
            raise PreconditionError("J is not bracket-compatible")
    # fundamental: [g_-1, g_-1] spans g_-2.  m has validated, so degree
    # additivity leaves only those brackets in its table
    if elimination.rank(m.table.values(), m.dim) != len(block2):
        raise PreconditionError("input is not fundamental")
    # nondegenerate: ad is injective on g_-1, that is degree -1 is faithful;
    # validate has run the kernel test that decides it
    if -1 in m.unfaithful_degrees():
        raise PreconditionError("input is not nondegenerate")
    return block1, block2


def prolong(m: GradedLieAlgebra, max_degree: int = 6) -> ProlongationResult:
    """Full Tanaka prolongation of (m, J); see module docstring."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    block1, block2 = _check_preconditions(m)
    # the working maps of _assemble are released when it returns: only the
    # algebra's own copy is alive while it is validated
    algebra, terminated_at = _assemble(m, block1, block2, max_degree)
    rep = algebra.validate()
    certify(rep.ok, lambda: f"assembled prolongation invalid: {rep.violations[0]}")
    e = algebra.characteristic_element()
    return ProlongationResult(algebra, algebra.degree_dims(), e, terminated_at)


def _assemble(m, block1, block2, max_degree):
    """Solve the layers of g and read the brackets between them.

    Returns the assembled, not yet validated, algebra and the degree of
    the first vanishing layer.
    """
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
        """Layer p's columns: cols[x][k] for source x and target k, and keys."""
        cols = {}
        keys = []
        for s in (-1, -2):
            for k in by_degree.get(s + p, ()):
                for x in by_degree[s]:
                    cols.setdefault(x, {})[k] = len(keys)
                    keys.append((x, k))
        return cols, keys

    def layer_rows(p, cols):
        """Layer p's equations, generated one at a time for kernel_basis."""
        if p == 0:
            # u commutes with J on g_-1: [u, J x] - J [u, x] = 0, one row per
            # target y.  These rows go first, into kernel_basis's head: after
            # the derivation rows every one of them fails the check on the tail
            jcols = m.j_columns()
            for x in block1:
                yield from elimination.coefficient_rows(
                    [(cols[w][y], {y: 1}, v) for w, v in jcols[x].items() for y in block1]
                    + [(cols[x][k], jcols[k], -1) for k in block1])
        # [u, [x, y]] - [[u, x], y] - [x, [u, y]] = 0, one row per target k
        for a, x in enumerate(block1):
            adx = ad[x]
            colx = cols.get(x, {})
            for y in sources[a + 1:]:
                eqs = {}
                for w, c in adx.get(y, {}).items():
                    for k, col in cols.get(w, {}).items():
                        eq = eqs.setdefault(k, {})
                        eq[col] = eq.get(col, 0) + c
                for t, col in colx.items():
                    for k, c in ad[t].get(y, {}).items():
                        eq = eqs.setdefault(k, {})
                        eq[col] = eq.get(col, 0) - c
                for s, col in cols.get(y, {}).items():
                    for k, c in adx.get(s, {}).items():
                        eq = eqs.setdefault(k, {})
                        eq[col] = eq.get(col, 0) - c
                yield from eqs.values()

    terminated_at = None
    for p in range(max_degree + 1):
        cols, keys = layout(p)
        basis = elimination.kernel_basis(layer_rows(p, cols), len(keys))
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
            for x, colx in cols.items():
                comp = {k: -v[c] for k, c in colx.items() if v[c]}
                if comp:
                    put(x, g, comp)
        last = [max(c for c, x in enumerate(v) if x) for v in basis]
        free.append([(*keys[f], v[f]) for f, v in zip(last, basis)])
    certify(terminated_at != 0, "degree 0 lost the grading derivation (bug)")
    # all higher layers vanish: check one extra degree
    cols, keys = layout(terminated_at + 1)
    above = elimination.kernel_basis(layer_rows(terminated_at + 1, cols), len(keys))
    certify(not above, "prolongation did not stabilize after a zero layer")

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
                            comp[g] = ratio(c, scale)
                if comp:
                    put(gu, gv, comp)

    # released before the constructor copies the table; targets is unbound
    # when no pair exists
    ad = free = targets = None
    return GradedLieAlgebra(names, degrees, table, m.J), terminated_at


def transitivity_check(result: ProlongationResult):
    """The "transitivity" report check of a prolongation.

    It passes when ad(X)|_{g_{-1}} is injective on every nonnegative
    layer.  The test, one kernel per degree, is
    ``GradedLieAlgebra.unfaithful_degrees``, which ``validate`` has
    already run on an assembled prolongation; a failed check's witness is
    the first unfaithful degree p >= 0.
    """
    bad = [p for p in result.algebra.unfaithful_degrees() if p >= 0]
    return check("transitivity", not bad, min(bad, default=None))
