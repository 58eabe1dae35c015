"""Exact linear algebra over the rationals, on sparse integer rows.

Every linear question of the package reduces to this module: matrix
rank, null spaces of derivation systems, the grading element and the
Levi-correction solves (the batch ``row_echelon``), and spans, residuals,
coordinates and inverses (the incremental ``Echelon``).

Rows come in as sparse rational dicts ``{col: value}``, which may hold
zero entries; ``kernel_basis``, ``solve``, ``rank`` and ``Echelon`` all
take that form.  Inside, a row is scaled to integers once, by the lcm of
its denominators (``_int_row``), and becomes a sparse pair (cols, vals):
strictly increasing column indices with nonzero arbitrary-precision
integer values.  ``row_echelon`` and ``combine`` are the integer-level
core on such pairs.  Reduction is fraction-free: ``combine`` forms
``a*row - b*pivot_row`` and divides the result by the gcd of its
entries, which keeps growth under control while staying exact.  In
``row_echelon`` columns are processed left to right;
within a column the pivot is the candidate whose leading value has the
smallest bit length, then the one with the fewest entries (Markowitz's
rule restricted to one column: a sparse pivot row fills in the fewest
entries of the rows it clears), ties broken by arrival order.  The pivot
choice never changes a result that is read off the reduced row echelon
form (RREF), which is unique: the pivot columns, ``kernel_basis`` and
``solve``.  Everything is deterministic.

``kernel_basis`` has one path, a head and a checked tail.  Its rows may
be any iterable, and it draws them lazily: it eliminates the first two
rows per unknown.  A head of full column rank proves the kernel is 0,
and no further row is drawn; otherwise each remaining row is drawn in
turn and checked against the head's kernel by exact dot products, and
only the rows that fail are kept and eliminated, together with the
head's echelon rows, which span the same row space as the head.  A
passing row vanishes on ker(head), which contains the kernel of the head
and the failing rows, so both systems have the same kernel, row space
and RREF: the answer is the same, byte for byte, as eliminating every
row.  Repeated rows then cost a dot product each, not an elimination
cascade.  ``solve`` is a kernel read: the solutions of A x = b are the
kernel vectors of [A | b] that are nonzero at the right-hand side's
column ``bcol``, and the one with free unknowns zero is the
``kernel_basis`` vector whose free column is ``bcol``.  ``rank``
eliminates every row: its systems are wide, and a kernel read there
would build a dense vector per free column.

Scalars handed back (solutions, residuals, coordinates, RREF rows) are
Python ints, and a ``Fraction`` only where a division leaves a remainder
(``scalars.ratio``); input vectors may mix the two.  Kernel vectors are
read off one fraction-free back-elimination of the echelon rows.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import chain, islice
from math import gcd

from .scalars import ratio


def combine(pcols, pvals, rcols, rvals):
    """Return a*row_r - b*row_p with row_p's leading column cancelled.

    Both rows are sparse (strictly increasing column lists, nonzero
    integer values).  a = pvals[0] is the pivot value and b the entry of
    row_r at the pivot's leading column, which row_r must contain; it is
    usually row_r's own leading entry.  The result is divided by the gcd
    of its entries, so entries stay small.
    """
    a = pvals[0]
    if rcols[0] == pcols[0]:
        b = rvals[0]
        i = j = 1  # leading entries cancel by construction
    else:
        b = rvals[bisect_left(rcols, pcols[0])]
        i = j = 0  # the cancelled entry comes out zero and is dropped
    np_ = len(pcols)
    nr = len(rcols)
    cols = []
    vals = []
    g = 0
    while i < np_ and j < nr:
        cp = pcols[i]
        cr = rcols[j]
        if cr < cp:
            v = a * rvals[j]
            cols.append(cr)
            vals.append(v)
            g = gcd(g, v)
            j += 1
        elif cp < cr:
            v = -b * pvals[i]
            cols.append(cp)
            vals.append(v)
            g = gcd(g, v)
            i += 1
        else:
            v = a * rvals[j] - b * pvals[i]
            if v:
                cols.append(cp)
                vals.append(v)
                g = gcd(g, v)
            i += 1
            j += 1
    while j < nr:
        v = a * rvals[j]
        cols.append(rcols[j])
        vals.append(v)
        g = gcd(g, v)
        j += 1
    while i < np_:
        v = -b * pvals[i]
        cols.append(pcols[i])
        vals.append(v)
        g = gcd(g, v)
        i += 1
    if g > 1:
        vals = [v // g for v in vals]
    return cols, vals


def _int_row(vector, scale_col=None):
    """A sparse {col: rational} row as an integer (cols, vals) row.

    Zero entries are dropped and the rest scaled by the lcm of their
    denominators; when every value is an int the lcm pass is skipped.
    A ``scale_col``, past every column of the vector, receives the lcm.
    """
    cols = sorted(c for c, x in vector.items() if x)
    vals = [vector[c] for c in cols]
    lcm = 1
    if any(type(x) is not int for x in vals):
        for x in vals:
            d = x.denominator
            if d != 1:
                lcm = lcm // gcd(lcm, d) * d
        vals = [x.numerator * (lcm // x.denominator) for x in vals]
    if scale_col is not None:
        cols.append(scale_col)
        vals.append(lcm)
    return cols, vals


def _normalize_row(cols, vals):
    """Divide a fresh row by the gcd of its entries."""
    g = 0
    for v in vals:
        g = gcd(g, v)
    if g > 1:
        vals = [v // g for v in vals]
    return cols, vals


def row_echelon(rows):
    """Reduce sparse integer rows; return (pivots, pivot_rows).

    ``rows`` is an iterable of (cols, vals) sparse rows.  ``pivots`` is
    the sorted list of pivot columns and ``pivot_rows[i]`` the echelon
    row leading at ``pivots[i]``.
    """
    buckets = {}
    heap = []
    arrival = 0

    def push(cols, vals):
        nonlocal arrival
        lead = cols[0]
        entry = (arrival, cols, vals)
        arrival += 1
        b = buckets.get(lead)
        if b is None:
            buckets[lead] = [entry]
            heapq.heappush(heap, lead)
        else:
            b.append(entry)

    for cols, vals in rows:
        if cols:
            push(*_normalize_row(list(cols), list(vals)))

    pivots = []
    pivot_rows = []
    while heap:
        c = heapq.heappop(heap)
        bucket = buckets.pop(c, None)
        if not bucket:
            continue
        best = 0
        if len(bucket) > 1:
            keys = [(abs(vals[0]).bit_length(), len(cols), order)
                    for order, cols, vals in bucket]
            best = keys.index(min(keys))
        _, pcols, pvals = bucket.pop(best)
        pivots.append(c)
        pivot_rows.append((pcols, pvals))
        for _, rcols, rvals in bucket:
            ncols_, nvals_ = combine(pcols, pvals, rcols, rvals)
            if ncols_:
                push(ncols_, nvals_)
    return pivots, pivot_rows


def rank(rows, ncols) -> int:
    """Rank of sparse {col: value} rows."""
    pivots, _ = row_echelon(map(_int_row, rows))
    return len(pivots)


def _back_eliminate(pivots, pivot_rows):
    """Clear every pivot column above its pivot, fraction-free.

    Returns the rows of ``row_echelon`` with each row zero at every pivot
    column but its own: row i leads at ``pivots[i]`` and its other
    entries lie in non-pivot columns.
    """
    rows = list(pivot_rows)
    row_of = {c: i for i, c in enumerate(pivots)}
    # rows below are reduced first, so clearing one pivot column of a row
    # never reintroduces another
    for i in range(len(rows) - 1, -1, -1):
        cols, vals = rows[i]
        for c in [c for c in cols[1:] if c in row_of]:
            cols, vals = combine(*rows[row_of[c]], cols, vals)
        rows[i] = (cols, vals)
    return rows


# kernel_basis: the head of a system is its first _HEAD * ncols rows
_HEAD = 2


def kernel_basis(rows, ncols):
    """Primitive integer basis of the right null space of {col: value} rows.

    One vector per free column, in increasing column order; each vector
    is scaled to coprime integers with positive entry at its free column.
    A vector is zero at every other free column, and its free column is
    its last nonzero entry (the pivots it touches lie to the left), so
    the coordinates of a member of the span are its entries at the free
    columns divided by those of the vectors.

    ``rows`` may be any iterable, such as a generator.  The system is
    solved from its first ``_HEAD * ncols`` rows plus the rest of the
    rows that fail a check against their kernel (module docstring); the
    rest is drawn one row at a time, and only when the head leaves a
    kernel.
    """
    rows = iter(rows)
    pivots, pivot_rows = row_echelon(map(_int_row, islice(rows, _HEAD * ncols)))
    basis = _read_kernel(pivots, pivot_rows, ncols)
    first = next(rows, None) if basis else None
    if first is None:
        return basis
    entries = {}  # column -> [(vector, entry)] over the head's kernel
    for t, vec in enumerate(basis):
        for c, x in enumerate(vec):
            if x:
                entries.setdefault(c, []).append((t, x))
    failing = []
    for row in chain((first,), rows):
        dots = [0] * len(basis)
        for c, x in row.items():
            for t, e in entries.get(c, ()):
                dots[t] += x * e
        if any(dots):
            failing.append(_int_row(row))
    if not failing:
        return basis
    pivots, pivot_rows = row_echelon(pivot_rows + failing)
    return _read_kernel(pivots, pivot_rows, ncols)


def _read_kernel(pivots, pivot_rows, ncols):
    """The ``kernel_basis`` vectors read off the echelon rows of a system."""
    # free column f -> (pivot, lead, entry) of every reduced row touching it
    touching = {}
    for p, (cols, vals) in zip(pivots, _back_eliminate(pivots, pivot_rows)):
        for c, v in zip(cols[1:], vals[1:]):
            touching.setdefault(c, []).append((p, vals[0], v))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # x_f = 1 gives x_p = -v/lead; scale by the lcm m of the reduced
        # denominators.  For each prime the row with the highest power
        # in m leaves an entry prime to it, so the vector is primitive.
        terms = touching.get(f, ())
        m = 1
        for _, lead, v in terms:
            d = abs(lead) // gcd(lead, v)
            m = m // gcd(m, d) * d
        vec = [0] * ncols
        vec[f] = m
        for p, lead, v in terms:
            vec[p] = -v * m // lead
        basis.append(vec)
    return basis


def solve(rows, bcol):
    """Exact solution of an augmented sparse system, or None.

    ``rows`` are {col: value} dicts spanning [A | b], with the right-hand
    side at key ``bcol``; all other columns are unknowns.  The answer is
    x = -v[:bcol] / v[bcol] for the ``kernel_basis`` vector v of [A | b]
    whose free column is ``bcol``, its last one, so the free unknowns are
    zero.  Returns a list of length ``bcol`` of ints and Fractions (see
    ``ratio``), or None when ``bcol`` is a pivot: the system is
    inconsistent.
    """
    basis = kernel_basis(rows, bcol + 1)
    if not basis or not basis[-1][bcol]:
        return None
    *x, m = basis[-1]
    return [ratio(-v, m) for v in x]


class Echelon:
    """Incremental reduced echelon form of the span of added vectors.

    A vector is a sparse ``{col: value}`` dict, which may hold zero
    entries; ``reduce``, ``coords`` and ``basis`` answer with dicts of
    nonzero entries.  Each stored row is a primitive sparse integer row
    that leads at its pivot column and is zero at every other pivot
    column, so it is a multiple of the row of the reduced row echelon
    form (RREF) with the same pivot.

    Past column ``ncols`` rows carry bookkeeping columns, which are never
    pivots.  A row (x | m | t) stands for the relation
    x = m*v + sum_k t_k*u_k, where v is the vector being reduced (column
    ``ncols``) and u_k the k-th added vector (column ``ncols + 1 + k``).
    Row operations preserve relations, so after reduction x/m is the
    residual of v and, when x = 0, -t/m are its coordinates.
    """

    def __init__(self, ncols, vectors=()):
        self.ncols = ncols
        self._rows = {}  # pivot column -> (cols, vals)
        self._added = 0
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, cols, vals):
        """Clear every pivot column of a sparse integer row."""
        rows = self._rows
        # stored rows are zero at each other's pivots: no pivot is created
        for c in [c for c in cols if c in rows]:
            pcols, pvals = rows[c]
            cols, vals = combine(pcols, pvals, cols, vals)
        return cols, vals

    def add(self, vector) -> bool:
        """Add a vector; True when it enlarged the span."""
        n = self.ncols
        cols, vals = self._reduce(*_int_row(vector, n + 1 + self._added))
        self._added += 1
        if not cols or cols[0] >= n:
            return False
        p = cols[0]
        rows = self._rows
        for c, (rcols, rvals) in rows.items():
            k = bisect_left(rcols, p)
            if k < len(rcols) and rcols[k] == p:
                rows[c] = combine(cols, vals, rcols, rvals)
        rows[p] = (cols, vals)
        return True

    def reduce(self, vector):
        """Canonical residual: v minus a member of the span, zero on every pivot."""
        n = self.ncols
        cols, vals = self._reduce(*_int_row(vector, n))
        k = bisect_left(cols, n)
        m = vals[k]
        return {c: ratio(x, m) for c, x in zip(cols[:k], vals)}

    def contains(self, vector) -> bool:
        cols, _ = self._reduce(*_int_row(vector))
        return not cols or cols[0] >= self.ncols

    def coords(self, vector):
        """Nonzero coefficients {k: c} of a member on the added vectors u_k.

        None for a vector outside the span.
        """
        n = self.ncols
        cols, vals = self._reduce(*_int_row(vector, n))
        if cols[0] < n:
            return None
        m = vals[0]
        return {c - n - 1: ratio(-x, m) for c, x in zip(cols[1:], vals[1:])}

    @property
    def basis(self):
        """The RREF rows of the span, as {col: value} dicts of nonzero entries."""
        n = self.ncols
        out = []
        for p in sorted(self._rows):
            cols, vals = self._rows[p]
            lead = vals[0]
            out.append({c: ratio(x, lead)
                        for c, x in zip(cols[:bisect_left(cols, n)], vals)})
        return out
