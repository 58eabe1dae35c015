"""Dense exact matrices over the rationals or Gaussian rationals.

Entries are ints where they are integral, Fractions where not (both
through ``scalars.exact``), or ``GaussRational``s; divisions go through
``scalars.ratio``.  A product walks the nonzero entries of each row of
the left factor against the nonzero entries of the right factor's rows,
so the many zeros of a sparse form cost nothing.

Rank, kernel and solve go through the sparse eliminator, which takes
the nonzero entries of each row as a {col: value} dict.  A
Gaussian-rational matrix is reduced by restriction of scalars: each
entry a+bi becomes the real 2x2 block [[a, -b], [b, a]], so complex
column j turns into the real columns 2j (real part) and 2j+1
(imaginary part).  The free columns of the real
block are the real and imaginary parts of the complex free columns, so
canonical kernel vectors and free-unknowns-zero solutions carry over.
"""

from __future__ import annotations

from . import elimination
from .scalars import GaussRational, exact, ratio


def _as_scalar(x):
    return x if type(x) is GaussRational else exact(x)


class ExactMatrix:
    """Immutable-by-convention dense matrix with exact entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries):
        if len(entries) != nrows * ncols:
            raise ValueError("entry count does not match shape")
        self.nrows = nrows
        self.ncols = ncols
        self.entries = [_as_scalar(x) for x in entries]

    # -- construction ------------------------------------------------

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    # -- access ------------------------------------------------------

    def entry(self, i, j):
        return self.entries[i * self.ncols + j]

    def row(self, i):
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def col(self, j):
        return [self.entries[i * self.ncols + j] for i in range(self.nrows)]

    def to_rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def is_gaussian(self) -> bool:
        return any(isinstance(x, GaussRational) for x in self.entries)

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return ExactMatrix(self.nrows, self.ncols,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def scale(self, c):
        c = _as_scalar(c)
        return ExactMatrix(self.nrows, self.ncols, [c * a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        n, m, k = self.nrows, other.ncols, self.ncols
        right = [[(j, b) for j, b in enumerate(other.row(t)) if b] for t in range(k)]
        out = []
        for i in range(n):
            sums = [0] * m
            for a, nonzero in zip(self.row(i), right):
                if a:
                    for j, b in nonzero:
                        sums[j] += a * b
            out += sums
        return ExactMatrix(n, m, out)

    def conj_transpose(self):
        def conj(x):
            return x.conjugate() if isinstance(x, GaussRational) else x
        return ExactMatrix(self.ncols, self.nrows,
                           [conj(self.entries[i * self.ncols + j])
                            for j in range(self.ncols) for i in range(self.nrows)])

    # -- rows for the sparse eliminator ---------------------------------

    def _real_block(self):
        """The 2m x 2n rational matrix of a Gaussian matrix (module docstring)."""
        rows = []
        for i in range(self.nrows):
            re_row = []
            im_row = []
            for x in self.row(i):
                x = _as_gauss(x)
                re_row += [x.re, -x.im]
                im_row += [x.im, x.re]
            rows += [re_row, im_row]
        return ExactMatrix(2 * self.nrows, 2 * self.ncols,
                           [x for r in rows for x in r])

    def _rows(self, augment=None):
        """Each nonzero row as a {col: value} dict; optionally append a column."""
        rows = []
        for i in range(self.nrows):
            row = {c: x for c, x in enumerate(self.row(i)) if x}
            if augment is not None and augment[i]:
                row[self.ncols] = exact(augment[i])
            if row:
                rows.append(row)
        return rows

    # -- rank / kernel / solve ----------------------------------------

    def rank(self) -> int:
        if self.is_gaussian():
            return elimination.rank(self._real_block()._rows(), 2 * self.ncols) // 2
        return elimination.rank(self._rows(), self.ncols)

    def kernel_vectors(self):
        """Basis of the right null space as plain vectors.

        Rational: primitive integer vectors.  Gaussian: one vector per
        free column, with entry 1 there.
        """
        if self.is_gaussian():
            basis = elimination.kernel_basis(self._real_block()._rows(),
                                             2 * self.ncols)
            out = []
            for v in basis:
                # a kernel vector is zero past its free column; an odd
                # (imaginary-part) free column repeats the even one times i
                f = max(c for c, x in enumerate(v) if x)
                if f % 2 == 0:
                    out.append(_from_real([ratio(x, v[f]) for x in v]))
            return out
        basis = elimination.kernel_basis(self._rows(), self.ncols)
        return [list(vec) for vec in basis]

    def solve(self, b):
        """Exact x with A x = b (free unknowns zero), or None."""
        if isinstance(b, ExactMatrix):
            b = b.col(0)
        if len(b) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        if self.is_gaussian() or any(isinstance(x, GaussRational) for x in b):
            rhs = [part for x in map(_as_gauss, b) for part in (x.re, x.im)]
            x = elimination.solve(self._real_block()._rows(augment=rhs), 2 * self.ncols)
            return None if x is None else _from_real(x)
        return elimination.solve(self._rows(augment=b), self.ncols)

    def det(self):
        """Determinant by dense Gauss elimination (small matrices only)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        rows = self.to_rows()
        n = self.nrows
        det = 1 if not self.is_gaussian() else GaussRational(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if rows[r][c]), None)
            if piv is None:
                return _as_scalar(det * 0)
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = -det
            det = det * rows[c][c]
            inv = rows[c][c]
            for r in range(c + 1, n):
                if rows[r][c]:
                    f = ratio(rows[r][c], inv)
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return _as_scalar(det)

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def _as_gauss(x):
    return x if isinstance(x, GaussRational) else GaussRational(x)


def _from_real(v):
    """Gaussian vector from its interleaved (real, imaginary) parts."""
    return [GaussRational(v[k], v[k + 1]) for k in range(0, len(v), 2)]