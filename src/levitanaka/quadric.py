"""Vector-valued hermitian forms and the graded algebra of their quadric.

A system of k hermitian n x n matrices A_a over the Gaussian rationals
defines H(z, z') = (z'* A_a z)_a, linear in the first argument.  When H
is nondegenerate (trivial joint kernel) and fundamental (components
independent over the reals), the degree -2/-1 algebra of the associated
quadric is built on the real basis e_1..e_n, Je_1..Je_n, t_1..t_k with

    [X, Y] = Im H(X, Y)

on the degree -1 part and J acting as multiplication by i.
"""

from __future__ import annotations

import json

from . import elimination
from .errors import (DegenerateFormError, InputError, NotFundamentalError, check,
                     json_field)
from .graded import GradedLieAlgebra
from .matrices import ExactMatrix
from .scalars import GaussRational


class HermitianFormSystem:
    """k hermitian n x n Gaussian-rational matrices."""

    def __init__(self, n, k, components):
        if len(components) != k:
            raise ValueError("component count mismatch")
        comps = []
        for a, m in enumerate(components):
            if m.nrows != n or m.ncols != n:
                raise ValueError(f"component {a} is not {n}x{n}")
            m = ExactMatrix(n, n, [x if isinstance(x, GaussRational)
                                   else GaussRational(x) for x in m.entries])
            if m.conj_transpose() != m:
                raise ValueError(f"component {a} is not hermitian")
            comps.append(m)
        self.n = n
        self.k = k
        self.components = comps

    # -- the two regularity conditions --------------------------------

    def joint_kernel(self):
        """Basis of the common kernel of all components."""
        if not self.k:
            return [self._unit(i) for i in range(self.n)]
        stacked_rows = []
        for m in self.components:
            stacked_rows.extend(m.to_rows())
        return ExactMatrix.from_rows(stacked_rows).kernel_vectors()

    def _unit(self, i):
        """The unit vector e_{i+1} of C^n."""
        return [GaussRational(int(i == j)) for j in range(self.n)]

    def real_dependency(self):
        """Real coefficients annihilating the components, or None.

        Entry e of a component is the real coordinates 2e and 2e + 1."""
        rows = elimination.coefficient_rows(
            (a, {c: part for e, x in enumerate(m.entries)
                 for c, part in ((2 * e, x.re), (2 * e + 1, x.im))}, 1)
            for a, m in enumerate(self.components))
        vecs = elimination.kernel_basis(rows, self.k)
        return vecs[0] if vecs else None

    # -- the fundamental graded algebra ---------------------------------

    def build_m_minus(self) -> GradedLieAlgebra:
        """Degrees -2/-1 graded algebra of the quadric, with J."""
        # with no component the kernel is all of C^n: its first basis vector
        # e_1 is the witness, built without the n^2 entries of the others
        kern = self.joint_kernel() if self.k else [self._unit(0)][:self.n]
        if kern:
            raise DegenerateFormError([str(x) for x in kern[0]])
        dep = self.real_dependency()
        if dep is not None:
            raise NotFundamentalError([str(x) for x in dep])
        n, k = self.n, self.k
        names = [f"e{a+1}" for a in range(n)] + [f"Je{a+1}" for a in range(n)] \
            + [f"t{a+1}" for a in range(k)]
        degrees = [-1] * (2 * n) + [-2] * k
        table = {}

        def put(i, j, vals):
            comp = {2 * n + a: v for a, v in enumerate(vals) if v}
            if comp:
                table[(i, j)] = comp

        # [e_a, e_b] = Im A[b,a];   [e_a, Je_b] = -Re A[b,a]
        # [Je_a, Je_b] = Im A[b,a]; [Je_a, e_b] =  Re A[b,a]
        for a in range(n):
            for b in range(n):
                im = [m.entry(b, a).im for m in self.components]
                re = [m.entry(b, a).re for m in self.components]
                if a < b:
                    put(a, b, im)
                    put(n + a, n + b, im)
                put(a, n + b, [-x for x in re])
        jrows = [[0] * (2 * n) for _ in range(2 * n)]
        for a in range(n):
            jrows[n + a][a] = 1
            jrows[a][n + a] = -1
        return GradedLieAlgebra(names, degrees, table,
                                ExactMatrix.from_rows(jrows))

    def m_minus_with_checks(self):
        """build_m_minus with its two regularity checks as report entries.

        Returns (m, checks): checks holds the "nondegenerate" and
        "fundamental" report checks (``errors.check``) up to the first
        that fails, and m is None when one fails.
        """
        try:
            m = self.build_m_minus()
        except DegenerateFormError as exc:
            return None, [check("nondegenerate", False, exc.witness)]
        except NotFundamentalError as exc:
            return None, [check("nondegenerate", True),
                          check("fundamental", False, exc.relation)]
        return m, [check("nondegenerate", True), check("fundamental", True)]

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {"n": self.n, "k": self.k,
                "components": [[x.to_json() for x in m.entries]
                               for m in self.components]}

    @classmethod
    def from_json(cls, obj):
        """A form system from its ``to_json`` object.

        A malformed or missing field raises InputError naming it.
        """
        n = json_field(obj, "n", int)
        k = json_field(obj, "k", int)
        if n < 0 or k < 0:
            raise InputError("fields 'n' and 'k' must be non-negative")
        flats = json_field(obj, "components", list)
        if len(flats) != k:
            raise InputError(f"field 'components' holds {len(flats)} matrices, "
                             f"not k = {k}")
        comps = []
        for a, flat in enumerate(flats):
            if not isinstance(flat, list) or len(flat) != n * n:
                raise InputError(f"field 'components' matrix {a} must be a list "
                                 f"of n * n = {n * n} entries")
            entries = []
            for x in flat:
                if not (isinstance(x, dict) and "re" in x and "im" in x):
                    raise InputError(
                        f"field 'components' matrix {a} holds {json.dumps(x)}, "
                        'not {"re": "p/q", "im": "p/q"}')
                try:
                    entries.append(GaussRational.from_json(x))
                except (TypeError, ValueError) as exc:
                    raise InputError(f"field 'components' matrix {a}: {exc}") from None
            comps.append(ExactMatrix(n, n, entries))
        return cls(n, k, comps)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    def __repr__(self):
        return f"HermitianFormSystem(n={self.n}, k={self.k})"


def diagonal_form(signature) -> HermitianFormSystem:
    """k = 1 system with the given diagonal +-1 entries."""
    n = len(signature)
    entries = [GaussRational(signature[i]) if i == j else GaussRational(0)
               for i in range(n) for j in range(n)]
    return HermitianFormSystem(n, 1, [ExactMatrix(n, n, entries)])


def extract_components(n, parameter_positions) -> HermitianFormSystem:
    """Hermitian components of a matrix with complex-parameter entries.

    ``parameter_positions`` lists, per complex parameter, the 1-based
    (row, col) positions where the parameter itself appears; the mirror
    position carries its conjugate.  The output has one component per
    real coordinate, ordered (Re p1, Im p1, Re p2, ...).
    """
    comps = []
    for positions in parameter_positions:
        re = [[GaussRational(0) for _ in range(n)] for _ in range(n)]
        im = [[GaussRational(0) for _ in range(n)] for _ in range(n)]
        for (r, c) in positions:
            r -= 1
            c -= 1
            re[r][c] = re[r][c] + GaussRational(1)
            re[c][r] = re[c][r] + GaussRational(1)
            im[r][c] = im[r][c] + GaussRational(0, 1)
            im[c][r] = im[c][r] + GaussRational(0, -1)
        comps.append(ExactMatrix.from_rows(re))
        comps.append(ExactMatrix.from_rows(im))
    return HermitianFormSystem(n, 2 * len(parameter_positions), comps)
