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
from fractions import Fraction

from .errors import DegenerateFormError, NotFundamentalError
from .graded import GradedLieAlgebra
from .matrices import ExactMatrix
from .scalars import GaussRational

Q = Fraction


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
        stacked_rows = []
        for m in self.components:
            stacked_rows.extend(m.to_rows())
        if not stacked_rows:
            return [[GaussRational(1) if i == j else GaussRational(0)
                     for j in range(self.n)] for i in range(self.n)]
        return ExactMatrix.from_rows(stacked_rows).kernel_vectors()

    def is_nondegenerate(self) -> bool:
        return not self.joint_kernel()

    def real_dependency(self):
        """Real coefficients annihilating the components, or None."""
        rows = []
        for m in self.components:
            row = []
            for x in m.entries:
                row.append(x.re)
                row.append(x.im)
            rows.append(row)
        mat = ExactMatrix.from_rows(rows).transpose()
        vecs = mat.kernel_vectors()
        return vecs[0] if vecs else None

    def is_fundamental(self) -> bool:
        return self.real_dependency() is None

    # -- evaluation ----------------------------------------------------

    def evaluate(self, z, zprime):
        """H(z, z') componentwise; arguments are GaussRational vectors."""
        out = []
        for m in self.components:
            s = GaussRational(0)
            for r in range(self.n):
                zr = zprime[r].conjugate()
                if not zr:
                    continue
                for c in range(self.n):
                    a = m.entry(r, c)
                    if a and z[c]:
                        s = s + zr * a * z[c]
            out.append(s)
        return out

    # -- the fundamental graded algebra ---------------------------------

    def build_m_minus(self) -> GradedLieAlgebra:
        """Degrees -2/-1 graded algebra of the quadric, with J."""
        kern = self.joint_kernel()
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
        jrows = [[Q(0)] * (2 * n) for _ in range(2 * n)]
        for a in range(n):
            jrows[n + a][a] = Q(1)
            jrows[a][n + a] = Q(-1)
        return GradedLieAlgebra(names, degrees, table,
                                ExactMatrix.from_rows(jrows))

    def m_minus_with_checks(self):
        """build_m_minus with its two regularity checks as report entries.

        Returns (m, checks): checks holds the "nondegenerate" and
        "fundamental" entries ({"name", "status", "witness"}) up to the
        first that fails, and m is None when one fails.
        """
        nondegenerate = {"name": "nondegenerate", "status": "pass", "witness": None}
        fundamental = {"name": "fundamental", "status": "pass", "witness": None}
        try:
            return self.build_m_minus(), [nondegenerate, fundamental]
        except DegenerateFormError as exc:
            nondegenerate.update(status="fail", witness=exc.witness)
            return None, [nondegenerate]
        except NotFundamentalError as exc:
            fundamental.update(status="fail", witness=exc.relation)
            return None, [nondegenerate, fundamental]

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {"n": self.n, "k": self.k,
                "components": [[x.to_json() for x in m.entries]
                               for m in self.components]}

    @classmethod
    def from_json(cls, obj):
        n = obj["n"]
        comps = [ExactMatrix(n, n, [GaussRational.from_json(x) for x in flat])
                 for flat in obj["components"]]
        return cls(n, obj["k"], comps)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

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
