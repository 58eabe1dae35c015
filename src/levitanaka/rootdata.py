"""Exact root systems for the A, D and E6 families.

Coordinate realizations follow the standard conventions: A_l lives in
the sum-zero hyperplane of Q^{l+1} with alpha_i = e_i - e_{i+1}; D_l in
Q^l with alpha_l = e_{l-1} + e_l; E6 in the 8-dimensional realization
with its half-integral first simple root.  Node numbering matches the
usual tables.  All pairings are realization-independent integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import elimination
from .errors import NonIntegralPairingError
from .matrices import ExactMatrix

Q = Fraction

FAMILIES = ("A", "D", "E6")


@lru_cache(maxsize=None)
def root_system(family: str, rank: int) -> "RootSystem":
    """Shared cache: root systems are immutable and expensive to rebuild."""
    return RootSystem(family, rank)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Q(0))


class WeylElement:
    """Word in simple reflections together with its orthogonal matrix."""

    def __init__(self, word, matrix):
        self.word = list(word)
        self.matrix = matrix

    def apply(self, v):
        return self.matrix.apply_sparse(list(v))

    def __repr__(self):
        return f"WeylElement(length={len(self.word)})"


class RootSystem:
    """Simple roots, Cartan matrix and Weyl combinatorics for one family."""

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unsupported family {family!r}")
        if family == "A" and rank < 1:
            raise ValueError("A requires rank >= 1")
        if family == "D" and rank < 4:
            raise ValueError("D requires rank >= 4")
        if family == "E6" and rank != 6:
            raise ValueError("E6 has rank 6")
        self.family = family
        self.rank = rank
        self.simple_roots = self._simple_roots()
        self.ambient = len(self.simple_roots[0])
        self.cartan_matrix = [
            [int(self.pairing(a, b)) for b in self.simple_roots]
            for a in self.simple_roots]
        self._positive = None
        self._coeffs = None
        self._fundamental = None
        self._longest = None

    def _simple_roots(self):
        l = self.rank
        if self.family == "A":
            dim = l + 1
            return [[Q(int(j == i)) - Q(int(j == i + 1)) for j in range(dim)]
                    for i in range(l)]
        if self.family == "D":
            roots = [[Q(int(j == i)) - Q(int(j == i + 1)) for j in range(l)]
                     for i in range(l - 1)]
            roots.append([Q(int(j == l - 2)) + Q(int(j == l - 1))
                          for j in range(l)])
            return roots
        half = Q(1, 2)
        a1 = [half, -half, -half, -half, -half, -half, -half, half]
        a2 = [Q(1), Q(1)] + [Q(0)] * 6
        rest = [[Q(int(j == i - 1)) * -1 + Q(int(j == i)) for j in range(8)]
                for i in range(1, 5)]
        return [a1, a2] + rest

    # -- pairings ---------------------------------------------------------

    def pairing(self, alpha, beta) -> Q:
        """<alpha^vee, beta> = 2(alpha, beta)/(alpha, alpha)."""
        return 2 * _dot(alpha, beta) / _dot(alpha, alpha)

    def coroot_pairing(self, alpha, lam) -> int:
        """Integer pairing of a coroot with a weight-lattice vector."""
        value = self.pairing(alpha, lam)
        if value.denominator != 1:
            raise NonIntegralPairingError(f"pairing {value} is not an integer")
        return int(value)

    def reflect(self, alpha, v):
        c = 2 * _dot(alpha, v) / _dot(alpha, alpha)
        return [x - c * a for x, a in zip(v, alpha)]

    def reflection_matrix(self, alpha) -> ExactMatrix:
        n = self.ambient
        cols = []
        for j in range(n):
            unit = [Q(int(t == j)) for t in range(n)]
            cols.append(self.reflect(alpha, unit))
        return ExactMatrix.from_rows(
            [[cols[j][i] for j in range(n)] for i in range(n)])

    # -- positive roots ----------------------------------------------------

    def positive_roots(self):
        """All positive roots with their simple-root coefficient vectors.

        Returned as a list of (vector, coeffs) generated by closing the
        simple roots under simple reflections; sorted by (height, coeffs).
        """
        if self._positive is not None:
            return self._positive
        simple = self.simple_roots
        seen = {}
        frontier = []
        for i, a in enumerate(simple):
            coeffs = tuple(int(j == i) for j in range(self.rank))
            seen[tuple(a)] = coeffs
            frontier.append((a, coeffs))
        while frontier:
            new_frontier = []
            for vec, coeffs in frontier:
                for i, a in enumerate(simple):
                    w = self.reflect(a, vec)
                    c = 2 * _dot(a, vec) / _dot(a, a)
                    nc = list(coeffs)
                    nc[i] -= int(c)
                    if all(x >= 0 for x in nc) and any(nc):
                        key = tuple(w)
                        if key not in seen:
                            seen[key] = tuple(nc)
                            new_frontier.append((w, tuple(nc)))
            frontier = new_frontier
        out = [([Q(x) for x in vec], list(coeffs))
               for vec, coeffs in seen.items()]
        out.sort(key=lambda rc: (sum(rc[1]), rc[1]))
        self._positive = out
        self._coeffs = {tuple(vec): coeffs for vec, coeffs in out}
        return out

    def root_vectors(self):
        return [vec for vec, _ in self.positive_roots()]

    def positive_root_coeffs(self):
        """Map from each positive root, as a tuple, to its simple-root coefficients."""
        self.positive_roots()
        return self._coeffs

    def positive_root_set(self):
        """The positive roots as a set of tuples, for membership tests."""
        return self.positive_root_coeffs().keys()

    def is_root(self, v) -> bool:
        vecs = self.positive_root_set()
        return tuple(Q(x) for x in v) in vecs or tuple(-Q(x) for x in v) in vecs

    def highest_root(self):
        """(vector, simple-root coefficients) of the maximal positive root."""
        pos = self.positive_roots()
        vec, coeffs = pos[-1]
        # maximality certificate: adding any simple root leaves the system
        for a in self.simple_roots:
            w = [x + y for x, y in zip(vec, a)]
            assert not self.is_root(w), "highest root candidate not maximal"
        return vec, coeffs

    # -- fundamental weights ------------------------------------------------

    def fundamental_weights(self):
        """omega_j with <alpha_i^vee, omega_j> = delta_ij, in the root span."""
        if self._fundamental is not None:
            return self._fundamental
        l = self.rank
        # omega_j = sum_k x_k alpha_k with C x = e_j: coordinates of e_j
        # on the columns of the Cartan matrix C
        cartan = elimination.Echelon(
            l, [[row[k] for row in self.cartan_matrix] for k in range(l)])
        if cartan.rank != l:
            raise ValueError("matrix is singular")
        weights = []
        for j in range(l):
            coeffs = cartan.coords([Q(int(t == j)) for t in range(l)])
            w = [Q(0)] * self.ambient
            for k in range(l):
                c = coeffs[k]
                if c:
                    w = [x + c * a for x, a in zip(w, self.simple_roots[k])]
            weights.append(w)
        self._fundamental = weights
        return weights

    # -- longest element -----------------------------------------------------

    def longest_element(self) -> WeylElement:
        """w_0 via the dominant-to-antidominant descent on rho."""
        if self._longest is not None:
            return self._longest
        rho = [Q(0)] * self.ambient
        for w in self.fundamental_weights():
            rho = [x + y for x, y in zip(rho, w)]
        word = []
        v = rho
        while True:
            i = next((i for i, a in enumerate(self.simple_roots)
                      if _dot(a, v) > 0), None)
            if i is None:
                break
            v = self.reflect(self.simple_roots[i], v)
            word.append(i)
        assert len(word) == len(self.positive_roots())
        mat = ExactMatrix.identity(self.ambient)
        for i in word:
            mat = self.reflection_matrix(self.simple_roots[i]) * mat
        w0 = WeylElement(word, mat)
        self._longest = w0
        return w0

    def w0_on_simple_coeffs(self):
        """Row i: coefficients of w_0(alpha_i) on the simple roots.

        Read as minus the coefficients of the positive root -w_0(alpha_i);
        the lookup certifies that w_0 sends each simple root to a negative root.
        """
        w0 = self.longest_element()
        coeffs = self.positive_root_coeffs()
        out = []
        for a in self.simple_roots:
            row = coeffs.get(tuple(-x for x in w0.apply(a)))
            assert row is not None, "w0 image is not a negative root"
            out.append([-c for c in row])
        return out

    def diagram_involution(self):
        """The permutation eps with w_0(alpha_i) = -alpha_{eps(i)}."""
        rows = self.w0_on_simple_coeffs()
        eps = {}
        for i, row in enumerate(rows):
            nz = [(j, c) for j, c in enumerate(row) if c]
            assert len(nz) == 1 and nz[0][1] == -1, "w0 is not -(involution)"
            eps[i] = nz[0][0]
        return eps

    def __repr__(self):
        return f"RootSystem({self.family}, {self.rank})"
