"""Exact root systems for the A, D and E6 families, in simple-root coordinates.

A root system is integer data.  The Cartan matrix C is read off the
Dynkin diagram.  The positive roots are int tuples of coefficients on the
simple roots, found by closing the simple roots under the simple
reflections s_i(c) = c - (Cc)_i e_i.  C is 2 on the diagonal and -1 on
the edges, so (Cc)_i = 2 c_i - sum of c_j over the neighbours j of i, and
a reflection reads the neighbour list of i, not a dense row of C.  The
families are simply laced, so
every root has (beta, beta) = 2 and <beta^vee, gamma> = (beta, gamma) =
b^T C c is an integer; in particular <beta^vee, omega_j> is the j-th
coefficient of beta.  The longest Weyl element w_0 is a word found by
the rho descent in fundamental-weight coordinates, and an integer matrix
on the simple-root coefficients.  Only C^-1, the fundamental weights on
the simple roots, is rational.  Node numbering matches the usual tables.

The ambient realization is an output map, built only when asked for:
A_l lives in the sum-zero hyperplane of Q^{l+1} with alpha_i = e_i -
e_{i+1}; D_l in Q^l with alpha_l = e_{l-1} + e_l; E6 in the
8-dimensional realization with its half-integral first simple root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from . import elimination
from .errors import NonIntegralPairingError, certify
from .scalars import ratio

Q = Fraction

FAMILIES = ("A", "D", "E6")


@lru_cache(maxsize=None)
def root_system(family: str, rank: int) -> "RootSystem":
    """Shared cache: root systems are immutable and expensive to rebuild."""
    return RootSystem(family, rank)


def dynkin_edges(family: str, rank: int):
    """1-based edges of one diagram copy."""
    if family in ("A", "D"):
        edges = [(i, i + 1) for i in range(1, rank)]
        if family == "D":
            edges[-1] = (rank - 2, rank)  # the fork: l-2 meets l-1 and l
        return edges
    if family == "E6":
        return [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    raise ValueError(f"unsupported family {family}")


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Q(0))


class RootSystem:
    """Cartan matrix, positive roots and longest element of one diagram."""

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
        cartan = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
        neighbours = [[] for _ in range(rank)]
        for i, j in dynkin_edges(family, rank):
            cartan[i - 1][j - 1] = cartan[j - 1][i - 1] = -1
            neighbours[i - 1].append(j - 1)
            neighbours[j - 1].append(i - 1)
        self.cartan_matrix = cartan
        # the Dynkin graph, 0-based; reflect and classify read it
        self.neighbours = neighbours
        self._positive = self._close_simple_roots()
        self._positive_set = frozenset(self._positive)
        self._highest = None
        self._fundamental = None
        self._w0 = None

    # -- positive roots ----------------------------------------------------

    def reflect(self, i, c):
        """s_i(c) = c - (Cc)_i e_i on simple-root coefficients.

        (Cc)_i = 2 c_i - sum_{j ~ i} c_j, so the new c_i is that sum - c_i.
        """
        out = list(c)
        out[i] = sum(c[j] for j in self.neighbours[i]) - c[i]
        return tuple(out)

    def reflection(self, b):
        """Integer matrix of s_beta on the simple-root coefficients.

        Row i is s_beta(alpha_i) = alpha_i - (Cb)_i beta, so the matrix
        acts on coefficient rows from the right.
        """
        cb = [sum(a * x for a, x in zip(row, b)) for row in self.cartan_matrix]
        return [[int(i == j) - cb[i] * b[j] for j in range(self.rank)]
                for i in range(self.rank)]

    def _close_simple_roots(self):
        l = self.rank
        frontier = [tuple(int(j == i) for j in range(l)) for i in range(l)]
        seen = set(frontier)
        while frontier:
            new_frontier = []
            for c in frontier:
                for i in range(l):
                    r = self.reflect(i, c)
                    if min(r) >= 0 and r not in seen:
                        seen.add(r)
                        new_frontier.append(r)
            frontier = new_frontier
        return sorted(seen, key=lambda c: (sum(c), c))

    def is_positive_root(self, c) -> bool:
        return tuple(c) in self._positive_set

    def is_root(self, c) -> bool:
        return self.is_positive_root(c) or self.is_positive_root(-x for x in c)

    def highest_root(self):
        """Simple-root coefficients of the maximal positive root.

        Its maximality is certified on the first call: adding any simple
        root leaves the system.
        """
        if self._highest is None:
            top = self._positive[-1]
            for i in range(self.rank):
                up = list(top)
                up[i] += 1
                certify(not self.is_root(up), "highest root candidate not maximal")
            self._highest = top
        return self._highest

    # -- fundamental weights ------------------------------------------------

    def fundamental_weight_coeffs(self):
        """omega_j on the simple roots: row j of C^-1, rational."""
        if self._fundamental is not None:
            return self._fundamental
        l = self.rank
        # omega_j = sum_k x_k alpha_k with C x = e_j: coordinates of e_j
        # on the columns of the Cartan matrix C
        cartan = elimination.Echelon(
            l, [{t: row[k] for t, row in enumerate(self.cartan_matrix)}
                for k in range(l)])
        if cartan.rank != l:
            raise ValueError("matrix is singular")
        coords = [cartan.coords({j: 1}) for j in range(l)]
        self._fundamental = [[x.get(k, 0) for k in range(l)] for x in coords]
        return self._fundamental

    # -- longest element -----------------------------------------------------

    def w0_rows(self):
        """Row i: the coefficients of w_0(alpha_i) on the simple roots.

        The rows are int tuples, cached; the list must not be changed.

        On the first call the w_0 word comes from the rho descent: rho =
        (1, ..., 1) in fundamental-weight coordinates, and s_i(lam) = lam
        - lam_i alpha_i, where alpha_i has the coordinates of row i of C.
        Its length is certified to be the number of positive roots, and
        each row to be a negative root.
        """
        if self._w0 is None:
            lam = [1] * self.rank
            word = []
            while True:
                i = next((i for i, x in enumerate(lam) if x > 0), None)
                if i is None:
                    break
                lam = [y - lam[i] * a for y, a in zip(lam, self.cartan_matrix[i])]
                word.append(i)
            certify(len(word) == len(self._positive),
                    "w0 word length is not the number of positive roots")
            rows = []
            for i in range(self.rank):
                c = tuple(int(j == i) for j in range(self.rank))
                for j in word:
                    c = self.reflect(j, c)
                certify(self.is_positive_root(-x for x in c),
                        "w0 image is not a negative root")
                rows.append(c)
            self._w0 = rows
        return self._w0

    # -- ambient realization (output only) ------------------------------------

    @cached_property
    def simple_roots(self):
        """The simple roots as ambient Fraction vectors."""
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

    @property
    def ambient(self) -> int:
        return len(self.simple_roots[0])

    def to_ambient(self, coeffs):
        """The ambient vector sum_k coeffs[k] alpha_k."""
        v = [Q(0)] * self.ambient
        for c, a in zip(coeffs, self.simple_roots):
            if c:
                v = [x + c * y for x, y in zip(v, a)]
        return v

    def fundamental_weights(self):
        """omega_j with <alpha_i^vee, omega_j> = delta_ij, as ambient vectors."""
        return [self.to_ambient(w) for w in self.fundamental_weight_coeffs()]

    def coroot_pairing(self, alpha, lam) -> int:
        """<alpha^vee, lam> = 2(alpha, lam)/(alpha, alpha) of ambient vectors,
        for lam in the weight lattice."""
        value = ratio(2 * _dot(alpha, lam), _dot(alpha, alpha))
        if type(value) is not int:
            raise NonIntegralPairingError(f"pairing {value} is not an integer")
        return value

    def __repr__(self):
        return f"RootSystem({self.family}, {self.rank})"
