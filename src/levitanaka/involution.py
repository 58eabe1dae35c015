"""Involutive-certificate machinery for grading-reversing symmetries.

For each diagram we store the classical maximal set of positive strongly
orthogonal roots whose reflections multiply to the longest Weyl element;
squares of the lifted reflections act on a highest-weight space V^lambda
by (-1)^{<beta^vee, lambda>}, so parities of coroot pairings against the
fundamental weights decide whether the lifted product is involutive with
the right central sign.  Everything is certified at the weight-lattice
and matrix level; no group elements are constructed.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import FactorDescriptor, grading_data
from .errors import KindError, NonIntegralPairingError, PreconditionError, WordInvalidError
from .matrices import ExactMatrix
from .rootdata import _dot

Q = Fraction

BOTH = "BOTH"
GAMMA_ONLY = "GAMMA_ONLY"
GAMMA_PRIME_ONLY = "GAMMA_PRIME_ONLY"
KIND1_GAMMA = "KIND1_GAMMA"
KIND1_NONE = "KIND1_NONE"

# the four strongly orthogonal roots for E6, as simple-root coefficients
_E6_WORD_COEFFS = [
    [1, 0, 1, 1, 1, 1],
    [1, 2, 2, 3, 2, 1],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 1, 1, 1, 0],
]


class OrthogonalWord:
    """Strongly orthogonal positive roots multiplying to w_0."""

    def __init__(self, roots, descriptor, family, rank):
        self.roots = roots
        self.descriptor = descriptor
        self.family = family
        self.rank = rank

    def __repr__(self):
        return f"OrthogonalWord({self.family}{self.rank}, {len(self.roots)} roots)"


def _word_roots(rs):
    l = rs.rank
    if rs.family == "A":
        dim = l + 1
        roots = []
        for j in range(1, (l + 1) // 2 + 1):
            v = [Q(0)] * dim
            v[j - 1] = Q(1)
            v[l + 1 - j] = Q(-1)  # e_j - e_{l+2-j}, 1-based
            roots.append(v)
        return roots
    if rs.family == "D":
        roots = []
        for i in range(1, l // 2 + 1):
            for sign in (1, -1):
                v = [Q(0)] * l
                v[2 * i - 2] = Q(1)
                v[2 * i - 1] = Q(sign)
                roots.append(v)
        return roots
    roots = []
    for coeffs in _E6_WORD_COEFFS:
        v = [Q(0)] * rs.ambient
        for k, c in enumerate(coeffs):
            if c:
                v = [x + c * a for x, a in zip(v, rs.simple_roots[k])]
        roots.append(v)
    return roots


def orthogonal_word(d: FactorDescriptor) -> OrthogonalWord:
    """The stored word for the descriptor's diagram, fully verified."""
    rs = d.root_system()
    roots = _word_roots(rs)
    positives = rs.positive_root_set()
    for v in roots:
        if tuple(v) not in positives:
            raise WordInvalidError(f"{v} is not a positive root")
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            s = [x + y for x, y in zip(a, b)]
            t = [x - y for x, y in zip(a, b)]
            if rs.is_root(s) or rs.is_root(t):
                raise WordInvalidError("word is not strongly orthogonal")
    mats = [rs.reflection_matrix(v) for v in roots]
    for i, ma in enumerate(mats):
        for mb in mats[i + 1:]:
            if ma * mb != mb * ma:
                raise WordInvalidError("word reflections do not commute")
    product = ExactMatrix.identity(rs.ambient)
    for m in mats:
        product = product * m
    if product != rs.longest_element().matrix:
        raise WordInvalidError("word product is not the longest element")
    return OrthogonalWord(roots, d, d.family, d.rank)


def grading_vector(d: FactorDescriptor):
    """Realization vector of the grading element on one diagram copy.

    Raises AdmissibilityError when d is not admissible.
    """
    rs = d.root_system()
    weights = rs.fundamental_weights()
    e = [Q(0)] * rs.ambient
    for i in grading_data(d).support_indices():
        e = [x + y for x, y in zip(e, weights[i - 1])]
    return e


def parity_table(w: OrthogonalWord, d: FactorDescriptor):
    """Square-sign parities of the lifted word on each fundamental module.

    Row j: parity = sum_i <beta_i^vee, omega_j> mod 2, expected =
    2 omega_j(E) mod 2, and whether the two agree (the lifted product
    squares to the required central sign on V^{omega_j}).
    """
    rs = w.descriptor.root_system()
    weights = rs.fundamental_weights()
    e = grading_vector(d)
    rows = []
    for j, omega in enumerate(weights, start=1):
        parity = sum(rs.coroot_pairing(beta, omega) for beta in w.roots) % 2
        two_omega_e = 2 * _dot(omega, e)
        if two_omega_e.denominator != 1:
            raise NonIntegralPairingError(
                f"2 omega_{j}(E) = {two_omega_e} is not an integer")
        expected = int(two_omega_e) % 2
        rows.append({"weight": j, "parity": parity,
                     "expected": expected, "match": parity == expected})
    return rows


def kind1_degree_one_subword(d: FactorDescriptor):
    """Degree-1 roots of the word, for kind-1 factors in the hermitian list.

    Verifies the defining identity: the grading vector equals half the
    sum of the degree-1 coroots (simply laced: roots).
    """
    g = grading_data(d)
    if g.kind != 1:
        raise KindError("degree-one subword is a kind-1 construction")
    w = orthogonal_word(d)
    e = grading_vector(d)
    sub = [beta for beta in w.roots if _dot(beta, e) == 1]
    half_sum = [Q(0)] * len(e)
    for beta in sub:
        half_sum = [x + y / 2 for x, y in zip(half_sum, beta)]
    if half_sum != e:
        raise WordInvalidError("degree-1 subword does not rebuild the grading")
    return sub


def gamma_case(d: FactorDescriptor) -> str:
    """Which reversal certificates exist for one simple factor.

    Kind 2: BOTH means an involutive certificate and an order-4 one with
    the correct central signs; GAMMA_PRIME_ONLY means only the involutive
    one (D families of rank 0 mod 4, and the complex D pairs touching
    node 1).  Kind 1: KIND1_GAMMA when the involutive certificate exists
    alongside the generic order-4 one, KIND1_NONE when only the generic
    one does (complex A of rank 1 mod 4).
    """
    g = grading_data(d)
    l = d.rank
    if g.kind == 1:
        if d.family == "A" and l % 4 == 1:
            return KIND1_NONE
        return KIND1_GAMMA
    if g.kind != 2:
        raise KindError(f"gamma_case needs kind 1 or 2, got {g.kind}")
    if d.family in ("A", "E6"):
        return BOTH
    if l % 2 == 1:
        return BOTH
    if g.support_indices() == {l - 1, l}:
        return BOTH if l % 4 == 2 else GAMMA_PRIME_ONLY
    return GAMMA_PRIME_ONLY


def a_type_gamma(l: int, i: int) -> ExactMatrix:
    """Explicit (l+1)x(l+1) grading-reversing matrix for A-type factors.

    Antidiagonal identity blocks of size floor(l/2) around a middle block
    chosen by l mod 4 so the determinant is 1.  Verified: conjugation
    negates diag(1_i, 0, -1_i), det = 1, fourth power is the identity.
    """
    if not 1 <= i or 2 * i >= l + 1:
        raise PreconditionError("need 1 <= i < (l+1)/2")
    n = l + 1
    m = l // 2
    rows = [[Q(0)] * n for _ in range(n)]
    for r in range(m):
        rows[r][l - r] = Q(1)
        rows[l - r][r] = Q(1)
    mid = n - 2 * m
    if mid == 1:
        rows[m][m] = Q(1) if l % 4 == 0 else Q(-1)
    else:
        if l % 4 == 1:
            rows[m][m] = Q(1)
            rows[m + 1][m + 1] = Q(1)
        else:
            rows[m][m + 1] = Q(1)
            rows[m + 1][m] = Q(1)
    gamma = ExactMatrix.from_rows(rows)
    e = ExactMatrix.from_rows(
        [[Q(int(r == c)) * (1 if r < i else (-1 if r >= n - i else 0))
          for c in range(n)] for r in range(n)])
    assert gamma.det() == 1, "determinant normalization failed"
    ginv = gamma  # gamma^2 = Id for every middle block, so gamma^-1 = gamma
    assert gamma * gamma == ExactMatrix.identity(n)
    conj = gamma * e * ginv
    assert conj == e.scale(Q(-1)), "conjugation does not reverse the grading"
    return gamma


def certificate_report(d: FactorDescriptor) -> dict:
    """Serializable certificate bundle for one factor.

    Contains the descriptor, the strongly orthogonal word as simple-root
    coefficient vectors, the parity table, and the certificate case.
    """
    w = orthogonal_word(d)
    coeffs = d.root_system().positive_root_coeffs()
    word_coeffs = [coeffs[tuple(beta)] for beta in w.roots]
    rows = parity_table(w, d)
    return {
        "descriptor": d.to_json(),
        "word": word_coeffs,
        "parity_table": {str(r["weight"]): {"parity": r["parity"],
                                            "expected": r["expected"],
                                            "match": r["match"]}
                         for r in rows},
        "gamma_case": gamma_case(d),
    }


def s_property_sufficient(kind2_factors, kind1_factors,
                          is_semisimple: bool) -> bool:
    """Sufficient conditions for an involutive reversal of the whole algebra.

    True when the algebra is semisimple, or no kind-1 factor is complex A
    of rank 1 mod 4, or no kind-2 factor is a D family of even rank.
    """
    if is_semisimple:
        return True
    cond2 = not any(d.family == "A" and d.is_complex and d.rank % 4 == 1
                    for d in kind1_factors)
    if cond2:
        return True
    cond3 = not any(d.family == "D" and d.rank % 2 == 0
                    for d in kind2_factors)
    return cond3
