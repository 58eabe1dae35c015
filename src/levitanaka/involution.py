"""Involutive-certificate machinery for grading-reversing symmetries.

For each diagram we store the classical maximal set of positive strongly
orthogonal roots whose reflections multiply to the longest Weyl element;
squares of the lifted reflections act on a highest-weight space V^lambda
by (-1)^{<beta^vee, lambda>}, so parities of coroot pairings against the
fundamental weights decide whether the lifted product is involutive with
the right central sign.  Everything is certified on integer simple-root
coefficients (see ``rootdata``); no group elements are constructed, and
the ambient realization appears only in what is handed back.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import FactorDescriptor, grading_data
from .errors import KindError, NonIntegralPairingError, WordInvalidError

Q = Fraction

BOTH = "BOTH"
GAMMA_PRIME_ONLY = "GAMMA_PRIME_ONLY"
KIND1_GAMMA = "KIND1_GAMMA"
KIND1_NONE = "KIND1_NONE"

# the four strongly orthogonal roots for E6, as simple-root coefficients
_E6_WORD_COEFFS = [
    (1, 0, 1, 1, 1, 1),
    (1, 2, 2, 3, 2, 1),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 1, 1, 1, 0),
]


class OrthogonalWord:
    """Strongly orthogonal positive roots multiplying to w_0.

    ``coeffs`` holds the roots as simple-root coefficient tuples.
    """

    def __init__(self, coeffs, family, rank):
        self.coeffs = coeffs
        self.family = family
        self.rank = rank

    def __repr__(self):
        return f"OrthogonalWord({self.family}{self.rank}, {len(self.coeffs)} roots)"


def _word_coeffs(family, l):
    """The stored word of one diagram, as simple-root coefficient tuples."""
    nodes = range(1, l + 1)
    if family == "A":
        # e_j - e_{l+2-j} = alpha_j + ... + alpha_{l+1-j}
        return [tuple(int(j <= k <= l + 1 - j) for k in nodes)
                for j in range(1, (l + 1) // 2 + 1)]
    if family == "D":
        roots = []
        for i in range(1, l // 2 + 1):
            a = 2 * i - 1
            if a == l - 1:
                plus = tuple(int(k == l) for k in nodes)  # alpha_l
            else:
                # e_a + e_{a+1} = alpha_a + 2(alpha_{a+1} + ... +
                # alpha_{l-2}) + alpha_{l-1} + alpha_l
                plus = tuple(0 if k < a else 1 if k == a or k >= l - 1 else 2
                             for k in nodes)
            roots.append(plus)
            roots.append(tuple(int(k == a) for k in nodes))  # e_a - e_{a+1}
        return roots
    return list(_E6_WORD_COEFFS)


def _matmul(x, y):
    return [[sum(a * y[k][j] for k, a in enumerate(row)) for j in range(len(y[0]))]
            for row in x]


def orthogonal_word(d: FactorDescriptor) -> OrthogonalWord:
    """The stored word for the descriptor's diagram, fully verified."""
    rs = d.root_system()
    word = _word_coeffs(rs.family, rs.rank)
    for b in word:
        if not rs.is_positive_root(b):
            raise WordInvalidError(f"{list(b)} is not a positive root")
    for i, b in enumerate(word):
        for c in word[i + 1:]:
            if rs.is_root([x + y for x, y in zip(b, c)]) or \
                    rs.is_root([x - y for x, y in zip(b, c)]):
                raise WordInvalidError("word is not strongly orthogonal")
    mats = [rs.reflection(b) for b in word]
    for i, ma in enumerate(mats):
        for mb in mats[i + 1:]:
            if _matmul(ma, mb) != _matmul(mb, ma):
                raise WordInvalidError("word reflections do not commute")
    # the reflections commute, so the order of the product does not matter
    product = mats[0]
    for m in mats[1:]:
        product = _matmul(product, m)
    if [tuple(row) for row in product] != rs.w0_rows():
        raise WordInvalidError("word product is not the longest element")
    return OrthogonalWord(word, d.family, d.rank)


def _grading_coeffs(d: FactorDescriptor):
    """The grading element on the simple roots: the sum of omega_i over the
    support.  Since (omega_j, alpha_k) = delta_jk, omega_j(E) is entry j.

    Raises AdmissibilityError when d is not admissible.
    """
    weights = d.root_system().fundamental_weight_coeffs()
    e = [0] * d.rank
    for i in grading_data(d).support_indices():
        e = [x + y for x, y in zip(e, weights[i - 1])]
    return e


def grading_vector(d: FactorDescriptor):
    """Realization vector of the grading element on one diagram copy.

    Raises AdmissibilityError when d is not admissible.
    """
    return d.root_system().to_ambient(_grading_coeffs(d))


def parity_table(w: OrthogonalWord, d: FactorDescriptor):
    """Square-sign parities of the lifted word on each fundamental module.

    Row j: parity = sum_i <beta_i^vee, omega_j> mod 2, expected =
    2 omega_j(E) mod 2, and whether the two agree (the lifted product
    squares to the required central sign on V^{omega_j}).  The pairing
    <beta^vee, omega_j> is the j-th simple-root coefficient of beta.
    """
    e = _grading_coeffs(d)
    rows = []
    for j in range(w.rank):
        parity = sum(b[j] for b in w.coeffs) % 2
        two_omega_e = Q(2 * e[j])
        if two_omega_e.denominator != 1:
            raise NonIntegralPairingError(
                f"2 omega_{j + 1}(E) = {two_omega_e} is not an integer")
        expected = int(two_omega_e) % 2
        rows.append({"weight": j + 1, "parity": parity,
                     "expected": expected, "match": parity == expected})
    return rows


def kind1_degree_one_subword(d: FactorDescriptor):
    """Degree-1 roots of the word, for kind-1 factors in the hermitian list.

    Verifies the defining identity: the grading vector equals half the
    sum of the degree-1 coroots (simply laced: roots).  Returns them as
    ambient vectors.
    """
    g = grading_data(d)
    if g.kind != 1:
        raise KindError("degree-one subword is a kind-1 construction")
    w = orthogonal_word(d)
    support = g.support_indices()
    # beta(E) is the sum of beta's coefficients on the support
    sub = [b for b in w.coeffs if sum(b[i - 1] for i in support) == 1]
    half_sum = [Q(sum(b[k] for b in sub), 2) for k in range(d.rank)]
    if half_sum != _grading_coeffs(d):
        raise WordInvalidError("degree-1 subword does not rebuild the grading")
    rs = d.root_system()
    return [rs.to_ambient(b) for b in sub]


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


def certificate_report(d: FactorDescriptor) -> dict:
    """Serializable certificate bundle for one factor.

    Contains the descriptor, the strongly orthogonal word as simple-root
    coefficient vectors, the parity table, and the certificate case.
    """
    w = orthogonal_word(d)
    rows = parity_table(w, d)
    return {
        "descriptor": d.to_json(),
        "word": [list(b) for b in w.coeffs],
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
