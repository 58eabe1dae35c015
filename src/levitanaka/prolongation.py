"""Maximal pseudocomplex (Tanaka) prolongation of a kind-2 fundamental pair.

Input: a graded algebra m with degrees -2/-1 only, fundamental,
nondegenerate, carrying a complex structure J with [JX, JY] = [X, Y].

Degree 0 is the space of pairs (D_{-1}, D_{-2}) of endomorphisms that
are derivations of the bracket and commute with J; each degree p >= 1 is
the space of pairs u = (u_{-1}: g_{-1} -> g_{p-1}, u_{-2}: g_{-2} -> g_{p-2})
satisfying the two derivation identities against brackets already known
on lower layers.  Each layer is one exact kernel computation.  Brackets
between nonnegative layers are recovered from commutators of actions and
re-expressed in layer coordinates (unique by transitivity).

Iteration stops at the first vanishing layer; the assembled algebra is
re-validated in full and its grading element computed.
"""

from __future__ import annotations

from fractions import Fraction

from . import elimination
from .errors import CapReachedError, PreconditionError
from .graded import GradedLieAlgebra, _int_sparse_row
from .matrices import ExactMatrix

Q = Fraction


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
    # J compatibility [JX, JY] = [X, Y] on basis pairs
    for a in range(n1):
        ja = [Q(0)] * m.dim
        for t in range(n1):
            ja[block1[t]] = m.J.entry(t, a)
        for b in range(a + 1, n1):
            jb = [Q(0)] * m.dim
            for t in range(n1):
                jb[block1[t]] = m.J.entry(t, b)
            xa = [Q(int(i == block1[a])) for i in range(m.dim)]
            xb = [Q(int(i == block1[b])) for i in range(m.dim)]
            if m.bracket(ja, jb) != m.bracket(xa, xb):
                raise PreconditionError("J is not bracket-compatible")
    # fundamental: [g_-1, g_-1] spans g_-2
    vecs = []
    for i, a in enumerate(block1):
        for b in block1[i + 1:]:
            comp = m.bracket_elements(a, b)
            if comp:
                vecs.append([comp.get(t, Q(0)) for t in block2])
    if not vecs or ExactMatrix.from_rows(vecs).rank() != n2:
        raise PreconditionError("input is not fundamental")
    # nondegenerate: ad is injective on g_-1
    rows = []
    for b in block1:
        for z in block2:
            rows.append([m.bracket_elements(a, b).get(z, Q(0)) for a in block1])
    if ExactMatrix.from_rows(rows).rank() != n1:
        raise PreconditionError("input is not nondegenerate")
    return block1, block2


def prolong(m: GradedLieAlgebra, max_degree: int = 6,
            check_assembly: bool = True) -> ProlongationResult:
    """Full Tanaka prolongation of (m, J); see module docstring."""
    block1, block2 = _check_preconditions(m)
    n1, n2 = len(block1), len(block2)
    # m bracket in block coordinates
    bra = [[[m.bracket_elements(block1[a], block1[b]).get(t, Q(0))
             for t in block2] for b in range(n1)] for a in range(n1)]
    jmat = m.J

    layers = []  # layers[p] = list of (A1 rows d_{p-1} x n1, A2 rows d_{p-2} x n2)

    def dim_of(p):
        if p == -1:
            return n1
        if p == -2:
            return n2
        if p < -2 or p >= len(layers):
            return 0
        return len(layers[p])

    def act_p1_m1(p, i, b):
        """[B_i, e_b] for B_i in g_{p-1}, as g_{p-2} coordinates."""
        if p == 0:
            return bra[i][b]
        a1, _ = layers[p - 1][i]
        return [a1[t][b] for t in range(len(a1))]

    def act_p1_m2(p, i, z):
        """[B_i, t_z] for B_i in g_{p-1}, as g_{p-3} coordinates."""
        _, a2 = layers[p - 1][i]
        return [a2[t][z] for t in range(len(a2))]

    def act_m1_p2(p, a, i):
        """[e_a, C_i] for C_i in g_{p-2}, as g_{p-3} coordinates."""
        if p == 1:
            return [-x for x in bra[i][a]]
        a1, _ = layers[p - 2][i]
        return [-a1[t][a] for t in range(len(a1))]

    def solve_layer(p):
        d1 = dim_of(p - 1)
        d2 = dim_of(p - 2)
        if d1 == 0 and d2 == 0:
            return []
        nun = d1 * n1 + d2 * n2

        def u1(i, a):
            return i * n1 + a

        def u2(i, z):
            return d1 * n1 + i * n2 + z

        rows = []
        for a in range(n1):
            for b in range(a + 1, n1):
                acts_a = [act_p1_m1(p, i, a) for i in range(d1)]
                acts_b = [act_p1_m1(p, i, b) for i in range(d1)]
                for out in range(d2):
                    coeffs = {}
                    for z in range(n2):
                        v = bra[a][b][z]
                        if v:
                            coeffs[u2(out, z)] = coeffs.get(u2(out, z), Q(0)) + v
                    for i in range(d1):
                        v = acts_b[i][out]
                        if v:
                            coeffs[u1(i, a)] = coeffs.get(u1(i, a), Q(0)) - v
                        v = acts_a[i][out]
                        if v:
                            coeffs[u1(i, b)] = coeffs.get(u1(i, b), Q(0)) + v
                    coeffs = {c: v for c, v in coeffs.items() if v}
                    if coeffs:
                        rows.append(_int_sparse_row(coeffs))
        d3 = dim_of(p - 3)
        if d3 and p >= 1:
            for a in range(n1):
                acts2 = [act_m1_p2(p, a, i) for i in range(d2)]
                for z in range(n2):
                    acts1 = [act_p1_m2(p, i, z) for i in range(d1)]
                    for out in range(d3):
                        coeffs = {}
                        for i in range(d1):
                            v = acts1[i][out]
                            if v:
                                coeffs[u1(i, a)] = coeffs.get(u1(i, a), Q(0)) + v
                        for i in range(d2):
                            v = acts2[i][out]
                            if v:
                                coeffs[u2(i, z)] = coeffs.get(u2(i, z), Q(0)) + v
                        coeffs = {c: v for c, v in coeffs.items() if v}
                        if coeffs:
                            rows.append(_int_sparse_row(coeffs))
        if p == 0:
            for a in range(n1):
                for b in range(n1):
                    coeffs = {}
                    for t in range(n1):
                        v = jmat.entry(t, a)
                        if v:
                            coeffs[u1(b, t)] = coeffs.get(u1(b, t), Q(0)) + v
                        v = jmat.entry(b, t)
                        if v:
                            coeffs[u1(t, a)] = coeffs.get(u1(t, a), Q(0)) - v
                    coeffs = {c: v for c, v in coeffs.items() if v}
                    if coeffs:
                        rows.append(_int_sparse_row(coeffs))
        basis = elimination.kernel_basis(rows, nun)
        out = []
        for v in basis:
            a1 = [[Q(v[u1(i, a)]) for a in range(n1)] for i in range(d1)]
            a2 = [[Q(v[u2(i, z)]) for z in range(n2)] for i in range(d2)]
            out.append((a1, a2))
        return out

    terminated_at = None
    for p in range(0, max_degree + 1):
        basis = solve_layer(p)
        if not basis:
            terminated_at = p
            break
        if p == max_degree:
            raise CapReachedError(max_degree, len(basis))
        layers.append(basis)
    if terminated_at == 0:
        raise AssertionError("degree 0 lost the grading derivation (bug)")
    # all higher layers vanish: check one extra degree
    extra = solve_layer(terminated_at + 1)
    if extra:
        raise AssertionError("prolongation did not stabilize after a zero layer")

    return _assemble(m, block1, block2, bra, layers, terminated_at, check_assembly)


def _assemble(m, block1, block2, bra, layers, terminated_at, check_assembly):
    n1, n2 = len(block1), len(block2)
    names = list(m.names)
    degrees = list(m.degrees)
    offsets = []
    for p, layer in enumerate(layers):
        offsets.append(len(names))
        for i in range(len(layer)):
            names.append(f"d{p}_{i}")
            degrees.append(p)
    total = len(names)

    def neg_to_global(p, coords):
        """g_{p} coordinate vector (p < 0) -> sparse global dict."""
        idx = block1 if p == -1 else block2
        return {idx[t]: c for t, c in enumerate(coords) if c}

    def layer_to_global(p, coords):
        return {offsets[p] + t: c for t, c in enumerate(coords) if c}

    def to_global(p, coords):
        return neg_to_global(p, coords) if p < 0 else layer_to_global(p, coords)

    table = {}
    for (i, j), comp in m.table.items():
        table[(i, j)] = dict(comp)

    def put(gi, gj, comp):
        comp = {k: c for k, c in comp.items() if c}
        if not comp:
            return
        if gi == gj:
            raise AssertionError("diagonal bracket")
        if gi > gj:
            gi, gj = gj, gi
            comp = {k: -c for k, c in comp.items()}
        table[(gi, gj)] = comp

    # layer x m brackets from the action maps
    for p, layer in enumerate(layers):
        for i, (a1, a2) in enumerate(layer):
            gi = offsets[p] + i
            for b in range(n1):
                put(gi, block1[b], to_global(p - 1, [a1[t][b] for t in range(len(a1))]))
            for z in range(n2):
                put(gi, block2[z], to_global(p - 2, [a2[t][z] for t in range(len(a2))]))

    # each layer's action vectors, for expressing actions in layer coordinates
    solvers = []
    for layer in layers:
        flats = [[x for row in a1 for x in row] + [x for row in a2 for x in row]
                 for a1, a2 in layer]
        span = elimination.Echelon(len(flats[0]), flats)
        if span.rank != len(flats):
            raise AssertionError("layer action map is not injective")
        solvers.append(span)

    def global_bracket(gi, gj):
        if gi == gj:
            return {}
        if gi < gj:
            return table.get((gi, gj), {})
        return {k: -c for k, c in table.get((gj, gi), {}).items()}

    # brackets between layers, by increasing total degree
    pairs = []
    for p in range(len(layers)):
        for q in range(p, len(layers)):
            pairs.append((p + q, p, q))
    pairs.sort()
    for _, p, q in pairs:
        tdeg = p + q
        for i in range(len(layers[p])):
            gi = offsets[p] + i
            j_start = i + 1 if p == q else 0
            for j in range(j_start, len(layers[q])):
                gj = offsets[q] + j
                # action of [u, v] on g_{-1} and g_{-2} via commutators
                w1 = []
                for b in range(n1):
                    acc = {}
                    vb = global_bracket(gj, block1[b])
                    for gt, c in vb.items():
                        for gk, c2 in global_bracket(gi, gt).items():
                            acc[gk] = acc.get(gk, Q(0)) + c * c2
                    ub = global_bracket(gi, block1[b])
                    for gt, c in ub.items():
                        for gk, c2 in global_bracket(gj, gt).items():
                            acc[gk] = acc.get(gk, Q(0)) - c * c2
                    w1.append({k: v for k, v in acc.items() if v})
                w2 = []
                for z in range(n2):
                    acc = {}
                    vz = global_bracket(gj, block2[z])
                    for gt, c in vz.items():
                        for gk, c2 in global_bracket(gi, gt).items():
                            acc[gk] = acc.get(gk, Q(0)) + c * c2
                    uz = global_bracket(gi, block2[z])
                    for gt, c in uz.items():
                        for gk, c2 in global_bracket(gj, gt).items():
                            acc[gk] = acc.get(gk, Q(0)) - c * c2
                    w2.append({k: v for k, v in acc.items() if v})
                if tdeg >= len(layers):
                    if any(w1) or any(w2):
                        raise AssertionError(
                            "bracket lands beyond the last layer (maximality bug)")
                    continue
                # re-express the action pair in layer-tdeg coordinates
                d1t = n1 if tdeg == 0 else len(layers[tdeg - 1])
                d2t = n2 if tdeg <= 1 else len(layers[tdeg - 2])
                tgt1_idx = (block1 if tdeg == 0 else
                            [offsets[tdeg - 1] + t for t in range(d1t)])
                tgt2_idx = (block2 if tdeg <= 1 else
                            [offsets[tdeg - 2] + t for t in range(d2t)])
                if tdeg == 1:
                    tgt2_idx = block1
                    d2t = n1
                pos1 = {g: t for t, g in enumerate(tgt1_idx)}
                pos2 = {g: t for t, g in enumerate(tgt2_idx)}
                flat = [Q(0)] * (d1t * n1 + d2t * n2)
                for b in range(n1):
                    for gk, c in w1[b].items():
                        flat[pos1[gk] * n1 + b] = c
                for z in range(n2):
                    for gk, c in w2[z].items():
                        flat[d1t * n1 + pos2[gk] * n2 + z] = c
                coeffs = solvers[tdeg].coords(flat)
                if coeffs is None:
                    raise AssertionError("bracket left the computed layer (bug)")
                put(gi, gj, {offsets[tdeg] + t: c
                             for t, c in enumerate(coeffs) if c})

    algebra = GradedLieAlgebra(names, degrees, table, m.J)
    if check_assembly:
        rep = algebra.validate()
        if not rep.ok:
            raise AssertionError(f"assembled prolongation invalid: {rep.violations[0]}")
    e = algebra.characteristic_element()
    return ProlongationResult(algebra, algebra.degree_dims(), e, terminated_at)


def transitivity_check(result: ProlongationResult) -> TransitivityReport:
    """Certify ad(X)|_{g_{-1}} is injective on every nonnegative layer."""
    alg = result.algebra
    block1 = alg.degree_indices(-1)
    top = max(alg.degrees)
    for p in range(0, top + 1):
        idx = alg.degree_indices(p)
        if not idx:
            continue
        rows = []
        for i in idx:
            row = []
            for b in block1:
                comp = alg.bracket_elements(i, b)
                row.extend(comp.get(k, Q(0)) for k in range(alg.dim))
            rows.append(row)
        if ExactMatrix.from_rows(rows).rank() != len(idx):
            return TransitivityReport(False, p)
    return TransitivityReport(True)
