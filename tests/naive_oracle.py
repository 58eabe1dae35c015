"""Independent brute-force oracle used to freeze regression goldens.

Everything here is deliberately self-contained: dense lists of
Fractions, plain reduced row echelon, no imports from the package.
It exists so the fast production pipeline can be checked against a
straight-line implementation of the same mathematics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Q = Fraction


def rref(mat):
    """Reduced row echelon form (in place copy); returns (rows, pivots)."""
    rows = [list(r) for r in mat]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel(mat, ncols):
    """Dense kernel basis: one vector per free column, free entry = 1."""
    rows, pivots = rref(mat)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(v)
    return basis


def mat_rank(mat):
    return len(rref(mat)[1])


class NaiveProlongation:
    """Brute-force maximal transitive prolongation of a kind-2 pair (m, J).

    bracket[a][b] is the g_{-2}-valued bracket of the a-th and b-th
    g_{-1} basis vectors; J is a dense matrix on g_{-1}.
    Layer elements are kept as pairs of dense action matrices
    (map on g_{-1} into g_{p-1}, map on g_{-2} into g_{p-2}).
    """

    def __init__(self, n1, n2, bracket, J, max_degree=6):
        self.n1 = n1
        self.n2 = n2
        self.bracket = bracket  # n1 x n1 array of length-n2 vectors
        self.J = J
        self.dims = {-2: n2, -1: n1}
        self.layers = []  # layers[p] = list of (A1, A2) action matrices
        self._run(max_degree)

    # dimensions of the layer a map lands in (negative layers are m itself)
    def _dim(self, p):
        if p == -1:
            return self.n1
        if p == -2:
            return self.n2
        if p < -2 or p >= len(self.layers):
            return 0
        return len(self.layers[p])

    def _act_minus1(self, p, coeffs, a):
        """Value of a degree-p element (coeff vector) on the a-th g_{-1} vector,
        expressed in g_{p-1} coordinates."""
        d = self._dim(p - 1)
        out = [Q(0)] * d
        for idx, c in enumerate(coeffs):
            if c == 0:
                continue
            A1, _ = self.layers[p][idx]
            for i in range(d):
                out[i] += c * A1[i][a]
        return out

    def _act_minus2(self, p, coeffs, z):
        d = self._dim(p - 2)
        out = [Q(0)] * d
        for idx, c in enumerate(coeffs):
            if c == 0:
                continue
            _, A2 = self.layers[p][idx]
            for i in range(d):
                out[i] += c * A2[i][z]
        return out

    def _run(self, max_degree):
        for p in range(0, max_degree + 1):
            basis = self._solve_layer(p)
            if not basis:
                break
            self.layers.append(basis)
            self.dims[p] = len(basis)

    def _solve_layer(self, p):
        n1, n2 = self.n1, self.n2
        d1 = self._dim(p - 1)  # target of the g_{-1} action
        d2 = self._dim(p - 2)  # target of the g_{-2} action
        if d1 == 0 and d2 == 0:
            return []
        nun = d1 * n1 + d2 * n2
        rows = []

        def u1_index(i, a):
            return i * n1 + a

        def u2_index(i, z):
            return d1 * n1 + i * n2 + z

        # identity on g_{-1} x g_{-1}: u[x,y] = [u x, y] + [x, u y] in g_{p-2}
        for a in range(n1):
            for b in range(a + 1, n1):
                for out in range(d2):
                    row = [Q(0)] * nun
                    for z in range(n2):
                        if self.bracket[a][b][z] != 0:
                            row[u2_index(out, z)] += self.bracket[a][b][z]
                    # [u e_a, e_b]: u e_a has g_{p-1} coords; bracket with e_b
                    for i in range(d1):
                        row[u1_index(i, a)] -= self._bracket_p1_with_m1(p, i, b)[out]
                        row[u1_index(i, b)] += self._bracket_p1_with_m1(p, i, a)[out]
                    if any(row):
                        rows.append(row)
        # identity on g_{-1} x g_{-2}: 0 = [u x, z] + [x, u z] in g_{p-3}
        d3 = self._dim(p - 3)
        if d3:
            for a in range(n1):
                for z in range(n2):
                    for out in range(d3):
                        row = [Q(0)] * nun
                        for i in range(d1):
                            row[u1_index(i, a)] += self._bracket_p1_with_m2(p, i, z)[out]
                        for i in range(d2):
                            row[u2_index(i, z)] += self._bracket_m1_with_p2(p, a, i)[out]
                        if any(row):
                            rows.append(row)
        # degree 0 only: commute with J, entrywise (D J - J D)[b][a] = 0
        if p == 0:
            for a in range(n1):
                for b in range(n1):
                    row = [Q(0)] * nun
                    for t in range(n1):
                        if self.J[t][a] != 0:
                            row[u1_index(b, t)] += self.J[t][a]
                        if self.J[b][t] != 0:
                            row[u1_index(t, a)] -= self.J[b][t]
                    if any(row):
                        rows.append(row)
        if not rows:
            rows = [[Q(0)] * nun]
        vecs = kernel(rows, nun)
        basis = []
        for v in vecs:
            A1 = [[v[u1_index(i, a)] for a in range(n1)] for i in range(d1)]
            A2 = [[v[u2_index(i, z)] for z in range(n2)] for i in range(d2)]
            basis.append((A1, A2))
        return basis

    # bracket helpers: value vectors in the appropriate layer coordinates

    def _bracket_p1_with_m1(self, p, i, b):
        """[B_i, e_b] where B_i is the i-th basis element of g_{p-1}."""
        if p == 0:  # B_i in g_{-1}: plain m bracket
            return self.bracket[i][b]
        A1, _ = self.layers[p - 1][i]
        return [A1[t][b] for t in range(len(A1))]

    def _bracket_p1_with_m2(self, p, i, z):
        """[B_i, t_z] for B_i in g_{p-1}, value in g_{p-3}."""
        if p == 0:
            raise AssertionError("not used at degree 0")
        if p == 1:  # B_i in g_0, value in g_{-2}
            _, A2 = self.layers[0][i]
            return [A2[t][z] for t in range(len(A2))]
        _, A2 = self.layers[p - 1][i]
        return [A2[t][z] for t in range(len(A2))]

    def _bracket_m1_with_p2(self, p, a, i):
        """[e_a, C_i] for C_i in g_{p-2}, value in g_{p-3} (= -[C_i, e_a])."""
        if p == 1:  # C_i in g_{-1}
            return [-x for x in self.bracket[i][a]]
        A1, _ = self.layers[p - 2][i]
        return [-A1[t][a] for t in range(len(A1))]


def ad_columns(table, n):
    """cols[i][j] = [e_i, e_j] as {k: c}, from a table on pairs i < j."""
    cols = [{} for _ in range(n)]
    for (i, j), comp in table.items():
        cols[i][j] = dict(comp)
        cols[j][i] = {k: -c for k, c in comp.items()}
    return cols


def bracket(table, n, x, y):
    """[x, y] of dense vectors, summed over every pair (i, j) of basis vectors."""
    cols = ad_columns(table, n)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            for k, c in cols[i].get(j, {}).items():
                out[k] += x[i] * y[j] * c
    return out


def jacobi_first_failure(table, n):
    """First triple i < j < k, in loop order, whose Jacobi sum is nonzero.

    One dict per triple, all triples: the straight-line loop that
    ``GradedLieAlgebra.validate`` replaces with one pass per pair.
    """
    cols = ad_columns(table, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in cols[b].get(c, {}).items():
                        for t, y in cols[a].get(m, {}).items():
                            acc[t] = acc.get(t, 0) + x * y
                if any(acc.values()):
                    return i, j, k
    return None


def killing_matrix(table, n):
    """Dense trace(ad e_i ad e_j) over every pair, degrees ignored."""
    cols = ad_columns(table, n)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = 0
            # sum over l, k of ad_i[l, k] ad_j[k, l]
            for l in range(n):
                for k, c in cols[j].get(l, {}).items():
                    s += cols[i].get(k, {}).get(l, 0) * c
            out[i][j] = s
    return out


def heisenberg_m(n, signature):
    """Fundamental pair of the diagonal-form quadric with k = 1."""
    n1 = 2 * n
    n2 = 1
    bracket = [[[Q(0)] for _ in range(n1)] for _ in range(n1)]
    for a in range(n):
        s = Q(signature[a])
        # [e_a, Je_a] = -s * t, antisymmetric completion
        bracket[a][n + a][0] = -s
        bracket[n + a][a][0] = s
    J = [[Q(0)] * n1 for _ in range(n1)]
    for a in range(n):
        J[n + a][a] = Q(1)
        J[a][n + a] = Q(-1)
    return n1, n2, bracket, J


def prolong_heisenberg(n, signature, max_degree=6):
    n1, n2, bracket, J = heisenberg_m(n, signature)
    pro = NaiveProlongation(n1, n2, bracket, J, max_degree)
    return dict(sorted(pro.dims.items()))



# -- per-descriptor admissibility and kind ------------------------------------
#
# The diagram conditions on a node subset phi, worked out from scratch for
# each subset: node names as strings, eps and the compact nodes rebuilt on
# every call, a breadth-first search for every path, and the highest root
# found by closing the simple roots under the simple reflections (once per
# diagram).


def naive_diagrams(max_rank):
    """(family, rank, form, p, q) of every diagram of the tables, rank by rank."""
    out = []
    for l in range(1, max_rank + 1):
        for p in range(1, (l + 1) // 2 + 1):
            out.append(("A", l, "A IV" if p == 1 else "A III", p, l + 1 - p))
        if l >= 4:
            out.append(("D", l, "D Ib", None, None))
        if l >= 5 and l % 2 == 1:
            out.append(("D", l, "D IIIb", None, None))
        if l == 6:
            out += [("E6", 6, "E II", None, None), ("E6", 6, "E III", None, None)]
        out.append(("A", l, "COMPLEX", None, None))
        if l >= 4:
            out.append(("D", l, "COMPLEX", None, None))
        if l == 6:
            out.append(("E6", 6, "COMPLEX", None, None))
    return out


def _name(i, primed=False):
    return f"a{i}'" if primed else f"a{i}"


def _index(name):
    return int(name.rstrip("'")[1:])


def _one_copy_edges(family, rank):
    if family == "E6":
        return [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    edges = [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        edges[-1] = (rank - 2, rank)
        edges.append((rank - 2, rank - 1))
    return edges


def naive_nodes(family, rank, form):
    names = [_name(i) for i in range(1, rank + 1)]
    if form == "COMPLEX":
        names += [_name(i, True) for i in range(1, rank + 1)]
    return names


def _edges(family, rank, form):
    base = _one_copy_edges(family, rank)
    out = [(_name(i), _name(j)) for i, j in base]
    if form == "COMPLEX":
        out += [(_name(i, True), _name(j, True)) for i, j in base]
    return out


def _epsilon(family, rank, form):
    l = rank
    if form == "COMPLEX":
        out = {}
        for i in range(1, l + 1):
            out[_name(i)] = _name(i, True)
            out[_name(i, True)] = _name(i)
        return out
    if form in ("A III", "A IV"):
        return {_name(i): _name(l + 1 - i) for i in range(1, l + 1)}
    out = {_name(i): _name(i) for i in range(1, l + 1)}
    if form in ("D Ib", "D IIIb"):
        out[_name(l - 1)], out[_name(l)] = _name(l), _name(l - 1)
    elif form == "E II":
        out[_name(1)], out[_name(6)] = _name(6), _name(1)
        out[_name(3)], out[_name(5)] = _name(5), _name(3)
    else:  # E III
        out[_name(1)], out[_name(6)] = _name(6), _name(1)
    return out


def _compact(form, rank, p, q):
    if form in ("A III", "A IV"):
        return {_name(i) for i in range(p + 1, q)}
    if form == "D IIIb":
        return {_name(i) for i in range(1, rank - 1, 2)}
    if form == "E III":
        return {_name(3), _name(4), _name(5)}
    return set()


def _components(rank, form):
    comps = [{_name(i) for i in range(1, rank + 1)}]
    if form == "COMPLEX":
        comps.append({_name(i, True) for i in range(1, rank + 1)})
    return comps


def _bfs_path(edges, a, b):
    adj = {}
    for x, y in edges:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    prev = {a: None}
    queue = [a]
    while queue:
        cur = queue.pop(0)
        if cur == b:
            path = []
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return path
        for nb in adj.get(cur, []):
            if nb not in prev:
                prev[nb] = cur
                queue.append(nb)
    return None


@lru_cache(maxsize=None)
def _highest_root(family, rank):
    """The positive root of largest height, by closing the simple roots
    under s_i(c) = c - (Cc)_i e_i with a dense Cartan matrix."""
    cartan = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j in _one_copy_edges(family, rank):
        cartan[i - 1][j - 1] = cartan[j - 1][i - 1] = -1
    seen = {tuple(int(j == i) for j in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        new = []
        for c in frontier:
            for i in range(rank):
                r = list(c)
                r[i] -= sum(a * x for a, x in zip(cartan[i], c))
                r = tuple(r)
                if min(r) >= 0 and r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return max(seen, key=sum)


def naive_admissible(family, rank, form, p, q, phi):
    """The four diagram conditions on phi, each subset from scratch."""
    phi = set(phi)
    eps = _epsilon(family, rank, form)
    eps_phi = {eps[n] for n in phi}
    if phi & _compact(form, rank, p, q) or phi & eps_phi:
        return False
    top = _highest_root(family, rank)
    hermitian_singleton = (form == "COMPLEX" and len(phi) == 1
                           and top[_index(next(iter(phi))) - 1] == 1)
    if not hermitian_singleton:
        for comp in _components(rank, form):
            if not (comp & phi) or not (comp & eps_phi):
                return False
    edges = _edges(family, rank, form)
    ordered = sorted(phi)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            path = _bfs_path(edges, a, b)
            if path is not None and not any(n in eps_phi for n in path):
                return False
    return True


def naive_kind(family, rank, form, p, q, phi):
    """The E-degree of the highest root (one copy's, for a complex factor)."""
    eps = _epsilon(family, rank, form)
    support = set(phi) | {eps[n] for n in phi}
    top = _highest_root(family, rank)
    return sum(top[_index(n) - 1] for n in support if not n.endswith("'"))

if __name__ == "__main__":
    for n, sig in [(1, (1,)), (2, (1, 1)), (2, (1, -1)), (3, (1, 1, 1))]:
        dims = prolong_heisenberg(n, sig)
        total = sum(dims.values())
        print(f"n={n} sig={sig}: dims={dims} total={total}")
