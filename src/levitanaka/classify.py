"""Simple graded factors: Satake data, admissible node subsets, gradings,
and the grading-reversal decision.

A factor is a diagram (A_l, D_l or E6) with a real-form tag or the
complex tag, compact nodes, the diagram involution eps, and a subset
phi of nodes.  phi defines the grading element E by alpha(E) = 1 on
phi and eps(phi), 0 elsewhere; the kind is the E-degree of the highest
root.  The decision procedure for the reversal symmetry is membership
in hardcoded classification lists, with an independent oracle that
tests w_0 E = -E through the actual longest Weyl element.

Complex-type factors are modeled as two diagram copies with eps the
swap; available Weyl elements act diagonally, so the oracle tests the
single-copy w_0 against the common support.  For the one-sided singleton
pattern (hermitian kind-1 factors) the two-copy component condition is
relaxed; see phi_is_admissible.

So the verdicts decide a reversal by the Weyl group, w_0 E = -E on every
factor, which is inner.  A "no" leaves outer ones open: on A3 COMPLEX
{a1, a2'} the realified Chevalley involution reverses the grading.

Everything that depends only on the diagram, not on phi, is worked out
once per (family, rank, form, p, q) and shared by every descriptor on it
(_diagram): the nodes, eps, the compact nodes, the components, the root
system, whose neighbour lists are the diagram's edges, and the
highest-root coefficient of each node.  Admissibility is decided on that
table, so the enumeration builds a descriptor only for an admissible
subset.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import (
    AdmissibilityError,
    IncompleteFactorsError,
    KindError,
    certify,
)
from .rootdata import root_system

REAL_FORMS = ("A III", "A IV", "D Ib", "D IIIb", "E II", "E III")
ALL_FORMS = REAL_FORMS + ("COMPLEX",)

# the largest rank FactorDescriptor.from_json and ``tables --max-rank``
# accept.  Building a root system costs about rank^4 steps: at rank 64 one
# factor classifies in 0.6-0.8 s (A) and 1.0-1.6 s (D) end to end on a
# 2-core x86-64 VM, A_100 takes 3.4 s and A_200 did not finish in 60 s;
# ``tables --max-rank 64`` takes about 47 s and 218 MB peak RSS there.
MAX_FILE_RANK = 64


def node(i: int, primed: bool = False) -> str:
    return f"a{i}'" if primed else f"a{i}"


def node_index(name: str) -> int:
    return int(name.rstrip("'")[1:])


def node_primed(name: str) -> bool:
    return name.endswith("'")


def _epsilon(form, l) -> dict:
    if form == "COMPLEX":
        out = {}
        for i in range(1, l + 1):
            out[node(i)] = node(i, True)
            out[node(i, True)] = node(i)
        return out
    if form in ("A III", "A IV"):
        return {node(i): node(l + 1 - i) for i in range(1, l + 1)}
    out = {node(i): node(i) for i in range(1, l + 1)}
    if form in ("D Ib", "D IIIb"):
        out[node(l - 1)], out[node(l)] = node(l), node(l - 1)
    elif form == "E II":
        out[node(1)], out[node(6)] = node(6), node(1)
        out[node(3)], out[node(5)] = node(5), node(3)
    else:  # E III
        out[node(1)], out[node(6)] = node(6), node(1)
    return out


def _compact_nodes(form, l, p, q) -> frozenset:
    if form in ("A III", "A IV"):
        return frozenset(node(i) for i in range(p + 1, q))
    if form == "D IIIb":
        return frozenset(node(i) for i in range(1, l - 1, 2))
    if form == "E III":
        return frozenset({node(3), node(4), node(5)})
    return frozenset()


class _Diagram:
    """The phi-independent data of one diagram, shared by its descriptors.

    Each component is one diagram copy (two for a complex form), and
    ``roots.neighbours`` gives its edges, 0-based, the same in each copy.
    """

    def __init__(self, family, rank, form, p, q):
        self.is_complex = form == "COMPLEX"
        copies = (False, True) if self.is_complex else (False,)
        self.components = [frozenset(node(i, primed) for i in range(1, rank + 1))
                           for primed in copies]
        self.nodes = frozenset().union(*self.components)
        # copy by copy, index by index: the enumeration order
        self.names = [node(i, primed) for primed in copies
                      for i in range(1, rank + 1)]
        self.eps = _epsilon(form, rank)
        self.compact = _compact_nodes(form, rank, p, q)
        self.roots = root_system(family, rank)
        top = self.roots.highest_root()
        self.coeff = {n: top[node_index(n) - 1] for n in self.names}

    def admits(self, phi: frozenset) -> bool:
        """The four conditions of phi_is_admissible on a subset phi of the nodes."""
        eps_phi = {self.eps[n] for n in phi}
        if not phi.isdisjoint(self.compact) or not phi.isdisjoint(eps_phi):
            return False
        hermitian_singleton = (self.is_complex and len(phi) == 1
                               and self.coeff[next(iter(phi))] == 1)
        if not hermitian_singleton:
            for comp in self.components:
                if comp.isdisjoint(phi) or comp.isdisjoint(eps_phi):
                    return False
        # (4): with eps(phi) removed, no phi-node reaches another; only a
        # copy holding two phi-nodes can join them
        neighbours = self.roots.neighbours
        for comp in self.components:
            if len(phi & comp) < 2:
                continue
            ends = {node_index(n) - 1 for n in phi & comp}
            seen = {node_index(n) - 1 for n in eps_phi & comp}
            for start in ends:
                seen.add(start)
                stack = [start]
                while stack:
                    for j in neighbours[stack.pop()]:
                        if j not in seen:
                            if j in ends:
                                return False
                            seen.add(j)
                            stack.append(j)
        return True


@lru_cache(maxsize=None)
def _diagram(family, rank, form, p, q) -> _Diagram:
    """Shared cache: a diagram's data never change."""
    return _Diagram(family, rank, form, p, q)


class FactorDescriptor:
    """One simple graded factor: (family, rank, form, phi)."""

    def __init__(self, family, rank, form, phi, p=None, q=None):
        if form not in ALL_FORMS:
            raise ValueError(f"unknown form {form!r}")
        if family not in ("A", "D", "E6"):
            raise ValueError(f"unknown family {family!r}")
        if family == "E6" and rank != 6:
            raise ValueError("E6 factors have rank 6")
        if family == "D" and rank < 4:
            raise ValueError("D factors need rank >= 4")
        if family == "A" and rank < 1:
            raise ValueError("A factors need rank >= 1")
        self.family = family
        self.rank = rank
        self.form = form
        self.p = p
        self.q = q
        if form in ("A III", "A IV"):
            if family != "A":
                raise ValueError("A III/IV requires family A")
            if p is None or q is None or p + q != rank + 1 or not 1 <= p <= q:
                raise ValueError("A III/IV needs p + q = rank + 1, 1 <= p <= q")
            if form == "A IV" and p != 1:
                raise ValueError("A IV means p = 1")
        elif p is not None or q is not None:
            field = "p" if p is not None else "q"
            raise ValueError(f"factor field {field!r} belongs to A III/IV only, not {form}")
        elif form == "D Ib":
            if family != "D":
                raise ValueError("D Ib requires family D")
        elif form == "D IIIb":
            if family != "D" or rank % 2 == 0:
                raise ValueError("D IIIb requires family D of odd rank")
        elif form in ("E II", "E III"):
            if family != "E6":
                raise ValueError("E II/III requires family E6")
        self._diagram = _diagram(family, rank, form, p, q)
        self.phi = frozenset(phi)
        if not self.phi or not self.phi <= self._diagram.nodes:
            raise ValueError("phi must be a nonempty subset of the nodes")
        # a descriptor never changes: its admissibility and grading data
        # are worked out once (phi_is_admissible, grading_data)
        self._admissible = None
        self._grading = None

    # -- diagram data ------------------------------------------------------

    @property
    def is_complex(self) -> bool:
        return self.form == "COMPLEX"

    def root_system(self):
        """Root system of one diagram copy."""
        return self._diagram.roots

    # -- serialization -------------------------------------------------------

    def to_json(self):
        out = {"family": self.family, "rank": self.rank, "form": self.form,
               "phi": sorted(self.phi), "complex": self.is_complex}
        if self.p is not None:
            out["p"] = self.p
            out["q"] = self.q
        return out

    @classmethod
    def from_json(cls, obj):
        """A descriptor from its JSON object; a malformed field, or a rank
        above ``MAX_FILE_RANK``, raises ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError("a factor must be a JSON object")
        for key in ("family", "form", "rank", "phi"):
            if key not in obj:
                raise ValueError(f"factor field {key!r} is missing")
        for key in ("family", "form"):
            if not isinstance(obj[key], str):
                raise ValueError(f"factor field {key!r} must be a string")
        for key in ("rank", "p", "q"):
            value = obj.get(key)
            if value is None and key != "rank":
                continue
            if type(value) is not int:  # bool is an int subclass; true is no rank
                raise ValueError(f"factor field {key!r} must be an integer")
        if obj["rank"] > MAX_FILE_RANK:
            raise ValueError(f"factor field 'rank' is {obj['rank']}; ranks above "
                             f"{MAX_FILE_RANK} are not supported")
        phi = obj["phi"]
        if not isinstance(phi, list) or not all(isinstance(n, str) for n in phi):
            raise ValueError("factor field 'phi' must be a list of node names")
        return cls(obj["family"], obj["rank"], obj["form"], phi,
                   obj.get("p"), obj.get("q"))

    def __repr__(self):
        phi = ",".join(sorted(self.phi))
        return f"FactorDescriptor({self.family}{self.rank} {self.form} phi={{{phi}}})"

    def __eq__(self, other):
        return isinstance(other, FactorDescriptor) and \
            self.to_json() == other.to_json()

    def __hash__(self):
        return hash(json.dumps(self.to_json(), sort_keys=True))


class GradingData:
    """Values of the simple roots on the grading element, plus the kind."""

    def __init__(self, e_coords, kind):
        self.e_coords = e_coords
        self.kind = kind

    def support_indices(self) -> set:
        """Single-diagram indices where the grading element evaluates to 1.

        For complex factors both copies carry the same index set (one from
        phi, one from its mirror), so one set describes either copy.
        """
        return {node_index(n) for n, v in self.e_coords.items() if v}

    def __repr__(self):
        return f"GradingData(kind={self.kind})"


def phi_is_admissible(d: FactorDescriptor) -> bool:
    """The four diagram conditions on phi, in the two-copy reading.

    (1) phi avoids the compact nodes; (2) phi and eps(phi) are disjoint;
    (3) every component meets both phi and eps(phi); (4) every path
    between two phi-nodes passes through eps(phi), that is, once eps(phi)
    is removed no phi-node is connected to another, which one flood fill
    per copy holding two phi-nodes decides.  A complex singleton
    sitting at a coefficient-1 node is the one-sided hermitian pattern:
    its grading pairs the node with its mirror copy, so condition (3)
    is waived for it (such factors have kind 1 and no compatibility
    constraint to protect).  Decided once per descriptor.
    """
    if d._admissible is None:
        d._admissible = d._diagram.admits(d.phi)
    return d._admissible


def grading_data(d: FactorDescriptor) -> GradingData:
    """Grading data of an admissible descriptor, computed once and shared."""
    if d._grading is not None:
        return d._grading
    if not phi_is_admissible(d):
        raise AdmissibilityError(f"{d!r} is not admissible")
    diagram = d._diagram
    support = d.phi | {diagram.eps[n] for n in d.phi}
    e_coords = {n: (1 if n in support else 0) for n in diagram.names}
    # the E-degree of the highest root, copy by copy
    kinds = {sum(diagram.coeff[n] for n in support & comp)
             for comp in diagram.components}
    certify(len(kinds) == 1, "copies disagree on the kind")
    d._grading = GradingData(e_coords, kinds.pop())
    return d._grading


def w0_reverses_E(d: FactorDescriptor) -> bool:
    """Oracle: does the longest Weyl element send E to -E?

    Real forms use w_0 of the underlying diagram; complex factors act
    diagonally on the two copies, so the single-copy w_0 must negate the
    common support indicator.
    """
    support = grading_data(d).support_indices()  # also the admissibility gate
    for i, row in enumerate(d.root_system().w0_rows(), start=1):
        c_i = 1 if i in support else 0
        if sum(row[k - 1] for k in support) != -c_i:
            return False
    return True


def _phi_index_pair(d: FactorDescriptor):
    """(unprimed index, primed index) for a two-node complex phi."""
    unprimed = [node_index(n) for n in d.phi if not node_primed(n)]
    primed = [node_index(n) for n in d.phi if node_primed(n)]
    if len(unprimed) == 1 and len(primed) == 1:
        return unprimed[0], primed[0]
    return None


def in_kind2_list(d: FactorDescriptor) -> bool:
    """Membership in the classification of reversal-symmetric kind-2 factors."""
    l = d.rank
    if d.form in ("A III", "A IV"):
        if len(d.phi) != 1:
            return False
        i = node_index(next(iter(d.phi)))
        return (i <= d.p or i >= d.q) and 2 * i != l + 1
    if d.form in ("D Ib", "D IIIb"):
        return d.phi in (frozenset({node(l - 1)}), frozenset({node(l)}))
    if d.form in ("E II", "E III"):
        return d.phi in (frozenset({node(1)}), frozenset({node(6)}))
    pair = _phi_index_pair(d)
    if pair is None:
        return False
    i, j = pair
    if d.family == "A":
        return i + j == l + 1 and i != j
    if d.family == "D":
        if l % 2 == 0:
            return {i, j} <= {1, l - 1, l} and i != j
        return {i, j} == {l - 1, l}
    return {i, j} == {1, 6}  # E6 complex


def in_kind1_list(d: FactorDescriptor) -> bool:
    """Membership in the list of reversal-symmetric hermitian kind-1 factors."""
    if not d.is_complex or len(d.phi) != 1:
        return False
    i = node_index(next(iter(d.phi)))
    l = d.rank
    if d.family == "A":
        return l % 2 == 1 and 2 * i == l + 1
    if d.family == "D":
        if l % 2 == 0:
            return i in (1, l - 1, l)
        return i == 1
    return False  # E6 complex kind-1 factors never pass


def theorem_membership(d: FactorDescriptor) -> bool:
    kind = grading_data(d).kind
    if kind == 2:
        return in_kind2_list(d)
    if kind == 1:
        return in_kind1_list(d)
    raise KindError(f"kind {kind} outside the classification lists")


def tilde_s_semisimple(factors) -> bool:
    """Reversal symmetry of a sum of kind-2 simple factors.

    The general case with no radical: E_r = 0 and no kind-1 ideal, so an
    empty list raises IncompleteFactorsError too.
    """
    return tilde_s_general(factors, [], True)


def tilde_s_general(kind2_factors, kind1_factors, e_r_is_zero: bool) -> bool:
    """Reversal symmetry with a radical present.

    Requires the grading element to sit inside the Levi factor
    (e_r_is_zero), the kind-2 ideals in the kind-2 list and the kind-1
    ideals in the hermitian list.  A Levi factor of a kind-2 algebra
    always contains a kind-2 ideal, so an empty kind-2 list is invalid.
    """
    if not kind2_factors:
        raise IncompleteFactorsError("a Levi factor must contain a kind-2 ideal")
    for d in kind2_factors:
        g = grading_data(d)
        if g.kind != 2:
            raise KindError(f"{d!r} has kind {g.kind}, expected 2")
    for d in kind1_factors:
        g = grading_data(d)
        if g.kind != 1:
            raise KindError(f"{d!r} has kind {g.kind}, expected 1")
    if not e_r_is_zero:
        return False
    return all(in_kind2_list(d) for d in kind2_factors) and \
        all(in_kind1_list(d) for d in kind1_factors)


# -- enumeration -------------------------------------------------------------


def _forms_for_rank(l):
    out = []
    for p in range(1, (l + 1) // 2 + 1):
        q = l + 1 - p
        out.append(("A", l, "A IV" if p == 1 else "A III", p, q))
    if l >= 4:
        out.append(("D", l, "D Ib", None, None))
    if l >= 5 and l % 2 == 1:
        out.append(("D", l, "D IIIb", None, None))
    if l == 6:
        out.append(("E6", 6, "E II", None, None))
        out.append(("E6", 6, "E III", None, None))
    out.append(("A", l, "COMPLEX", None, None))
    if l >= 4:
        out.append(("D", l, "COMPLEX", None, None))
    if l == 6:
        out.append(("E6", 6, "COMPLEX", None, None))
    return out


def enumerate_descriptors(max_rank: int):
    """All admissible descriptors of kind 1 or 2 up to the given rank.

    Kind >= |phi| for complex factors and kind >= 2|phi| for real forms,
    so only singleton and two-node subsets can reach kind <= 2.  Each
    subset is decided on its diagram; a descriptor is built only for an
    admissible one.
    """
    for l in range(1, max_rank + 1):
        for family, rank, form, p, q in _forms_for_rank(l):
            diagram = _diagram(family, rank, form, p, q)
            names = diagram.names
            subsets = [frozenset({n}) for n in names]
            subsets += [frozenset({a, b}) for i, a in enumerate(names)
                        for b in names[i + 1:]]
            for phi in subsets:
                if not diagram.admits(phi):
                    continue
                d = FactorDescriptor(family, rank, form, phi, p, q)
                d._admissible = True  # decided on the diagram
                kind = grading_data(d).kind
                if kind in (1, 2):
                    yield d, kind


def regenerate_tables(max_rank: int):
    """Oracle-versus-list table over every admissible descriptor."""
    if max_rank < 4:
        raise ValueError("max_rank must be at least 4")
    rows = {1: [], 2: []}
    disagreements = []
    for d, kind in enumerate_descriptors(max_rank):
        oracle = w0_reverses_E(d)
        listed = theorem_membership(d)
        row = {"descriptor": d.to_json(), "kind": kind, "admissible": True,
               "w0_reverses_E": oracle, "in_theorem_list": listed}
        rows[kind].append(row)
        if oracle != listed:
            disagreements.append(row)
    return {"max_rank": max_rank, "kind_1": rows[1], "kind_2": rows[2],
            "disagreements": disagreements}
