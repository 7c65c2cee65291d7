"""Code parameters, decoupling certificates and structural equivalences."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .codes import CssSubsystemCode, gauge_group_rank
from .gf2 import rank
from .pauli import Hamiltonian, symplectic_gram


class CodeParameters(NamedTuple):
    n: int
    gauge_rank: int
    stabilizer_rank: int
    k: int
    gauge_qubits: int


def code_parameters(code: CssSubsystemCode) -> CodeParameters:
    """n, gauge rank g, stabilizer (center) rank s, logical and gauge qubits.

    For a CSS subsystem code the gauge group splits into X and Z blocks,
    so its symplectic Gram matrix is [[0, A], [A^T, 0]] with
    A = G_X G_Z^T and has rank exactly 2a, a = rank A.  Hence the gauge
    qubits are a, s = g - 2a and k = n - s - a =
    n - rank G_X - rank G_Z + rank(G_X G_Z^T) (Bravyi, *Subsystem codes
    with spatially local generators*, PRA 83, 012320, 2011).  The center
    can exceed the span of the geometric stabilizer generators on
    topologically nontrivial lattices.  For a stabilizer code a = 0 and
    k = n - s.
    """
    g = gauge_group_rank(code)
    overlaps = code.gauge_x_matrix() @ code.gauge_z_matrix().transpose()
    a = rank(overlaps)
    s = g - 2 * a
    k = code.n - s - a
    if k < 0:
        raise ValueError("negative logical count; gauge group is inconsistent")
    return CodeParameters(code.n, g, s, k, a)


class Component(NamedTuple):
    qubits: frozenset[int]
    term_indices: tuple[int, ...]
    weight_histogram: dict[int, int]


class ComponentReport(NamedTuple):
    count: int
    components: list[Component]

    def qubit_sets(self) -> list[frozenset[int]]:
        return [c.qubits for c in self.components]

    def sizes(self) -> list[int]:
        return sorted(len(c.qubits) for c in self.components)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "components": [
                {
                    "qubits": sorted(c.qubits),
                    "terms": list(c.term_indices),
                    "weight_histogram": dict(sorted(c.weight_histogram.items())),
                }
                for c in self.components
            ],
        }


def components(h: Hamiltonian) -> ComponentReport:
    """Connected components of the bipartite term-qubit incidence graph.

    Only qubits touched by at least one term are partitioned; identity
    terms belong to no component.
    """
    parent: dict[int, int] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    supports = [t.op.support for t in h]
    for sup in supports:
        for q in sup:
            parent.setdefault(q, q)
        for q in sup[1:]:
            union(sup[0], q)

    groups: dict[int, tuple[set[int], list[int], dict[int, int]]] = {}
    for q in parent:
        groups.setdefault(find(q), (set(), [], {}))[0].add(q)
    for i, sup in enumerate(supports):
        if sup:
            _, idxs, hist = groups[find(sup[0])]
            idxs.append(i)
            hist[len(sup)] = hist.get(len(sup), 0) + 1
    comps = [Component(frozenset(qubits), tuple(idxs), hist)
             for qubits, idxs, hist in groups.values()]
    comps.sort(key=lambda c: min(c.qubits))
    return ComponentReport(len(comps), comps)


def match_against_builder(h: Hamiltonian, component: Component,
                          reference: CssSubsystemCode,
                          correspondence: dict[int, int]) -> bool:
    """Term supports of a component coincide with a built reference code.

    ``correspondence`` maps the component's qubits to reference qubits
    and must be a bijection on the touched set.  The component's X-type
    term supports are compared (as multisets) with the reference's X
    stabilizers and likewise for Z.
    """
    touched = component.qubits
    if set(correspondence) != set(touched):
        raise ValueError("correspondence does not cover exactly the touched qubits")
    if len(set(correspondence.values())) != len(correspondence):
        raise ValueError("correspondence is not a bijection")

    x_terms: list[frozenset[int]] = []
    z_terms: list[frozenset[int]] = []
    for i in component.term_indices:
        op = h.terms[i].op
        if op.z.is_zero():
            x_terms.append(frozenset(correspondence[q] for q in op.x.support))
        elif op.x.is_zero():
            z_terms.append(frozenset(correspondence[q] for q in op.z.support))
        else:
            return False

    ref_x = Counter(frozenset(v.support) for v in reference.stabilizer_x)
    ref_z = Counter(frozenset(v.support) for v in reference.stabilizer_z)
    return Counter(x_terms) == ref_x and Counter(z_terms) == ref_z


def is_self_dual(code: CssSubsystemCode) -> bool:
    """Gauge X and Z supports agree as multisets (X/Z exchange symmetry)."""
    return Counter(v.bits for v in code.gauge_x) == Counter(v.bits for v in code.gauge_z)


def find_noncommuting_pair(h: Hamiltonian) -> Optional[tuple[int, int]]:
    """The first anticommuting pair (i, j), i < j, in row-major order."""
    gram = symplectic_gram(h.operators())
    for i in range(gram.rows):
        above = gram.row_bits(i) >> (i + 1)
        if above:
            return (i, i + (above & -above).bit_length())
    return None


def commuting_check(h: Hamiltonian) -> bool:
    """All pairs of terms commute."""
    return find_noncommuting_pair(h) is None
