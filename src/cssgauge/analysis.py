"""Code parameters, decoupling certificates and structural equivalences."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import CssSubsystemCode
from .pauli import Hamiltonian, PauliOp, symplectic_gram


@dataclass(frozen=True)
class CodeParameters:
    n: int
    gauge_rank: int
    stabilizer_rank: int
    k: int
    gauge_qubits: int


def code_parameters(code: CssSubsystemCode) -> CodeParameters:
    """n, symplectic gauge rank, stabilizer (center) rank, logical and gauge qubits.

    k = n - s - (g - s)/2 with s the rank of the center of the gauge
    group, computed as g minus the rank of the symplectic Gram form (on
    topologically nontrivial lattices the center can exceed the span of
    the geometric stabilizer generators).  For a stabilizer code g = s
    and k = n - s.
    """
    from .codes import gauge_group_rank
    from .gf2 import rank as _rank

    g = gauge_group_rank(code)
    s = g - _rank(symplectic_gram(code.gauge_ops()))
    if (g - s) % 2:
        raise ValueError("gauge minus stabilizer rank must be even")
    k = code.n - s - (g - s) // 2
    if k < 0:
        raise ValueError("negative logical count; gauge group is inconsistent")
    return CodeParameters(code.n, g, s, k, (g - s) // 2)


@dataclass
class Component:
    qubits: frozenset[int]
    term_indices: tuple[int, ...]
    weight_histogram: dict[int, int]


@dataclass
class ComponentReport:
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

    for t in h:
        sup = t.op.support
        for q in sup:
            parent.setdefault(q, q)
        for q in sup[1:]:
            union(sup[0], q)

    groups: dict[int, set[int]] = {}
    for q in parent:
        groups.setdefault(find(q), set()).add(q)
    comps = []
    for root, qubits in groups.items():
        idxs = [i for i, t in enumerate(h.terms)
                if t.op.support and find(t.op.support[0]) == root]
        hist: dict[int, int] = {}
        for i in idxs:
            w = h.terms[i].op.weight
            hist[w] = hist.get(w, 0) + 1
        comps.append(Component(frozenset(qubits), tuple(idxs), hist))
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


def term_qubit_dot(h: Hamiltonian) -> str:
    """Graphviz rendering of the bipartite term-qubit incidence graph."""
    lines = ["graph terms {"]
    for i, t in enumerate(h.terms):
        node = f"{t.name or f'term{i}'}"
        for q in t.op.support:
            lines.append(f'  "{node}" -- "q{q}";')
    lines.append("}")
    return "\n".join(lines)


def stabilizer_span_equal(ops_a: Sequence[PauliOp], ops_b: Sequence[PauliOp]) -> bool:
    """The two generating sets span the same group (phases ignored)."""
    from .pauli import group_rank

    ra = group_rank(list(ops_a))
    rb = group_rank(list(ops_b))
    return ra == rb == group_rank(list(ops_a) + list(ops_b))
