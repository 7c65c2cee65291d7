"""Worked models: each code family wired to its natural ungauging setup.

The engine in ``ungauge`` is generic; what makes the worked examples
reproduce known models exactly is the choice of *natural* generating
sets (geometric gauge generators, local Z symmetries, per-row or
per-vertex relations) and the preimage provenance attached to
Hamiltonian terms.  This module owns those choices; ``make_setup``
joins the rest of each group (logical and topological classes,
non-contractible relations), so no model computes a kernel.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from . import builders
from .builders import CssSubsystemCode
from .codes import gauge_hamiltonian, stabilizer_hamiltonian, y_gauge_hamiltonian
from .gf2 import BitVec
from .lattice import AXES, CellComplex, edge_color_class
from .pauli import Hamiltonian, PauliOp, Term, transversal_hadamard_hamiltonian
from .ungauge import (
    UngaugeSetup,
    full_gauge_comparison,
    make_setup,
    strip_identity_terms,
    ungauge_hamiltonian,
)


class WorkedModel:
    """A code, the Hamiltonian being mapped, and its ungauging setup."""

    __slots__ = ("name", "code", "hamiltonian", "setup", "extra")

    def __init__(self, name: str, code: Optional[CssSubsystemCode], hamiltonian: Hamiltonian,
                 setup: UngaugeSetup, extra: Optional[dict] = None):
        self.name = name
        self.code = code
        self.hamiltonian = hamiltonian
        self.setup = setup
        self.extra = {} if extra is None else extra


# ---------------------------------------------------------------------------
# Toric codes
# ---------------------------------------------------------------------------


def axis_loops(code: CssSubsystemCode) -> list[BitVec]:
    """Natural Z-logical loops of a k=1 hypercubic toric code: one per axis."""
    lattice = code.lattice
    dim, length = code.metadata["D"], code.metadata["L"]
    loops = []
    for a in range(dim):
        axis = AXES[a]
        support = []
        for t in range(length):
            p = tuple(t if i == a else 0 for i in range(dim))
            support.append(lattice.index(1, f"{axis}{p}"))
        loops.append(BitVec.from_support(code.n, support))
    return loops


def toric_setup(code: CssSubsystemCode) -> WorkedModel:
    """Ungauge the Z side of a type-1 toric code.

    X generators are the vertex stars, and Z symmetries the plaquette
    stabilizers; ``make_setup`` joins the logical Z classes (on a torus)
    and finds the stars' all-ones relation.
    """
    if code.metadata.get("k", 1) != 1:
        raise ValueError("natural toric setup is for type k=1")
    setup = make_setup(code.n, list(code.stabilizer_z), x_gens=list(code.stabilizer_x))
    return WorkedModel(code.name, code, stabilizer_hamiltonian(code), setup)


def toric_sphere_model() -> WorkedModel:
    m = toric_setup(builders.build_toric_sphere())
    m.name = "toric-sphere"
    return m


def toric_torus_model(length: int = 3) -> WorkedModel:
    m = toric_setup(builders.build_toric(2, length, 1))
    m.name = "toric-torus"
    return m


def toric3d_model(length: int = 2) -> WorkedModel:
    m = toric_setup(builders.build_toric(3, length, 1))
    m.name = "toric-3d"
    return m


# ---------------------------------------------------------------------------
# Bacon-Shor / Xu-Moore
# ---------------------------------------------------------------------------


def bacon_shor_model(length: int = 3) -> WorkedModel:
    """Ungauge the row logical-Z group of the Bacon-Shor code.

    The row representatives generate every two-row Z stabilizer and the
    bare logical Z; X generators are the horizontal-edge gauge pairs,
    with one relation per row (the product around the row is the
    identity).  Two-column X stabilizers are the preserved symmetries.
    """
    code = builders.build_bacon_shor(length)
    L, n = length, code.n
    # Row r is both the r-th Z symmetry and the r-th relation among the
    # horizontal-edge X generators, which are indexed like the qubits
    # (vertex and h-edge (r, c) are both r*L + c).
    row_z = [BitVec.from_support(n, range(r * L, r * L + L)) for r in range(L)]
    col_combos = [BitVec.from_support(n, range(c, n, L)) for c in range(L)]
    setup = make_setup(
        n, row_z, x_gens=list(code.gauge_x), relations=row_z,
        preserved=list(code.stabilizer_x), preserved_combos=col_combos)
    return WorkedModel("bacon-shor", code, gauge_hamiltonian(code), setup)


def _z_terms_as_generators(h: Hamiltonian) -> Hamiltonian:
    """``h`` for a full gauging whose i-th swapped X generator is the Z
    support of its i-th Z-only term: that term's ``z_combo`` is the i-th
    generator alone, and no other term carries provenance."""
    width = sum(t.op.x.is_zero() for t in h)
    index = iter(range(width))
    return Hamiltonian(h.n, [
        Term(t.name, t.coupling, t.op,
             z_combo=BitVec(width, 1 << next(index)) if t.op.x.is_zero() else None)
        for t in h])


def xu_moore_check(length: int = 3) -> dict:
    """The full Bacon-Shor / Xu-Moore round trip and the full-gauging twist.

    Returns the mapped Hamiltonian, the independently built Xu-Moore
    model, the partial-gauge image back on the Bacon-Shor side, and the
    comparison of gauging *all* X symmetries against the transversal
    Hadamard conjugate under the horizontal/vertical edge transposition.
    """
    from .ungauge import gauge_hamiltonian as gauge_h

    model = bacon_shor_model(length)
    L = length
    mapped = ungauge_hamiltonian(model.hamiltonian, model.setup)
    xm = builders.build_xu_moore(L)

    regauged = gauge_h(xm.hamiltonian, model.setup)

    # Full gauging: every final X symmetry (emergent rows + preserved
    # columns) is gauged in the X/Z-swapped picture; the natural swapped
    # X generators are the Xu-Moore plaquettes, one per vertical edge, in
    # term order.  Each plaquette's ``z_combo`` becomes that one swapped
    # generator in place of its Bacon-Shor pair.
    h_for_full = _z_terms_as_generators(xm.hamiltonian)
    s_swapped = make_setup(xm.n, [p.x for p in xm.emergent + xm.preserved],
                           x_gens=[t.op.z for t in h_for_full if t.op.x.is_zero()])

    # Transposition: the gauged system's qubit j sits on the vertical
    # edge (r, c); the Hadamard conjugate lives on horizontal edges, and
    # (r, c) -> (c, r), that is r*L + c -> c*L + r, matches plaquettes to
    # plaquettes.
    relabel = {s: (s % L) * L + s // L for s in range(xm.n)}
    reference = transversal_hadamard_hamiltonian(xm.hamiltonian)
    full_report = full_gauge_comparison(h_for_full, s_swapped, reference, relabel)

    return {
        "model": model,
        "mapped": mapped,
        "xu_moore": xm,
        "mapped_matches_xu_moore": mapped.same_terms(xm.hamiltonian),
        "regauged": regauged,
        "regauged_matches_bacon_shor": regauged.same_terms(model.hamiltonian),
        "full_gauge_report": full_report,
    }


# ---------------------------------------------------------------------------
# Gauge color code
# ---------------------------------------------------------------------------


def _edges_by_color_pair(lattice: CellComplex,
                         edge_classes: list[str]) -> list[dict[str, list[int]]]:
    """Per vertex: its edges keyed by their other endpoint's color.

    Keys are the vertex's other colors in alphabetical order; each edge
    list is ascending.  ``edge_classes`` holds ``edge_color_class`` per edge.
    """
    colors = sorted(set(lattice.vertex_colors.values()))
    vertex_edges = lattice.generalized_boundary(1, 0)
    out = []
    for v, label in enumerate(lattice.cells[0]):
        own = lattice.vertex_colors[label]
        groups: dict[str, list[int]] = {c: [] for c in colors if c != own}
        for e in vertex_edges.row(v).support:
            groups[edge_classes[e].replace(own, "")].append(e)
        out.append(groups)
    return out


def gcc_model(length: int = 2) -> WorkedModel:
    """Ungauge the vertex Z stabilizers of the gauge color code.

    X generators are the edge gauge operators.  Each vertex contributes
    the three pairwise color relations, two independent per vertex.  On
    the 3-torus the Z operators that commute with every X gauge
    generator (the Z-type stabilizer group, the center of the gauge
    group) span more than the vertex operators: they carry topological
    membrane classes.  ``make_setup`` joins those to the vertex Z
    stabilizers, and the non-contractible relations to the per-vertex
    ones.  Vertex X stabilizers are the preserved symmetries, with the
    own-color+first-partner edge product as natural preimage.
    """
    code = builders.build_gcc(length)
    lattice = code.lattice
    n_edges = lattice.n_cells(1)
    edge_classes = [edge_color_class(lattice, e) for e in range(n_edges)]
    pair_edges = _edges_by_color_pair(lattice, edge_classes)

    relations = []
    preserved_combos = []
    for groups in pair_edges:
        by_pair = list(groups.values())
        for a, b in combinations(by_pair, 2):
            relations.append(BitVec.from_support(n_edges, a + b))
        preserved_combos.append(BitVec.from_support(n_edges, by_pair[0]))
    vertex_relation_count = len(relations)

    setup = make_setup(
        code.n, list(code.stabilizer_z), x_gens=list(code.gauge_x),
        relations=relations,
        preserved=list(code.stabilizer_x), preserved_combos=preserved_combos)
    topological = setup.d_z.cols - len(code.stabilizer_z)
    setup.notes = ["Y-type gauge terms are normalised per term as i^|S| X(S) Z(S)",
                   f"torus topology: {topological} topological Z stabilizer classes joined "
                   f"the vertex generators and {setup.d_r.rows - vertex_relation_count} "
                   "non-contractible relations joined the per-vertex ones"]
    return WorkedModel("gcc", code, gauge_hamiltonian(code), setup,
                       extra={"edge_classes": edge_classes,
                              "pair_edges": pair_edges,
                              "vertex_relation_count": vertex_relation_count})


def full_gauge_lgt(length: int = 2) -> dict:
    """Gauge all X symmetries of the ungauged gauge color code model.

    The gauged group is the final symmetry group: every single-color-pair
    vertex operator, given as the swapped setup's Z symmetries, plus, on
    the torus, the topological X classes that ``make_setup`` joins to
    them.  The swapped X generators are the link operators, one per edge:
    the image of Z gauge generator e, the e-th Z-only term of the
    lattice-gauge-theory image, is the link operator of edge e, so they
    are read off those terms, as ``xu_moore_check`` reads its plaquettes.
    The result is compared with the transversal Hadamard conjugate of the
    image under the identity edge relabeling.
    """
    model = gcc_model(length)
    n_edges = model.code.lattice.n_cells(1)
    pair_ops = [BitVec.from_support(n_edges, edges)
                for groups in model.extra["pair_edges"] for edges in groups.values()]

    h_lgt = ungauge_hamiltonian(gauge_hamiltonian(model.code), model.setup)
    h_lgt, _ = strip_identity_terms(h_lgt)
    h_for_full = _z_terms_as_generators(h_lgt)
    s_swapped = make_setup(n_edges, pair_ops,
                           x_gens=[t.op.z for t in h_for_full if t.op.x.is_zero()])
    reference = transversal_hadamard_hamiltonian(h_lgt)
    report = full_gauge_comparison(h_for_full, s_swapped, reference,
                                   {e: e for e in range(n_edges)})
    report["topological_x_classes"] = s_swapped.d_z.cols - len(pair_ops)
    return {"model": model, "swapped_setup": s_swapped, "report": report}


def gcc_phase_hamiltonians(model: WorkedModel) -> dict:
    """The three gauge Hamiltonians of a ``gcc_model`` and their ungauged images."""
    code = model.code
    h_x = gauge_hamiltonian(code, kinds="X")
    h_z = gauge_hamiltonian(code, kinds="Z")
    h_y = y_gauge_hamiltonian(code)
    return {
        "H_X": h_x, "H_Z": h_z, "H_Y": h_y,
        "image_X": ungauge_hamiltonian(h_x, model.setup),
        "image_Z": ungauge_hamiltonian(h_z, model.setup),
        "image_Y": ungauge_hamiltonian(h_y, model.setup),
    }


# ---------------------------------------------------------------------------
# Fractal code
# ---------------------------------------------------------------------------


def fractal_model(length: int = 4, boundary: str = "periodic") -> WorkedModel:
    """Ungauge the Z side of the 3D fractal code.

    X generators are the vertex X checks, and Z symmetries the vertex Z
    checks; ``make_setup`` joins the logical-Z classes (string/fractal
    shaped) and computes the relation space (layered Sierpinski patterns,
    often empty on a periodic torus) as a kernel basis.
    """
    code = builders.build_fractal_code(length, boundary)
    setup = make_setup(code.n, list(code.stabilizer_z), x_gens=list(code.stabilizer_x))
    return WorkedModel("fractal", code, stabilizer_hamiltonian(code), setup)


# ---------------------------------------------------------------------------
# 2D color code, partial ungauging
# ---------------------------------------------------------------------------


def color2d_partial_model(length: int = 3, color: str = "c") -> WorkedModel:
    """Ungauge only the Z stabilizers at vertices of one chosen color.

    The symmetric X generators are the two-face operators of edges
    containing the chosen color; each chosen-color vertex gives one
    relation (the product of its incident edge operators).  X stars at
    the other two colors are preserved; their images are the vertex
    stars of the two sublattice toric codes.
    """
    code = builders.build_color_code_2d(length)
    lattice = code.lattice
    if color not in set(lattice.vertex_colors.values()):
        raise ValueError(f"unknown color {color!r}")
    vcol = [lattice.vertex_colors[lab] for lab in lattice.cells[0]]

    z_syms = [code.stabilizer_z[v] for v in range(lattice.n_cells(0)) if vcol[v] == color]

    edge_classes = [edge_color_class(lattice, e) for e in range(lattice.n_cells(1))]
    pair_edges = _edges_by_color_pair(lattice, edge_classes)
    edge_faces = lattice.boundary[2]  # row e = faces containing edge e
    sym_edges = [e for e, cls in enumerate(edge_classes) if color in cls]
    x_gens = [edge_faces.row(e) for e in sym_edges]
    gen_of_edge = {e: i for i, e in enumerate(sym_edges)}

    def combo(v: int, partner: str) -> BitVec:
        """The X generators of vertex v's edges to ``partner``-colored vertices."""
        return BitVec.from_support(len(sym_edges),
                                   [gen_of_edge[e] for e in pair_edges[v][partner]])

    # A chosen-color vertex's pair groups hold all of its edges.
    relations = []
    preserved = []
    preserved_combos = []
    for v in range(lattice.n_cells(0)):
        if vcol[v] == color:
            relations.append(BitVec.from_support(len(sym_edges), [
                gen_of_edge[e] for edges in pair_edges[v].values() for e in edges]))
        else:
            preserved.append(code.stabilizer_x[v])
            preserved_combos.append(combo(v, color))

    setup = make_setup(code.n, z_syms, x_gens=x_gens, relations=relations,
                       preserved=preserved, preserved_combos=preserved_combos)

    # Comparison Hamiltonian: a chosen-color X star is a product of edge
    # operators in either surviving sublattice, so it is listed once per
    # representative; the mapped model is then term-for-term two toric
    # codes (the two images differ by the emergent symmetry at that vertex).
    h = Hamiltonian(code.n)
    other_colors = sorted(set(lattice.vertex_colors.values()) - {color})
    for v in range(lattice.n_cells(0)):
        op = PauliOp(code.n, code.stabilizer_x[v], BitVec(code.n))
        if vcol[v] != color:
            h.add(Term(f"X[{lattice.cells[0][v]}]", "J_X", op, x_combo=combo(v, color)))
        else:
            for o in other_colors:
                pair = "".join(sorted(color + o))
                h.add(Term(f"X[{lattice.cells[0][v]}]:{pair}", "J_X", op, x_combo=combo(v, o)))
        if vcol[v] != color:
            h.add(Term(f"Z[{lattice.cells[0][v]}]", "J_Z",
                       PauliOp(code.n, BitVec(code.n), code.stabilizer_z[v])))

    return WorkedModel("color2d-partial", code, h, setup,
                       extra={"color": color, "sym_edges": sym_edges})


# ---------------------------------------------------------------------------
# The seven worked setups
# ---------------------------------------------------------------------------


def worked_models() -> dict[str, WorkedModel]:
    return {
        "toric-sphere": toric_sphere_model(),
        "toric-torus": toric_torus_model(3),
        "toric-3d": toric3d_model(2),
        "bacon-shor": bacon_shor_model(3),
        "gcc": gcc_model(2),
        "fractal": fractal_model(4),
        "color2d-partial": color2d_partial_model(3),
    }
