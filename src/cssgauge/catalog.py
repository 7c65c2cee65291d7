"""Worked models: each code family wired to its natural ungauging setup.

The engine in ``ungauge`` is generic; what makes the worked examples
reproduce known models exactly is the choice of *natural* generating
sets (geometric gauge generators, per-row or per-vertex relations) and
the preimage provenance attached to Hamiltonian terms.  This module
owns those choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from . import builders
from .builders import CssSubsystemCode
from .chains import _coset_representatives, css_logical_reps
from .codes import gauge_hamiltonian, stabilizer_hamiltonian, y_gauge_hamiltonian
from .gf2 import BitMatrix, BitVec, kernel_basis
from .lattice import AXES, CellComplex, edge_color_class
from .pauli import Hamiltonian, PauliOp, Term, transversal_hadamard_hamiltonian
from .ungauge import (
    UngaugeSetup,
    full_gauge_comparison,
    make_setup,
    strip_identity_terms,
    ungauge_hamiltonian,
)


@dataclass
class WorkedModel:
    """A code, the Hamiltonian being mapped, and its ungauging setup."""

    name: str
    code: Optional[CssSubsystemCode]
    hamiltonian: Hamiltonian
    setup: UngaugeSetup
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Toric codes
# ---------------------------------------------------------------------------


def _axis_loops(code: CssSubsystemCode) -> list[BitVec]:
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

    Z symmetries are the plaquette stabilizers plus (on a torus) the
    logical Z loops, making the augmented complex exact; X generators
    are the vertex stars, whose single relation is the all-ones product.
    """
    if code.metadata.get("k", 1) != 1:
        raise ValueError("natural toric setup is for type k=1")
    if code.metadata.get("family") == "toric":
        loops = _axis_loops(code)
    else:
        loops, _ = css_logical_reps(code.css_complex())
    n_fin = len(code.stabilizer_x)
    relations = [BitVec(n_fin, (1 << n_fin) - 1)] if n_fin else []
    setup = make_setup(code.n, list(code.stabilizer_z) + loops,
                       x_gens=list(code.stabilizer_x), relations=relations)
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
    L = length
    verts = code.metadata["h_edges"]
    eid = {v: i for i, v in enumerate(verts)}
    n = code.n
    row_z = [BitVec.from_support(n, [eid[(r, c)] for c in range(L)]) for r in range(L)]
    relations = [BitVec.from_support(n, [eid[(r, c)] for c in range(L)]) for r in range(L)]
    col_combos = [BitVec.from_support(n, [eid[(r, c)] for r in range(L)]) for c in range(L)]
    setup = make_setup(
        n, row_z, x_gens=list(code.gauge_x), relations=relations,
        preserved=list(code.stabilizer_x), preserved_combos=col_combos)
    return WorkedModel("bacon-shor", code, gauge_hamiltonian(code), setup)


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
    # X generators are the Xu-Moore plaquettes, one per vertical edge.
    code_edges = builders._torus_vertices(L)
    eid = {v: i for i, v in enumerate(code_edges)}
    row_supports = [BitVec.from_support(xm.n, [eid[(r, c)] for c in range(L)]) for r in range(L)]
    col_supports = [BitVec.from_support(xm.n, [eid[(r, c)] for r in range(L)]) for c in range(L)]
    plaquettes = []
    for r, c in code_edges:
        plaquettes.append(BitVec.from_support(
            xm.n, [eid[(r, (c - 1) % L)], eid[(r, c)],
                   eid[((r + 1) % L, (c - 1) % L)], eid[((r + 1) % L, c)]]))
    s_swapped = make_setup(xm.n, row_supports + col_supports, x_gens=plaquettes)

    h_for_full = Hamiltonian(xm.n)
    for t in xm.hamiltonian:
        meta = dict(t.meta)
        if "plaquette_index" in meta:
            meta["swapped_x_combo"] = BitVec(xm.n, 1 << meta["plaquette_index"])
        h_for_full.add(Term(t.name, t.coupling, t.op, meta))

    # Transposition: the gauged system's qubit j sits on the vertical
    # edge (r, c); the Hadamard conjugate lives on horizontal edges, and
    # (r, c) -> (c, r) matches plaquettes to plaquettes.
    relabel = {eid[(r, c)]: eid[(c, r)] for r, c in code_edges}
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
    the 3-torus the stabilizer group (center of the gauge group) is
    larger than the vertex-operator span: it carries topological
    membrane classes.  The Z symmetry group here is the full Z-type
    stabilizer group, so the computed topological Z classes join the
    vertex generators, and the relation list gains the computed
    non-contractible relations beyond the per-vertex ones.  Vertex X
    stabilizers are the preserved symmetries, with the
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

    d_x = BitMatrix.from_rows(code.n, code.gauge_x)
    topo_z = _coset_representatives(kernel_basis(d_x),
                                    BitMatrix.from_rows(code.n, code.stabilizer_z))
    z_syms = list(code.stabilizer_z) + topo_z
    topo_relations = _coset_representatives(
        kernel_basis(d_x.transpose()), BitMatrix.from_rows(n_edges, relations))
    relations += topo_relations

    setup = make_setup(
        code.n, z_syms, x_gens=list(code.gauge_x),
        relations=relations,
        preserved=list(code.stabilizer_x), preserved_combos=preserved_combos,
        notes=["Y-type gauge terms are normalised per term as i^|S| X(S) Z(S)",
               f"torus topology: {len(topo_z)} topological Z stabilizer classes joined "
               f"the vertex generators and {len(topo_relations)} non-contractible "
               "relations joined the per-vertex ones"])
    return WorkedModel("gcc", code, gauge_hamiltonian(code), setup,
                       extra={"edge_classes": edge_classes,
                              "pair_edges": pair_edges,
                              "vertex_relation_count": vertex_relation_count,
                              "topological_z_count": len(topo_z),
                              "topological_relation_count": len(topo_relations)})


def full_gauge_lgt(length: int = 2) -> dict:
    """Gauge all X symmetries of the ungauged gauge color code model.

    The gauged group is the final symmetry group (every single-color-pair
    vertex operator) plus, on the torus, its topological X classes; the
    swapped X generators are the link operators, one per edge.  The
    result is compared with the transversal Hadamard conjugate of the
    lattice-gauge-theory image under the identity edge relabeling.
    """
    model = gcc_model(length)
    code, lattice = model.code, model.code.lattice
    n_edges = lattice.n_cells(1)
    pair_ops = [BitVec.from_support(n_edges, edges)
                for groups in model.extra["pair_edges"] for edges in groups.values()]

    links = [BitVec.from_support(n_edges, lattice.link(1, 1, e)) for e in range(n_edges)]
    link_matrix = BitMatrix.from_rows(n_edges, links)
    topological = _coset_representatives(
        kernel_basis(link_matrix), BitMatrix.from_rows(n_edges, pair_ops))
    s_swapped = make_setup(n_edges, pair_ops + topological, x_gens=links)

    h_lgt = ungauge_hamiltonian(gauge_hamiltonian(code), model.setup)
    h_lgt, _ = strip_identity_terms(h_lgt)
    h_for_full = Hamiltonian(n_edges)
    for t in h_lgt:
        meta = {}
        if t.op.x.is_zero():
            edge = int(t.name[3:-1])       # GZ[e] terms are the link operators
            meta["swapped_x_combo"] = BitVec(n_edges, 1 << edge)
        h_for_full.add(Term(t.name, t.coupling, t.op, meta))
    reference = transversal_hadamard_hamiltonian(h_lgt)
    report = full_gauge_comparison(h_for_full, s_swapped,
                                   reference, {e: e for e in range(n_edges)})
    report["topological_x_classes"] = len(topological)
    return {"model": model, "swapped_setup": s_swapped, "report": report}


def gcc_phase_hamiltonians(length: int = 2) -> dict:
    """The three gauge Hamiltonians of the GCC and their ungauged images."""
    model = gcc_model(length)
    code = model.code
    h_x = gauge_hamiltonian(code, kinds="X")
    h_z = gauge_hamiltonian(code, kinds="Z")
    h_y = y_gauge_hamiltonian(code)
    return {
        "model": model,
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

    Z symmetries are the vertex Z checks plus computed logical-Z
    representatives (string/fractal shaped); X generators are the vertex
    X checks.  The relation space (layered Sierpinski patterns, often
    empty on a periodic torus) is computed as a kernel basis.
    """
    code = builders.build_fractal_code(length, boundary)
    z_logicals, _ = css_logical_reps(code.css_complex())
    setup = make_setup(code.n, list(code.stabilizer_z) + z_logicals,
                       x_gens=list(code.stabilizer_x))
    return WorkedModel("fractal", code, stabilizer_hamiltonian(code), setup,
                       extra={"z_logical_count": len(z_logicals)})


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

    vertex_edges = lattice.generalized_boundary(1, 0)
    relations = []
    for v in range(lattice.n_cells(0)):
        if vcol[v] != color:
            continue
        relations.append(BitVec.from_support(
            len(sym_edges), [gen_of_edge[e] for e in vertex_edges.row(v).support]))

    preserved = []
    preserved_combos = []
    preserved_vertices = []
    for v in range(lattice.n_cells(0)):
        if vcol[v] == color:
            continue
        preserved.append(code.stabilizer_x[v])
        preserved_combos.append(combo(v, color))
        preserved_vertices.append(v)

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
            h.add(Term(f"X[{lattice.cells[0][v]}]", "J_X", op, {"x_combo": combo(v, color)}))
        else:
            for o in other_colors:
                pair = "".join(sorted(color + o))
                h.add(Term(f"X[{lattice.cells[0][v]}]:{pair}", "J_X", op,
                           {"x_combo": combo(v, o)}))
        if vcol[v] != color:
            h.add(Term(f"Z[{lattice.cells[0][v]}]", "J_Z",
                       PauliOp(code.n, BitVec(code.n), code.stabilizer_z[v])))

    return WorkedModel("color2d-partial", code, h, setup,
                       extra={"color": color, "sym_edges": sym_edges,
                              "preserved_vertices": preserved_vertices})


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
