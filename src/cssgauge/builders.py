"""Builders for every code family handled by the duality engine.

Each builder returns a CssSubsystemCode whose qubit labels come from the
underlying lattice cells and whose metadata records the geometry needed
downstream (coordinates for slab regions, the slab axis, family
parameters).
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import CssSubsystemCode
from .gf2 import BitVec
from .lattice import (
    AXES,
    CellComplex,
    gcc_lattice,
    hypercubic_torus,
    octahedron_sphere,
    triangular_torus,
)
from .pauli import Hamiltonian, PauliOp, Term


def _parse_hypercubic_label(label: str) -> tuple[str, tuple[int, ...]]:
    axes, _, rest = label.partition("(")
    point = tuple(int(t) for t in rest.rstrip(")").split(",") if t.strip() != "")
    return (axes if axes != "." else "", point)


def _hypercubic_coords(lattice: CellComplex, d: int) -> list[tuple[float, ...]]:
    coords = []
    for label in lattice.cells[d]:
        axes, p = _parse_hypercubic_label(label)
        c = [float(v) for v in p]
        for a in axes:
            c[AXES.index(a)] += 0.5
        coords.append(tuple(c))
    return coords


def toric_code_from_complex(lattice: CellComplex, k: int = 1,
                            name: str = "toric") -> CssSubsystemCode:
    """Toric code with qubits on k-cells of an arbitrary cell complex.

    X checks come from (k-1)-cells (their k-stars), Z checks from
    (k+1)-cells (their boundaries).
    """
    if not 1 <= k <= lattice.dimension - 1:
        raise ValueError("need 1 <= k <= D-1")
    n = lattice.n_cells(k)
    bk = lattice.boundary[k]
    x_stabs = [bk.row(i) for i in range(bk.rows)]
    faces = lattice.generalized_boundary(k, k + 1)
    z_stabs = [faces.row(j) for j in range(faces.rows)]
    return CssSubsystemCode(
        name, n, gauge_x=x_stabs, gauge_z=z_stabs,
        qubit_labels=lattice.cells[k], lattice=lattice,
        metadata={"family": name, "k": k})


def build_toric(dim: int, length: int, k: int = 1) -> CssSubsystemCode:
    """Toric code of type k on the periodic hypercubic lattice."""
    if dim < 2:
        raise ValueError("toric code needs dimension >= 2")
    if not 1 <= k <= dim - 1:
        raise ValueError("need 1 <= k <= D-1")
    if length < 2:
        raise ValueError("need length >= 2")
    lattice = hypercubic_torus(dim, length)
    code = toric_code_from_complex(lattice, k, name=f"toric{dim}d")
    code.metadata.update({
        "family": "toric", "D": dim, "L": length, "k": k,
        "qubit_coords": _hypercubic_coords(lattice, k),
        "slab_axis": 1 if dim == 2 else 2,
    })
    return code


def build_toric_sphere() -> CssSubsystemCode:
    """The 2D toric code on the octahedron sphere (V=6, E=12, F=8); no logicals."""
    lattice = octahedron_sphere()
    code = toric_code_from_complex(lattice, 1, name="toric-sphere")
    code.metadata.update({"family": "toric-sphere", "D": 2, "k": 1})
    return code


def _torus_vertices(length: int) -> list[tuple[int, int]]:
    return [(r, c) for r in range(length) for c in range(length)]


def build_bacon_shor(length: int) -> CssSubsystemCode:
    """The 2D subsystem Bacon-Shor code on an L x L torus.

    Qubits on vertices; two-qubit X gauge generators on horizontal edges
    and Z gauge generators on vertical edges; stabilizers are two-column
    X and two-row Z operators.
    """
    if length < 2:
        raise ValueError("need length >= 2")
    L = length
    verts = _torus_vertices(L)
    vid = {v: i for i, v in enumerate(verts)}
    n = L * L

    def pair(a, b):
        return BitVec.from_support(n, [vid[a], vid[b]])

    gauge_x = [pair((r, c), (r, (c + 1) % L)) for r, c in verts]   # horizontal
    gauge_z = [pair((r, c), ((r + 1) % L, c)) for r, c in verts]   # vertical
    stab_x = [BitVec.from_support(n, [vid[(r, c)] for r in range(L)]
                                  + [vid[(r, (c + 1) % L)] for r in range(L)])
              for c in range(L)]
    stab_z = [BitVec.from_support(n, [vid[(r, c)] for c in range(L)]
                                  + [vid[((r + 1) % L, c)] for c in range(L)])
              for r in range(L)]
    return CssSubsystemCode(
        "bacon-shor", n, gauge_x, gauge_z, stab_x, stab_z,
        qubit_labels=[f"v{v}" for v in verts],
        metadata={"family": "bacon-shor", "L": L,
                  "h_edges": verts, "v_edges": verts,
                  "qubit_coords": [(float(c), float(r)) for r, c in verts]})


class XuMooreModel(NamedTuple):
    """The Xu-Moore model: qubits on horizontal edges of an L x L torus.

    Terms: single-qubit X per edge (J_X) and a four-qubit Z plaquette per
    vertical edge (J_Z).  Row X operators are the emergent symmetries,
    column X operators the preserved ones.
    """

    n: int
    hamiltonian: Hamiltonian
    emergent: list[PauliOp]
    preserved: list[PauliOp]


def build_xu_moore(length: int) -> XuMooreModel:
    if length < 2:
        raise ValueError("need length >= 2")
    L = length
    edges = _torus_vertices(L)          # h-edge (r, c) joins (r,c)-(r,c+1)
    eid = {e: i for i, e in enumerate(edges)}
    n = L * L
    h = Hamiltonian(n)
    for r, c in edges:
        h.add(Term(f"X[{(r, c)}]", "J_X", PauliOp.x_op(n, [eid[(r, c)]])))
    for r, c in edges:                   # plaquette of the vertical edge (r,c)-(r+1,c)
        support = [eid[(r, (c - 1) % L)], eid[(r, c)],
                   eid[((r + 1) % L, (c - 1) % L)], eid[((r + 1) % L, c)]]
        # z_combo: the vertical pair of Bacon-Shor vertices, for gauging back;
        # vertices and horizontal edges share the same row-major (r, c) index.
        z_combo = BitVec.from_support(n, [eid[(r, c)], eid[((r + 1) % L, c)]])
        h.add(Term(f"Zplaq[{(r, c)}]", "J_Z", PauliOp.z_op(n, support),
                   {"z_combo": z_combo, "plaquette_index": eid[(r, c)]}))
    emergent = [PauliOp.x_op(n, [eid[(r, c)] for c in range(L)]) for r in range(L)]
    preserved = [PauliOp.x_op(n, [eid[(r, c)] for r in range(L)]) for c in range(L)]
    return XuMooreModel(n, h, emergent, preserved)


def build_color_code_2d(length: int) -> CssSubsystemCode:
    """The 2D color code on a 3-colored triangular torus; qubits on faces."""
    lattice = triangular_torus(length)
    n = lattice.n_cells(2)
    star = lattice.generalized_boundary(2, 0)
    stabs = [star.row(v) for v in range(lattice.n_cells(0))]
    return CssSubsystemCode(
        "color2d", n, gauge_x=stabs, gauge_z=list(stabs),
        qubit_labels=lattice.cells[2], lattice=lattice,
        metadata={"family": "color2d", "L": length})


def build_gcc(length: int) -> CssSubsystemCode:
    """The 3D gauge color code on the tetrahedral honeycomb torus.

    One qubit per tetrahedron; X and Z gauge generators on edge stars,
    X and Z stabilizers on vertex stars.
    """
    lattice = gcc_lattice(length)
    n = lattice.n_cells(3)
    edge_star = lattice.generalized_boundary(3, 1)
    vertex_star = lattice.generalized_boundary(3, 0)
    gauge = [edge_star.row(e) for e in range(lattice.n_cells(1))]
    stabs = [vertex_star.row(v) for v in range(lattice.n_cells(0))]
    return CssSubsystemCode(
        "gcc", n, gauge_x=list(gauge), gauge_z=list(gauge),
        stabilizer_x=list(stabs), stabilizer_z=list(stabs),
        qubit_labels=lattice.cells[3], lattice=lattice,
        metadata={"family": "gcc", "L": length})


def build_fractal_code(length: int, boundary: str = "periodic") -> CssSubsystemCode:
    """The 3D fractal code: two qubits (A, B) per vertex of a cubic lattice.

    X checks touch A at {v, v-z} and B at {v, v-x, v-y}; Z checks touch
    A at {v, v+x, v+y} and B at {v, v+z}.  With boundary="open_y" the y
    direction is open and out-of-range sites are dropped from supports
    (x and z stay periodic), which keeps every check pair commuting.
    """
    if length < 3:
        raise ValueError("need length >= 3")
    if boundary not in ("periodic", "open_y"):
        raise ValueError("boundary must be 'periodic' or 'open_y'")
    L = length
    open_y = boundary == "open_y"
    verts = [(i, j, k) for i in range(L) for j in range(L) for k in range(L)]
    vid = {v: i for i, v in enumerate(verts)}
    n = 2 * L ** 3

    def a_q(v):
        return vid[v]

    def b_q(v):
        return L ** 3 + vid[v]

    def site(v):
        i, j, k = v
        if open_y and not 0 <= j < L:
            return None
        return (i % L, j % L if not open_y else j, k % L)

    def collect(qubit, offsets, v):
        out = []
        for d in offsets:
            w = site((v[0] + d[0], v[1] + d[1], v[2] + d[2]))
            if w is not None:
                out.append(qubit(w))
        return out

    stab_x, stab_z = [], []
    for v in verts:
        sx = collect(a_q, [(0, 0, 0), (0, 0, -1)], v) \
            + collect(b_q, [(0, 0, 0), (-1, 0, 0), (0, -1, 0)], v)
        sz = collect(a_q, [(0, 0, 0), (1, 0, 0), (0, 1, 0)], v) \
            + collect(b_q, [(0, 0, 0), (0, 0, 1)], v)
        stab_x.append(BitVec.from_support(n, sx))
        stab_z.append(BitVec.from_support(n, sz))

    labels = [f"A{v}" for v in verts] + [f"B{v}" for v in verts]
    coords = [tuple(map(float, v)) for v in verts] * 2
    return CssSubsystemCode(
        "fractal3d", n, gauge_x=stab_x, gauge_z=stab_z,
        qubit_labels=labels,
        metadata={"family": "fractal", "L": L, "boundary": boundary,
                  "vertices": verts, "qubit_coords": coords, "slab_axis": 2})
