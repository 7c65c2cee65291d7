"""Builders for every code family handled by the duality engine.

Each builder returns a CssSubsystemCode whose qubit labels come from the
underlying lattice cells and whose metadata records the geometry needed
downstream (coordinates for slab regions, the slab axis, family
parameters).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .codes import CssSubsystemCode
from .gf2 import BitVec
from .lattice import (
    CellComplex,
    gcc_lattice,
    hypercubic_centers,
    hypercubic_torus,
    octahedron_sphere,
    torus_sites,
    triangular_torus,
)
from .pauli import Hamiltonian, PauliOp, Term


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
        "qubit_coords": hypercubic_centers(dim, length, k),
        "slab_axis": 1 if dim == 2 else 2,
    })
    return code


def build_toric_sphere() -> CssSubsystemCode:
    """The 2D toric code on the octahedron sphere (V=6, E=12, F=8); no logicals."""
    lattice = octahedron_sphere()
    code = toric_code_from_complex(lattice, 1, name="toric-sphere")
    code.metadata.update({"family": "toric-sphere", "D": 2, "k": 1})
    return code


def build_bacon_shor(length: int) -> CssSubsystemCode:
    """The 2D subsystem Bacon-Shor code on an L x L torus.

    Qubits on vertices; two-qubit X gauge generators on horizontal edges
    and Z gauge generators on vertical edges; stabilizers are two-column
    X and two-row Z operators.  Vertex (r, c) is qubit r*L + c, the site
    of ``torus_sites``, and h-edge and v-edge (r, c) start there.
    """
    if length < 2:
        raise ValueError("need length >= 2")
    L = length
    names, (down, right), _ = torus_sites(2, L)
    n = L * L
    gauge_x = [BitVec.from_support(n, (s, right[s])) for s in range(n)]
    gauge_z = [BitVec.from_support(n, (s, down[s])) for s in range(n)]
    cols = [range(c, n, L) for c in range(L)]
    rows = [range(r * L, r * L + L) for r in range(L)]
    stab_x = [BitVec.from_support(n, [*col, *(right[s] for s in col)]) for col in cols]
    stab_z = [BitVec.from_support(n, [*row, *(down[s] for s in row)]) for row in rows]
    verts = list(itertools.product(range(L), repeat=2))
    return CssSubsystemCode(
        "bacon-shor", n, gauge_x, gauge_z, stab_x, stab_z,
        qubit_labels=[f"v{p}" for p in names],
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
    names, (down, _), (_, left) = torus_sites(2, L)   # h-edge s joins s to its right neighbour
    n = L * L
    h = Hamiltonian(n)
    for s in range(n):
        h.add(Term(f"X[{names[s]}]", "J_X", PauliOp.x_op(n, [s])))
    for s in range(n):                   # plaquette of the vertical edge s -- down[s]
        support = [left[s], s, left[down[s]], down[s]]
        # z_combo: the vertical pair of Bacon-Shor vertices, for gauging back;
        # vertices and horizontal edges share the same row-major (r, c) index.
        h.add(Term(f"Zplaq[{names[s]}]", "J_Z", PauliOp.z_op(n, support),
                   z_combo=BitVec.from_support(n, [s, down[s]])))
    emergent = [PauliOp.x_op(n, range(r * L, r * L + L)) for r in range(L)]
    preserved = [PauliOp.x_op(n, range(c, n, L)) for c in range(L)]
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
    names, fwd, back = torus_sites(3, L)
    N = len(names)
    n = 2 * N
    # A is qubit s and B qubit N + s.  Under open_y a y step that wraps
    # (from y = 0 down or from y = L-1 up) leaves the lattice and is dropped.
    open_y = boundary == "open_y"
    stab_x, stab_z = [], []
    for s in range(N):
        sx = [s, back[2][s], N + s, N + back[0][s]]
        sz = [s, fwd[0][s], N + s, N + fwd[2][s]]
        if not (open_y and back[1][s] > s):
            sx.append(N + back[1][s])
        if not (open_y and fwd[1][s] < s):
            sz.append(fwd[1][s])
        stab_x.append(BitVec.from_support(n, sx))
        stab_z.append(BitVec.from_support(n, sz))

    verts = list(itertools.product(range(L), repeat=3))
    labels = [f"A{p}" for p in names] + [f"B{p}" for p in names]
    coords = [tuple(map(float, v)) for v in verts] * 2
    return CssSubsystemCode(
        "fractal3d", n, gauge_x=stab_x, gauge_z=stab_z,
        qubit_labels=labels,
        metadata={"family": "fractal", "L": L, "boundary": boundary,
                  "vertices": verts, "qubit_coords": coords, "slab_axis": 2})
