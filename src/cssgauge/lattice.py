"""Colored cell complexes and the concrete lattices used by the builders.

Cells are labeled objects with explicit incidence matrices rather than
vertex subsets: on small periodic tori distinct cells can share the same
vertex set (parallel edges at L=2), so identity lives in the label.
``boundary[d]`` maps d-cells to their (d-1)-faces; generalized boundary
operators and links are derived from these by boolean closure.

Incidence is always read by rows: row i of ``generalized_boundary(k, l)``
lists the k-cells related to l-cell i.  The (k, l) and (l, k) matrices
are transposes of each other, so "which k-cells meet this l-cell" is
one row of the first and never a column of the second.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .gf2 import BitMatrix, BitVec, is_zero_product


class CellComplex:
    def __init__(self, dimension: int, cells: Sequence[Sequence[str]],
                 boundary: Sequence[Optional[BitMatrix]],
                 vertex_colors: Optional[dict[str, str]] = None):
        if len(cells) != dimension + 1:
            raise ValueError("need cell lists for every dimension 0..D")
        if len(boundary) != dimension + 1 or boundary[0] is not None:
            raise ValueError("boundary[d] required for 1 <= d <= D, boundary[0] must be None")
        self.dimension = dimension
        self.cells = [tuple(c) for c in cells]
        self.boundary = list(boundary)
        self.vertex_colors = dict(vertex_colors) if vertex_colors else None
        self._index = [
            {label: i for i, label in enumerate(layer)} for layer in self.cells
        ]
        for d in range(1, dimension + 1):
            b = self.boundary[d]
            if b.rows != len(self.cells[d - 1]) or b.cols != len(self.cells[d]):
                raise ValueError(f"boundary[{d}] has wrong shape")
        self._gb_cache: dict[tuple[int, int], BitMatrix] = {}

    # -- basics --------------------------------------------------------

    def n_cells(self, d: int) -> int:
        return len(self.cells[d])

    def index(self, d: int, label: str) -> int:
        return self._index[d][label]

    def validate(self) -> bool:
        """Boundary-of-boundary vanishes; colored lattices have no monochromatic edge."""
        for d in range(2, self.dimension + 1):
            if not is_zero_product(self.boundary[d - 1], self.boundary[d]):
                return False
        if self.vertex_colors is not None:
            edge_vertices = self.generalized_boundary(0, 1)
            for e in range(self.n_cells(1)):
                cols = {self.vertex_colors[self.cells[0][v]]
                        for v in edge_vertices.row(e).support}
                if len(cols) < 2:
                    return False
        return True

    # -- derived incidence ----------------------------------------------

    def vertex_set(self, d: int, i: int) -> frozenset[int]:
        return frozenset(BitVec(self.n_cells(0), self._vertex_bits(d, i)).support)

    def _vertex_bits(self, d: int, i: int) -> int:
        return 1 << i if d == 0 else self.generalized_boundary(0, d).row_bits(i)

    def generalized_boundary(self, k: int, l: int) -> BitMatrix:
        """The incidence of k-cells and l-cells, as an n_l x n_k matrix.

        Row i lists the k-cells related to l-cell i: those contained in
        it (k < l) or those containing it (k > l).  ``(k, l)`` and
        ``(l, k)`` are transposes of each other, so a question about the
        k-cells of an l-cell is always one row of one of them.  For
        k > l the matrix is ``boundary[k]`` when k == l+1 and otherwise
        the boolean composite of ``boundary[l+1]`` with
        ``generalized_boundary(k, l+1)``: each row ORs the rows of the
        (l+1)-cells it is incident to.
        """
        if k == l:
            raise ValueError("generalized boundary needs k != l")
        if not (0 <= k <= self.dimension and 0 <= l <= self.dimension):
            raise ValueError("dimension out of range")
        if (k, l) in self._gb_cache:
            return self._gb_cache[(k, l)]
        if k < l:
            result = self.generalized_boundary(l, k).transpose()
        elif k == l + 1:
            result = self.boundary[k]
        else:
            faces, upper = self.boundary[l + 1], self.generalized_boundary(k, l + 1)
            rows = []
            for i in range(faces.rows):
                acc = 0
                for j in faces.row(i).support:
                    acc |= upper.row_bits(j)
                rows.append(acc)
            result = BitMatrix(faces.rows, upper.cols, rows)
        self._gb_cache[(k, l)] = result
        return result

    def link(self, n: int, d: int, i: int) -> tuple[int, ...]:
        """The n-cells disjoint from cell (d, i) that share a top cell with it.

        Disjoint means disjoint vertex sets; top cells are D-cells.
        """
        top = self.dimension
        own = self._vertex_bits(d, i)
        tops = (i,) if d == top else self.generalized_boundary(top, d).row(i).support
        top_cells = self.generalized_boundary(n, top)
        near = 0
        for t in tops:
            near |= top_cells.row_bits(t)
        return tuple(c for c in BitVec(self.n_cells(n), near).support
                     if not self._vertex_bits(n, c) & own)

    def cell_colors(self, d: int, i: int) -> frozenset[str]:
        if self.vertex_colors is None:
            raise ValueError("lattice is not colored")
        return frozenset(self.vertex_colors[self.cells[0][v]] for v in self.vertex_set(d, i))

    def sublattice(self, colors: Iterable[str]) -> "CellComplex":
        """Restriction to cells whose vertex colors all lie in ``colors``."""
        if self.vertex_colors is None:
            raise ValueError("lattice is not colored")
        keep = set(colors)
        kept: list[list[int]] = []
        for d in range(self.dimension + 1):
            kept.append([i for i in range(self.n_cells(d))
                         if self.cell_colors(d, i) <= keep])
        top_dim = max((d for d in range(self.dimension + 1) if kept[d]), default=0)
        new_cells = [[self.cells[d][i] for i in kept[d]] for d in range(top_dim + 1)]
        new_boundary: list[Optional[BitMatrix]] = [None]
        for d in range(1, top_dim + 1):
            old_pos = {i: p for p, i in enumerate(kept[d - 1])}
            entries = []
            faces = self.generalized_boundary(d - 1, d)
            for new_c, old_c in enumerate(kept[d]):
                for f in faces.row(old_c).support:
                    entries.append((old_pos[f], new_c))
            new_boundary.append(
                BitMatrix.from_entries(len(kept[d - 1]), len(kept[d]), entries))
        colors_kept = {lab: col for lab, col in self.vertex_colors.items()
                       if col in keep and lab in self._index[0]}
        return CellComplex(top_dim, new_cells, new_boundary, colors_kept)

    # -- export ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "cells": [list(layer) for layer in self.cells],
            "incidence": [None] + [self.boundary[d].to_json() for d in range(1, self.dimension + 1)],
            "vertex_colors": self.vertex_colors,
        }

    def incidence_dot(self, d: int) -> str:
        """Graphviz rendering of the d-cell / (d-1)-cell incidence graph."""
        lines = ["graph incidence {"]
        faces = self.generalized_boundary(d - 1, d)
        for c in range(self.n_cells(d)):
            for f in faces.row(c).support:
                lines.append(f'  "{self.cells[d][c]}" -- "{self.cells[d - 1][f]}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        counts = ", ".join(str(self.n_cells(d)) for d in range(self.dimension + 1))
        return f"CellComplex(D={self.dimension}, cells=({counts}))"


# ---------------------------------------------------------------------------
# Concrete lattices
# ---------------------------------------------------------------------------


# Axis names of the hypercubic lattices, in axis order; cell labels spell
# a cell's axes with them, so they bound the dimension.
AXES = "xyzw"


def hypercubic_torus(dim: int, length: int) -> CellComplex:
    """Periodic hypercubic lattice: d-cells are (axis subset, base point)."""
    if dim < 1 or length < 2:
        raise ValueError("need dim >= 1 and length >= 2")
    if dim > len(AXES):
        raise ValueError(f"hypercubic lattices have at most {len(AXES)} axes ({AXES})")
    axis_sets = [
        [frozenset(s) for s in itertools.combinations(range(dim), d)]
        for d in range(dim + 1)
    ]
    points = list(itertools.product(range(length), repeat=dim))

    def lab(axes: frozenset[int], p: tuple[int, ...]) -> str:
        ax = "".join(AXES[a] for a in sorted(axes)) or "."
        return f"{ax}{p}"

    cells: list[list[str]] = []
    index: list[dict] = []
    for d in range(dim + 1):
        layer = []
        idx = {}
        for axes in axis_sets[d]:
            for p in points:
                idx[(axes, p)] = len(layer)
                layer.append(lab(axes, p))
        cells.append(layer)
        index.append(idx)

    boundary: list[Optional[BitMatrix]] = [None]
    for d in range(1, dim + 1):
        entries = []
        col = 0
        for axes in axis_sets[d]:
            for p in points:
                for a in sorted(axes):
                    sub = axes - {a}
                    shifted = tuple((p[i] + (1 if i == a else 0)) % length for i in range(dim))
                    for q in (p, shifted):
                        entries.append((index[d - 1][(sub, q)], col))
                col += 1
        boundary.append(BitMatrix.from_entries(len(cells[d - 1]), len(cells[d]), entries))
    return CellComplex(dim, cells, boundary)


def octahedron_sphere() -> CellComplex:
    """The octahedron triangulation of the 2-sphere: V=6, E=12, F=8."""
    verts = ["+x", "-x", "+y", "-y", "+z", "-z"]
    antipode = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if antipode[i] != j]
    faces = [(x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)]
    e_index = {e: k for k, e in enumerate(edges)}
    b1 = BitMatrix.from_entries(6, 12, [(v, k) for k, e in enumerate(edges) for v in e])
    face_entries = []
    for k, f in enumerate(faces):
        for pair in itertools.combinations(sorted(f), 2):
            face_entries.append((e_index[pair], k))
    b2 = BitMatrix.from_entries(12, 8, face_entries)
    cells = [verts,
             [f"{verts[i]}{verts[j]}" for i, j in edges],
             ["".join(verts[v] for v in f) for f in faces]]
    return CellComplex(2, cells, [None, b1, b2])


def triangular_torus(length: int) -> CellComplex:
    """Three-colorable triangular lattice on a torus; needs length % 3 == 0.

    Vertices (i,j) with neighbors along +x, +y and the (+x,-y) diagonal;
    color (i - j) mod 3 makes every edge bichromatic and every triangle
    carry all three colors.
    """
    if length < 3 or length % 3:
        raise ValueError("triangular torus coloring needs length divisible by 3")
    L = length
    verts = [(i, j) for i in range(L) for j in range(L)]
    v_index = {v: k for k, v in enumerate(verts)}
    color_names = ("a", "b", "c")

    def vlab(v):
        return f"v{v}"

    colors = {vlab(v): color_names[(v[0] - v[1]) % 3] for v in verts}

    edges: list[tuple[str, tuple, tuple, tuple]] = []
    for i, j in verts:
        edges.append(("E", (i, j), (i, j), ((i + 1) % L, j)))
        edges.append(("N", (i, j), (i, j), (i, (j + 1) % L)))
        edges.append(("D", (i, j), ((i + 1) % L, j), (i, (j + 1) % L)))
    e_index = {(kind, base): k for k, (kind, base, a, b) in enumerate(edges)}
    b1 = BitMatrix.from_entries(
        len(verts), len(edges),
        [(v_index[v], k) for k, (kind, base, a, b) in enumerate(edges) for v in (a, b)])

    faces = []
    face_entries = []
    for i, j in verts:
        up_edges = [("E", (i, j)), ("N", (i, j)), ("D", (i, j))]
        faces.append(f"up{(i, j)}")
        for e in up_edges:
            face_entries.append((e_index[e], len(faces) - 1))
        down_edges = [("D", (i, j)), ("E", (i, (j + 1) % L)), ("N", ((i + 1) % L, j))]
        faces.append(f"dn{(i, j)}")
        for e in down_edges:
            face_entries.append((e_index[e], len(faces) - 1))
    b2 = BitMatrix.from_entries(len(edges), len(faces), face_entries)

    cells = [
        [vlab(v) for v in verts],
        [f"{kind}{base}" for kind, base, a, b in edges],
        faces,
    ]
    return CellComplex(2, cells, [None, b1, b2], colors)


def gcc_lattice(length: int) -> CellComplex:
    """Four-colorable tetrahedral honeycomb on the 3-torus for the gauge color code.

    Corner vertices at integer points (colors a/b by coordinate parity)
    plus cube centers (colors c/d by parity).  Every cubic face carries
    four tetrahedra: the two centers it separates joined with each of its
    four edges.  Cell counts: V=2L^3, E=14L^3, F=24L^3, C=12L^3.
    """
    if length < 2 or length % 2:
        raise ValueError("gcc lattice coloring needs even length >= 2")
    L = length
    pts = [(i, j, k) for i in range(L) for j in range(L) for k in range(L)]

    def par(p):
        return sum(p) % 2

    corner_lab = {p: f"cor{p}" for p in pts}
    center_lab = {p: f"cen{p}" for p in pts}
    verts = [corner_lab[p] for p in pts] + [center_lab[p] for p in pts]
    v_index = {lab: i for i, lab in enumerate(verts)}
    colors = {corner_lab[p]: ("a" if par(p) == 0 else "b") for p in pts}
    colors.update({center_lab[p]: ("c" if par(p) == 0 else "d") for p in pts})

    def shift(p, axis, amount=1):
        return tuple((p[i] + (amount if i == axis else 0)) % L for i in range(3))

    # Cubic (ab) edges: (axis, base).  cd edges: one per cubic face.
    # Corner-center (ac/ad/bc/bd) edges: (corner point, cube point).
    axes = ("x", "y", "z")
    cubic_edges = [(a, p) for a in range(3) for p in pts]
    faces_cubic = [(a, p) for a in range(3) for p in pts]  # face normal to axis a at base p

    def face_corners(a, p):
        t1, t2 = [ax for ax in range(3) if ax != a]
        return [p, shift(p, t1), shift(p, t2), shift(shift(p, t1), t2)]

    def face_edges(a, p):
        t1, t2 = [ax for ax in range(3) if ax != a]
        return [(t1, p), (t1, shift(p, t2)), (t2, p), (t2, shift(p, t1))]

    def face_cubes(a, p):
        return [p, shift(p, a, -1)]

    corner_center = sorted(
        {(p, shift(shift(shift(p, 0, -dx), 1, -dy), 2, -dz))
         for p in pts for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)}
    )
    # (corner, cube) pairs: corner p belongs to cube q iff q = p - delta.

    edge_labels = []
    e_index = {}
    edge_vertices = []
    for a, p in cubic_edges:
        key = ("ab", a, p)
        e_index[key] = len(edge_labels)
        edge_labels.append(f"ab:{axes[a]}{p}")
        edge_vertices.append((corner_lab[p], corner_lab[shift(p, a)]))
    for a, p in faces_cubic:
        key = ("cd", a, p)
        e_index[key] = len(edge_labels)
        edge_labels.append(f"cd:{axes[a]}{p}")
        c1, c2 = face_cubes(a, p)
        edge_vertices.append((center_lab[c1], center_lab[c2]))
    for corner, cube in corner_center:
        key = ("cc", corner, cube)
        e_index[key] = len(edge_labels)
        edge_labels.append(f"cc:{corner}|{cube}")
        edge_vertices.append((corner_lab[corner], center_lab[cube]))

    b1 = BitMatrix.from_entries(
        len(verts), len(edge_labels),
        [(v_index[v], k) for k, pair in enumerate(edge_vertices) for v in pair])

    # Triangles: (cubic edge, cube containing it) and (face corner, face).
    tri_labels = []
    t_index = {}
    tri_entries = []

    def add_triangle(key, label, edge_keys):
        t_index[key] = len(tri_labels)
        tri_labels.append(label)
        for ek in edge_keys:
            tri_entries.append((e_index[ek], len(tri_labels) - 1))

    for a, p in cubic_edges:
        t1, t2 = [ax for ax in range(3) if ax != a]
        for dy in (0, -1):
            for dz in (0, -1):
                cube = shift(shift(p, t1, dy), t2, dz)
                q = shift(p, a)
                add_triangle(("ec", a, p, cube), f"ec:{axes[a]}{p}|{cube}",
                             [("ab", a, p), ("cc", p, cube), ("cc", q, cube)])
    for a, p in faces_cubic:
        c1, c2 = face_cubes(a, p)
        for corner in face_corners(a, p):
            add_triangle(("vf", corner, a, p), f"vf:{corner}|{axes[a]}{p}",
                         [("cd", a, p), ("cc", corner, c1), ("cc", corner, c2)])
    b2 = BitMatrix.from_entries(len(edge_labels), len(tri_labels), tri_entries)

    # Tetrahedra: one per (face, edge of that face).
    tet_labels = []
    tet_entries = []
    for a, p in faces_cubic:
        c1, c2 = face_cubes(a, p)
        for ea, ep in face_edges(a, p):
            col = len(tet_labels)
            tet_labels.append(f"t:{axes[a]}{p}|{axes[ea]}{ep}")
            eq = shift(ep, ea)
            for tk in [("ec", ea, ep, c1), ("ec", ea, ep, c2),
                       ("vf", ep, a, p), ("vf", eq, a, p)]:
                tet_entries.append((t_index[tk], col))
    b3 = BitMatrix.from_entries(len(tri_labels), len(tet_labels), tet_entries)

    cells = [verts, edge_labels, tri_labels, tet_labels]
    return CellComplex(3, cells, [None, b1, b2, b3], colors)


def edge_color_class(lattice: CellComplex, e: int) -> str:
    """Two-letter color class of an edge, letters sorted (e.g. 'ab')."""
    cols = sorted(lattice.cell_colors(1, e))
    return "".join(cols)


def color_pair_sublattice(tri: CellComplex, colors: Iterable[str]) -> CellComplex:
    """Two-color sublattice of a 3-colored triangulation, with plaquettes.

    Keeps the vertices of the two colors and the edges between them and
    adds one 2-cell per removed-color vertex: the cycle of kept edges
    among its neighbors.  For the triangular torus this is the honeycomb
    whose faces are the hexagons around the removed vertices.
    """
    keep = set(colors)
    if tri.vertex_colors is None:
        raise ValueError("lattice is not colored")
    all_colors = set(tri.vertex_colors.values())
    removed = all_colors - keep
    if len(removed) != 1:
        raise ValueError("need exactly one removed color")
    base = tri.sublattice(keep)
    kept_edges = {base.cells[1][i]: i for i in range(base.n_cells(1))}

    plaq_labels = []
    plaq_entries = []
    removed_color = removed.pop()
    for v in range(tri.n_cells(0)):
        if tri.vertex_colors[tri.cells[0][v]] != removed_color:
            continue
        ring = tri.link(1, 0, v)
        cols = len(plaq_labels)
        plaq_labels.append(f"hex:{tri.cells[0][v]}")
        for e in ring:
            lab = tri.cells[1][e]
            if lab in kept_edges:
                plaq_entries.append((kept_edges[lab], cols))
    b2 = BitMatrix.from_entries(base.n_cells(1), len(plaq_labels), plaq_entries)
    return CellComplex(2, [list(base.cells[0]), list(base.cells[1]), plaq_labels],
                       [None, base.boundary[1], b2], base.vertex_colors)
