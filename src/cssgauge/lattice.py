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

Every lattice forms its boundary rows straight from each cell's faces:
with ``bit = 1 << cell`` made once per cell, each face's row takes
``rows[face] |= bit``, one big-int OR per incidence and no entry list,
and ``_incidence`` checks the rows once.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Optional, Sequence

from .gf2 import BitMatrix, BitVec


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

    # -- derived incidence ----------------------------------------------

    def vertex_set(self, d: int, i: int) -> frozenset[int]:
        return frozenset((i,) if d == 0 else self.generalized_boundary(0, d).row_support(i))

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
            result = BitMatrix(faces.rows, upper.cols,
                               [upper.or_rows(faces.row_bits(i)) for i in range(faces.rows)])
        self._gb_cache[(k, l)] = result
        return result

    def link(self, n: int, d: int, i: int) -> tuple[int, ...]:
        """The n-cells disjoint from cell (d, i) that share a top cell with it.

        Disjoint means disjoint vertex sets; top cells are D-cells.
        """
        top = self.dimension
        own = self._vertex_bits(d, i)
        tops = 1 << i if d == top else self.generalized_boundary(top, d).row_bits(i)
        near = self.generalized_boundary(n, top).or_rows(tops)
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
            faces = self.generalized_boundary(d - 1, d)
            rows = [0] * len(kept[d - 1])
            count = 0
            for new_c, old_c in enumerate(kept[d]):
                bit = 1 << new_c
                for f in faces.row_support(old_c):
                    rows[old_pos[f]] |= bit
                count += faces.row_bits(old_c).bit_count()
            new_boundary.append(_incidence(rows, len(kept[d]), count))
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
            for f in faces.row_support(c):
                lines.append(f'  "{self.cells[d][c]}" -- "{self.cells[d - 1][f]}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        counts = ", ".join(str(self.n_cells(d)) for d in range(self.dimension + 1))
        return f"CellComplex(D={self.dimension}, cells=({counts}))"


# ---------------------------------------------------------------------------
# Concrete lattices
# ---------------------------------------------------------------------------


def _incidence(row_bits: list[int], cols: int, count: int) -> BitMatrix:
    """The boundary matrix whose rows a builder formed by ORing in ``count``
    incidences.  One ORed twice or left out makes the popcounts of the rows
    sum to another number: ``ValueError``.  ``BitMatrix`` checks the columns."""
    held = sum(map(int.bit_count, row_bits))
    if held != count:
        raise ValueError(f"{count} incidences were added but the rows hold {held}: "
                         "one was added twice or left out")
    return BitMatrix(len(row_bits), cols, row_bits)


# Axis names of the hypercubic lattices, in axis order; cell labels spell
# a cell's axes with them, so they bound the dimension.
AXES = "xyzw"


def torus_sites(dim: int, length: int) -> tuple[list[str], list[list[int]], list[list[int]]]:
    """The sites s = (p[0]*L + p[1])*L + ... of the periodic grid, in point order.

    Returns one ``str(p)`` per site and the neighbour tables
    ``forward[axis][s]`` and ``backward[axis][s]``, the site one step
    along or against the axis.
    """
    points = list(itertools.product(range(length), repeat=dim))
    forward, backward = [], []
    for a in range(dim):
        stride = length ** (dim - 1 - a)
        wrap = length * stride
        forward.append([s + stride - wrap * (p[a] == length - 1) for s, p in enumerate(points)])
        backward.append([s - stride + wrap * (p[a] == 0) for s, p in enumerate(points)])
    return [str(p) for p in points], forward, backward


def hypercubic_torus(dim: int, length: int) -> CellComplex:
    """Periodic hypercubic lattice: d-cells are (axis subset, base point)."""
    if dim < 1 or length < 2:
        raise ValueError("need dim >= 1 and length >= 2")
    if dim > len(AXES):
        raise ValueError(f"hypercubic lattices have at most {len(AXES)} axes ({AXES})")
    names, fwd, _ = torus_sites(dim, length)
    n = len(names)
    axis_sets = [list(itertools.combinations(range(dim), d)) for d in range(dim + 1)]
    cells = []
    for layer in axis_sets:
        tags = ["".join(AXES[a] for a in axes) or "." for axes in layer]
        cells.append([tag + p for tag in tags for p in names])
    boundary: list[Optional[BitMatrix]] = [None]
    for d in range(1, dim + 1):
        first = {axes: i * n for i, axes in enumerate(axis_sets[d - 1])}
        rows = [0] * len(cells[d - 1])
        for j, axes in enumerate(axis_sets[d]):
            # Face a of cell (axes, s) drops axis a: at s and one step along a.
            faces = [(first[tuple(b for b in axes if b != a)], fwd[a]) for a in axes]
            for s in range(n):
                bit = 1 << (j * n + s)
                for face, step in faces:
                    rows[face + s] |= bit
                    rows[face + step[s]] |= bit
        boundary.append(_incidence(rows, len(cells[d]), 2 * d * len(cells[d])))
    return CellComplex(dim, cells, boundary)


def hypercubic_centers(dim: int, length: int, d: int) -> list[tuple[float, ...]]:
    """The center of each d-cell of ``hypercubic_torus(dim, length)``, in cell order.

    A cell's center is its base point plus 0.5 along each of its axes.
    """
    points = list(itertools.product(range(length), repeat=dim))
    centers = []
    for axes in itertools.combinations(range(dim), d):
        shift = [0.5 * (a in axes) for a in range(dim)]
        centers += [tuple(map(operator.add, p, shift)) for p in points]
    return centers


def octahedron_sphere() -> CellComplex:
    """The octahedron triangulation of the 2-sphere: V=6, E=12, F=8."""
    verts = ["+x", "-x", "+y", "-y", "+z", "-z"]
    antipode = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if antipode[i] != j]
    faces = [(x, y, z) for x in (0, 1) for y in (2, 3) for z in (4, 5)]
    e_index = {e: k for k, e in enumerate(edges)}
    vertex_rows, edge_rows = [0] * 6, [0] * 12
    for k, (i, j) in enumerate(edges):
        vertex_rows[i] |= 1 << k
        vertex_rows[j] |= 1 << k
    for k, f in enumerate(faces):
        for pair in itertools.combinations(sorted(f), 2):
            edge_rows[e_index[pair]] |= 1 << k
    b1 = _incidence(vertex_rows, 12, 24)
    b2 = _incidence(edge_rows, 8, 24)
    cells = [verts,
             [f"{verts[i]}{verts[j]}" for i, j in edges],
             ["".join(verts[v] for v in f) for f in faces]]
    return CellComplex(2, cells, [None, b1, b2])


def triangular_torus(length: int) -> CellComplex:
    """Three-colorable triangular lattice on a torus; needs length % 3 == 0.

    Vertices (i,j) with neighbors along +x, +y and the (+x,-y) diagonal;
    color (i - j) mod 3 makes every edge bichromatic and every triangle
    carry all three colors.

    Built on the sites of ``torus_sites``: the E, N and D edges of site s
    are edges 3s, 3s+1 and 3s+2, and its up and down triangles are faces
    2s and 2s+1.
    """
    if length < 3 or length % 3:
        raise ValueError("triangular torus coloring needs length divisible by 3")
    names, fwd, _ = torus_sites(2, length)
    n = len(names)
    east, north = fwd
    verts = [f"v{p}" for p in names]
    colors = dict(zip(verts, ["abc"[(s // length - s % length) % 3] for s in range(n)]))
    vertex_rows, edge_rows = [0] * n, [0] * (3 * n)
    for s in range(n):
        e, f, x, y = 3 * s, 2 * s, east[s], north[s]
        for rows, col, faces in ((vertex_rows, e, (s, x)), (vertex_rows, e + 1, (s, y)),
                                 (vertex_rows, e + 2, (x, y)), (edge_rows, f, (e, e + 1, e + 2)),
                                 (edge_rows, f + 1, (e + 2, 3 * y, 3 * x + 1))):
            bit = 1 << col
            for face in faces:
                rows[face] |= bit
    b1 = _incidence(vertex_rows, 3 * n, 6 * n)
    b2 = _incidence(edge_rows, 2 * n, 6 * n)
    cells = [
        verts,
        [f"{kind}{p}" for p in names for kind in "END"],
        [f"{kind}{p}" for p in names for kind in ("up", "dn")],
    ]
    return CellComplex(2, cells, [None, b1, b2], colors)


def gcc_lattice(length: int) -> CellComplex:
    """Four-colorable tetrahedral honeycomb on the 3-torus for the gauge color code.

    Corner vertices at integer points (colors a/b by coordinate parity)
    plus cube centers (colors c/d by parity).  Every cubic face carries
    four tetrahedra: the two centers it separates joined with each of its
    four edges.  Cell counts: V=2L^3, E=14L^3, F=24L^3, C=12L^3.

    Built on the integer sites of ``torus_sites``: corner and center s
    are vertices s and N + s, cubic edge (a, s) is edge a*N + s and the
    cd edge crossing face (a, s) is edge 3N + a*N + s.
    """
    if length < 2 or length % 2:
        raise ValueError("gcc lattice coloring needs even length >= 2")
    names, fwd, back = torus_sites(3, length)
    n = len(names)
    others = ((1, 2), (0, 2), (0, 1))
    verts = [f"cor{p}" for p in names] + [f"cen{p}" for p in names]
    parity = [sum(p) % 2 for p in itertools.product(range(length), repeat=3)]
    colors = dict(zip(verts, ["ab"[x] for x in parity] + ["cd"[x] for x in parity]))

    # Cubic (ab) edges: (axis, base).  cd edges: one per cubic face (axis,
    # base), joining the cube at the base to the one behind it along the axis.
    # Corner-center edges: corner s and each of the 8 cubes q = s - delta it
    # belongs to, in site order (the order of their points); ``cc`` maps
    # s*N + q to the edge.
    edge_labels = [f"{kind}:{AXES[a]}{p}" for kind in ("ab", "cd") for a in range(3) for p in names]
    rows = [0] * (2 * n)
    for a in range(3):
        for s in range(n):
            bit = 1 << (a * n + s)
            rows[s] |= bit
            rows[fwd[a][s]] |= bit
            bit <<= 3 * n       # the cd edge 3N + a*N + s
            rows[n + s] |= bit
            rows[n + back[a][s]] |= bit
    cc = {}
    for s in range(n):
        for q in sorted(z for x in (s, back[0][s]) for y in (x, back[1][x]) for z in (y, back[2][y])):
            e = cc[s * n + q] = len(edge_labels)
            edge_labels.append(f"cc:{names[s]}|{names[q]}")
            bit = 1 << e
            rows[s] |= bit
            rows[n + q] |= bit
    b1 = _incidence(rows, len(edge_labels), 2 * len(edge_labels))

    # Triangles: (cubic edge, cube containing it), keyed (a*N + s)*N + cube,
    # then (face corner, face), the four corners of face (a, s) in a row.
    tri_labels = []
    rows = [0] * len(edge_labels)
    ec = {}
    for a, (t1, t2) in enumerate(others):
        for s in range(n):
            q = fwd[a][s]
            for y in (s, back[t1][s]):
                for cube in (y, back[t2][y]):
                    t = ec[(a * n + s) * n + cube] = len(tri_labels)
                    tri_labels.append(f"ec:{AXES[a]}{names[s]}|{names[cube]}")
                    bit = 1 << t
                    rows[a * n + s] |= bit
                    rows[cc[s * n + cube]] |= bit
                    rows[cc[q * n + cube]] |= bit
    for a, (t1, t2) in enumerate(others):
        for s in range(n):
            behind = back[a][s]
            for corner in (s, fwd[t1][s], fwd[t2][s], fwd[t2][fwd[t1][s]]):
                bit = 1 << len(tri_labels)
                tri_labels.append(f"vf:{names[corner]}|{AXES[a]}{names[s]}")
                rows[3 * n + a * n + s] |= bit
                rows[cc[corner * n + s]] |= bit
                rows[cc[corner * n + behind]] |= bit
    b2 = _incidence(rows, len(tri_labels), 3 * len(tri_labels))

    # Tetrahedra: one per (face, edge of that face), the edge joining face
    # corners i and j; the face's vf triangles start at 12N + 4*(a*N + s).
    tet_labels = []
    rows = [0] * len(tri_labels)
    for a, (t1, t2) in enumerate(others):
        for s in range(n):
            behind = back[a][s]
            vf = 12 * n + 4 * (a * n + s)
            for ea, ep, i, j in ((t1, s, 0, 1), (t1, fwd[t2][s], 2, 3),
                                 (t2, s, 0, 2), (t2, fwd[t1][s], 1, 3)):
                bit = 1 << len(tet_labels)
                tet_labels.append(f"t:{AXES[a]}{names[s]}|{AXES[ea]}{names[ep]}")
                key = (ea * n + ep) * n
                rows[ec[key + s]] |= bit
                rows[ec[key + behind]] |= bit
                rows[vf + i] |= bit
                rows[vf + j] |= bit
    b3 = _incidence(rows, len(tet_labels), 4 * len(tet_labels))

    cells = [verts, edge_labels, tri_labels, tet_labels]
    return CellComplex(3, cells, [None, b1, b2, b3], colors)


def edge_color_class(lattice: CellComplex, e: int) -> str:
    """Two-letter color class of an edge, letters sorted (e.g. 'ab').

    The endpoints are read off row e of the memoised edge-vertex incidence.
    """
    if lattice.vertex_colors is None:
        raise ValueError("lattice is not colored")
    labels, colors = lattice.cells[0], lattice.vertex_colors
    ends = lattice.generalized_boundary(0, 1).row_support(e)
    return "".join(sorted({colors[labels[v]] for v in ends}))


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
    rows = [0] * base.n_cells(1)
    count = 0
    removed_color = removed.pop()
    for v in range(tri.n_cells(0)):
        if tri.vertex_colors[tri.cells[0][v]] != removed_color:
            continue
        ring = tri.link(1, 0, v)
        bit = 1 << len(plaq_labels)
        plaq_labels.append(f"hex:{tri.cells[0][v]}")
        for e in ring:
            lab = tri.cells[1][e]
            if lab in kept_edges:
                rows[kept_edges[lab]] |= bit
                count += 1
    b2 = _incidence(rows, len(plaq_labels), count)
    return CellComplex(2, [list(base.cells[0]), list(base.cells[1]), plaq_labels],
                       [None, base.boundary[1], b2], base.vertex_colors)
