import ast
import itertools

import pytest

from cssgauge import lattice as lattice_module
from cssgauge.lattice import (
    CellComplex,
    color_pair_sublattice,
    edge_color_class,
    gcc_lattice,
    hypercubic_centers,
    hypercubic_torus,
    octahedron_sphere,
    torus_sites,
    triangular_torus,
)

from tests.oracles import (
    cell_faces,
    cell_vertices,
    entry_matrix,
    lattice_is_valid,
    naive_gcc_lattice,
    naive_generalized_boundary,
    naive_hypercubic_torus,
    naive_triangular_torus,
    per_cell_hypercubic,
)


def euler_characteristic(lattice) -> int:
    return sum((-1) ** d * lattice.n_cells(d) for d in range(lattice.dimension + 1))


def single_tetrahedron():
    verts = ["p", "q", "r", "s"]
    edges = list(itertools.combinations(range(4), 2))
    tris = list(itertools.combinations(range(4), 3))
    e_idx = {e: i for i, e in enumerate(edges)}
    b1 = entry_matrix(4, 6, [(v, i) for i, e in enumerate(edges) for v in e])
    b2 = entry_matrix(6, 4, [(e_idx[pair], i) for i, t in enumerate(tris)
                             for pair in itertools.combinations(t, 2)])
    b3 = entry_matrix(4, 1, [(i, 0) for i in range(4)])
    cells = [verts, [f"e{e}" for e in edges], [f"t{t}" for t in tris], ["tet"]]
    return CellComplex(3, cells, [None, b1, b2, b3])


def test_hypercubic_counts_and_validity():
    for dim, length in ((2, 2), (2, 3), (3, 2), (3, 3)):
        lat = hypercubic_torus(dim, length)
        assert lattice_is_valid(lat)
        for d in range(dim + 1):
            from math import comb
            assert lat.n_cells(d) == comb(dim, d) * length ** dim
        assert euler_characteristic(lat) == 0


def test_octahedron():
    oc = octahedron_sphere()
    assert (oc.n_cells(0), oc.n_cells(1), oc.n_cells(2)) == (6, 12, 8)
    assert lattice_is_valid(oc)
    assert euler_characteristic(oc) == 2


def test_triangular_torus():
    tt = triangular_torus(3)
    assert lattice_is_valid(tt)
    assert (tt.n_cells(0), tt.n_cells(1), tt.n_cells(2)) == (9, 27, 18)
    # Every face carries all three colors.
    for f in range(tt.n_cells(2)):
        assert tt.cell_colors(2, f) == frozenset("abc")
    with pytest.raises(ValueError):
        triangular_torus(4)


def test_gcc_lattice_counts():
    # Cell by cell, from each cell's faces as a set (read from the boundary
    # entries): 2, 3 and 4 faces on each edge, triangle and tetrahedron;
    # ∂_{d-1}·∂_d = 0, each (d-2)-cell on an even number of a d-cell's
    # faces; and four colors on each tetrahedron's four vertices.
    for L in (2, 4, 6):
        lat = gcc_lattice(L)
        assert (lat.n_cells(0), lat.n_cells(1), lat.n_cells(2), lat.n_cells(3)) == (
            2 * L ** 3, 14 * L ** 3, 24 * L ** 3, 12 * L ** 3)
        assert euler_characteristic(lat) == 0
        faces = [None] + [cell_faces(lat, d) for d in (1, 2, 3)]
        for d in (1, 2, 3):
            assert {len(f) for f in faces[d]} == {d + 1}, d
        for d in (2, 3):
            for cell in faces[d]:
                below = [g for f in cell for g in faces[d - 1][f]]
                assert all(below.count(g) % 2 == 0 for g in below), (d, cell)
        colors = [lat.vertex_colors[label] for label in lat.cells[0]]
        assert all(sorted(colors[v] for v in vs) == list("abcd") for vs in cell_vertices(lat, 3))
    assert lattice_is_valid(gcc_lattice(2))
    with pytest.raises(ValueError):
        gcc_lattice(3)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("fault", ["duplicated", "dropped"])
def test_gcc_incidence_fault_raises(monkeypatch, d, fault):
    # A fault in boundary d as ``gcc_lattice`` hands it to ``_incidence``: an
    # incidence ORed in a second time (the rows as they were, one incidence
    # more added) or left out (one bit missing from the rows).
    check, calls = lattice_module._incidence, []

    def faulty(rows, cols, count):
        calls.append(cols)
        if len(calls) == d:
            if fault == "duplicated":
                count += 1
            else:
                rows = [rows[0] & rows[0] - 1] + rows[1:]
        return check(rows, cols, count)

    monkeypatch.setattr(lattice_module, "_incidence", faulty)
    with pytest.raises(ValueError, match="added twice or left out"):
        gcc_lattice(2)
    assert len(calls) == d


def test_incidence_checks_the_column_range():
    assert lattice_module._incidence([0b11, 0b01], 2, 3).entries == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError, match="column out of range"):
        lattice_module._incidence([0b100], 2, 1)


def assert_same_complex(lat, cells, boundary):
    """``lat`` has these cell labels, in order, and these boundary rows."""
    assert [list(layer) for layer in lat.cells] == cells
    for d in range(1, lat.dimension + 1):
        b = lat.boundary[d]
        assert (b.rows, b.cols) == (len(cells[d - 1]), len(cells[d]))
        assert [list(b.row(i).support) for i in range(b.rows)] == boundary[d], d


@pytest.mark.parametrize("dim,L", [(1, 3), (2, 2), (2, 5), (3, 3), (4, 2)])
def test_hypercubic_torus_matches_tuple_construction(dim, L):
    cells, boundary = naive_hypercubic_torus(dim, L)
    assert_same_complex(hypercubic_torus(dim, L), cells, boundary)


@pytest.mark.parametrize("dim,L", [(dim, L) for dim in range(2, 5) for L in range(2, 5)])
def test_hypercubic_torus_matches_per_cell_expressions(dim, L):
    cells, entries, centers = per_cell_hypercubic(dim, L)
    lat = hypercubic_torus(dim, L)
    assert [list(layer) for layer in lat.cells] == cells
    for d in range(1, dim + 1):
        b = lat.boundary[d]
        assert (b.rows, b.cols) == (len(cells[d - 1]), len(cells[d]))
        assert b.entries == tuple(sorted(entries[d])), d
    for d in range(dim + 1):
        got = hypercubic_centers(dim, L, d)
        assert got == centers[d]
        assert [tuple(map(type, c)) for c in got] == [tuple(map(type, c)) for c in centers[d]]


@pytest.mark.parametrize("L", [2, 4, 6])
def test_gcc_lattice_matches_tuple_construction(L):
    cells, colors, boundary = naive_gcc_lattice(L)
    lat = gcc_lattice(L)
    assert_same_complex(lat, cells, boundary)
    assert list(lat.vertex_colors.items()) == list(colors.items())


@pytest.mark.parametrize("L", [3, 6, 9])
def test_triangular_torus_matches_tuple_construction(L):
    cells, colors, boundary = naive_triangular_torus(L)
    lat = triangular_torus(L)
    assert_same_complex(lat, cells, boundary)
    assert list(lat.vertex_colors.items()) == list(colors.items())


@pytest.mark.parametrize("dim,L", [(dim, L) for dim in range(1, 5) for L in range(2, 6)])
def test_torus_site_tables(dim, L):
    names, fwd, back = torus_sites(dim, L)
    points = [ast.literal_eval(name) for name in names]
    n = L ** dim
    assert len(points) == n
    for s, p in enumerate(points):
        # names[s] is the point whose row-major index is s.
        assert len(p) == dim and all(0 <= x < L for x in p)
        assert sum(x * L ** (dim - 1 - a) for a, x in enumerate(p)) == s
    for a in range(dim):
        assert sorted(fwd[a]) == sorted(back[a]) == list(range(n))
        for s, p in enumerate(points):
            assert back[a][fwd[a][s]] == fwd[a][back[a][s]] == s
            for step, q in ((1, points[fwd[a][s]]), (-1, points[back[a][s]])):
                assert [i for i in range(dim) if q[i] != p[i]] == [a]
                assert q[a] == (p[a] + step) % L
    lattice = hypercubic_torus(dim, L)
    for d in range(dim + 1):
        axes_sets = list(itertools.combinations(range(dim), d))
        centers = hypercubic_centers(dim, L, d)
        assert len(centers) == lattice.n_cells(d) == len(axes_sets) * n
        for i, (axes, s) in enumerate(itertools.product(axes_sets, range(n))):
            assert lattice.cells[d][i] == ("".join("xyzw"[a] for a in axes) or ".") + names[s]
            assert centers[i] == tuple(x + 0.5 * (a in axes) for a, x in enumerate(points[s]))


def test_gcc_every_tetrahedron_sees_four_colors():
    lat = gcc_lattice(2)
    for t in range(lat.n_cells(3)):
        assert lat.cell_colors(3, t) == frozenset("abcd")


def test_gcc_edge_color_classes():
    lat = gcc_lattice(2)
    counts = {}
    for e in range(lat.n_cells(1)):
        counts[edge_color_class(lat, e)] = counts.get(edge_color_class(lat, e), 0) + 1
    assert counts == {"ab": 24, "cd": 24, "ac": 16, "ad": 16, "bc": 16, "bd": 16}


def test_generalized_boundary_tetrahedron_edges():
    tet = single_tetrahedron()
    col = tet.generalized_boundary(3, 1).column(0)
    assert col.weight == 6


def test_generalized_boundary_gcc_edge_star_weights():
    lat = gcc_lattice(2)
    star = lat.generalized_boundary(1, 3)
    for e in range(lat.n_cells(1)):
        cls = edge_color_class(lat, e)
        expected = 4 if cls in ("ab", "cd") else 6
        assert star.column(e).weight == expected


def test_generalized_boundary_transpose_identity():
    lat = gcc_lattice(2)
    for k, l in itertools.permutations(range(4), 2):
        t, g = lat.generalized_boundary(k, l).transpose(), lat.generalized_boundary(l, k)
        assert (t.rows, t.cols, t.entries) == (g.rows, g.cols, g.entries)
    with pytest.raises(ValueError):
        lat.generalized_boundary(1, 1)


def test_link_single_tetrahedron():
    tet = single_tetrahedron()
    # Opposite edge of e(0,1) is e(2,3).
    e01 = tet.index(1, "e(0, 1)")
    assert [tet.cells[1][i] for i in tet.link(1, 1, e01)] == ["e(2, 3)"]
    # Link of the top cell is empty.
    assert tet.link(1, 3, 0) == ()
    # 2-star of a vertex: the three triangles containing it.
    assert len(tet.generalized_boundary(2, 0).row(0).support) == 3


def test_link_colors_on_gcc():
    lat = gcc_lattice(2)
    for e in range(lat.n_cells(1)):
        own = edge_color_class(lat, e)
        partner = {"ab": "cd", "cd": "ab", "ac": "bd", "bd": "ac",
                   "ad": "bc", "bc": "ad"}[own]
        for other in lat.link(1, 1, e):
            assert edge_color_class(lat, other) == partner


def test_link_of_vertex_on_triangular_lattice():
    tt = triangular_torus(3)
    ring = tt.link(1, 0, tt.index(0, "v(0, 0)"))
    assert len(ring) == 6
    own_color = tt.vertex_colors["v(0, 0)"]
    for e in ring:
        assert own_color not in tt.cell_colors(1, e)


def test_sublattice_gcc_ab():
    lat = gcc_lattice(2)
    sub = lat.sublattice({"a", "b"})
    assert sub.n_cells(0) == 8           # the corner vertices, L^3 of them
    assert sub.n_cells(1) == 24          # the cubic (ab) edges, 3 L^3
    colors = set(sub.vertex_colors.values())
    assert colors == {"a", "b"}
    per_color = {c: sum(1 for v in sub.vertex_colors.values() if v == c) for c in colors}
    assert per_color == {"a": 4, "b": 4}


def test_sublattice_identity_when_all_colors():
    lat = triangular_torus(3)
    sub = lat.sublattice({"a", "b", "c"})
    assert [sub.n_cells(d) for d in range(3)] == [lat.n_cells(d) for d in range(3)]


def test_sublattice_color_pair_2d():
    lat = triangular_torus(3)
    sub = lat.sublattice({"a", "c"})
    assert sub.dimension == 1            # triangles need all three colors
    assert sub.n_cells(0) == 6
    assert sub.n_cells(1) == 9


def test_sublattice_requires_colors():
    with pytest.raises(ValueError):
        hypercubic_torus(2, 2).sublattice({"a"})


def test_color_pair_sublattice_hexagons():
    lat = triangular_torus(3)
    hc = color_pair_sublattice(lat, {"a", "c"})
    assert lattice_is_valid(hc)
    assert hc.n_cells(2) == 3            # one hexagon per b vertex
    for f in range(hc.n_cells(2)):
        assert hc.boundary[2].column(f).weight == 6
    # Honeycomb: every vertex has degree 3.
    for v in range(hc.n_cells(0)):
        assert hc.boundary[1].row(v).weight == 3


def test_cell_complex_to_json():
    lat = triangular_torus(3)
    data = lat.to_json()
    assert lattice_is_valid(lat)
    assert data["cells"] == [list(layer) for layer in lat.cells]
    assert data["incidence"] == [None] + [lat.boundary[d].to_json() for d in (1, 2)]
    assert data["vertex_colors"] == lat.vertex_colors


def test_incidence_dot():
    dot = octahedron_sphere().incidence_dot(1)
    assert dot.startswith("graph") and dot.count("--") == 24


@pytest.mark.parametrize("make", [
    octahedron_sphere,
    lambda: hypercubic_torus(2, 3),
    lambda: hypercubic_torus(3, 2),
    lambda: hypercubic_torus(3, 3),
    lambda: hypercubic_torus(4, 2),
    lambda: triangular_torus(3),
    lambda: gcc_lattice(2),
    lambda: gcc_lattice(4),
], ids=["octahedron", "square3", "cubic2", "cubic3", "tesseract2", "triangular3", "gcc2", "gcc4"])
def test_generalized_boundary_matches_frontier_closure(make):
    lat = make()
    for k in range(lat.dimension + 1):
        for l in range(lat.dimension + 1):
            if k != l:
                gb = lat.generalized_boundary(k, l)
                assert (gb.rows, gb.cols) == (lat.n_cells(l), lat.n_cells(k))
                assert set(gb.entries) == naive_generalized_boundary(lat, k, l), (k, l)


def test_hypercubic_torus_dimension_limited_by_axis_names():
    with pytest.raises(ValueError, match="at most 4 axes"):
        hypercubic_torus(5, 2)
