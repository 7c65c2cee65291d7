from math import comb

import pytest

from cssgauge.analysis import code_parameters
from cssgauge.builders import (
    build_bacon_shor,
    build_color_code_2d,
    build_fractal_code,
    build_gcc,
    build_toric,
    build_toric_sphere,
    build_xu_moore,
    toric_code_from_complex,
)
from cssgauge.codes import CssSubsystemCode, stabilizer_ranks, y_gauge_hamiltonian
from cssgauge.gf2 import BitMatrix, BitVec, is_zero_product
from cssgauge.lattice import color_pair_sublattice, edge_color_class, triangular_torus
from cssgauge.pauli import PauliOp, group_rank, symplectic_product

from tests.oracles import (
    center_of_group,
    fractal_k,
    gauge_ops,
    lattice_is_valid,
    matrix_rows,
    naive_code_parameters,
    naive_rank,
)


ALL_BUILDERS = [
    lambda: build_toric(2, 3, 1),
    lambda: build_toric(3, 2, 1),
    lambda: build_toric(3, 2, 2),
    lambda: build_toric(4, 2, 2),
    build_toric_sphere,
    lambda: build_bacon_shor(3),
    lambda: build_color_code_2d(3),
    lambda: build_gcc(2),
    lambda: build_fractal_code(4),
    lambda: build_fractal_code(4, "open_y"),
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_every_builder_code_parameters_match_gram_rank(builder):
    code = builder()
    assert tuple(code_parameters(code)) == naive_code_parameters(code)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_every_builder_output_is_css(builder):
    code = builder()
    c = code.css_complex()
    assert is_zero_product(c.d_x, c.d_z)
    gx = BitMatrix.from_rows(code.n, code.gauge_x)
    sz = BitMatrix.from_columns(code.n, code.stabilizer_z)
    assert is_zero_product(gx, sz)
    sx = BitMatrix.from_rows(code.n, code.stabilizer_x)
    gz = BitMatrix.from_columns(code.n, code.gauge_z)
    assert is_zero_product(sx, gz)


def test_toric_2d_parameters():
    code = build_toric(2, 3, 1)
    assert code.n == 18
    cx = code.css_complex()
    # Homology oracle: k = n - rank Hx - rank Hz via naive dense elimination.
    k = code.n - naive_rank(matrix_rows(cx.d_x)) - naive_rank(matrix_rows(cx.d_z.transpose()))
    assert k == 2
    assert code_parameters(code).k == 2


def test_toric_3d_cell_counts():
    code = build_toric(3, 2, 1)
    assert code.n == 24                       # 3 * 2^3 edges
    assert len(code.stabilizer_x) == 8        # vertices
    assert len(code.stabilizer_z) == 24       # faces


def test_toric_3d_type_2_counts():
    code = build_toric(3, 2, 2)
    assert code.n == 24                       # faces
    assert len(code.stabilizer_x) == 24       # edges
    assert len(code.stabilizer_z) == 8        # cubes
    # Dual pairing of types: 3-torus second homology is also 3.
    assert code_parameters(code).k == 3


def test_toric_sphere_no_logicals():
    assert code_parameters(build_toric_sphere()).k == 0


def test_toric_parameter_validation():
    with pytest.raises(ValueError):
        build_toric(2, 1, 1)
    with pytest.raises(ValueError):
        build_toric(2, 3, 2)
    with pytest.raises(ValueError):
        build_toric(1, 3, 1)


def test_bacon_shor_structure():
    code = build_bacon_shor(3)
    assert code.n == 9
    assert all(v.weight == 2 for v in code.gauge_x + code.gauge_z)
    assert all(v.weight == 6 for v in code.stabilizer_x + code.stabilizer_z)
    p = code_parameters(code)
    assert (p.n, p.gauge_rank, p.stabilizer_rank, p.k, p.gauge_qubits) == (9, 12, 4, 1, 4)
    with pytest.raises(ValueError):
        build_bacon_shor(1)


def test_xu_moore_model():
    xm = build_xu_moore(3)
    assert xm.n == 9
    weights = sorted(t.op.weight for t in xm.hamiltonian)
    assert weights == [1] * 9 + [4] * 9
    assert len(xm.emergent) == 3 and len(xm.preserved) == 3
    # Emergent rows are products of the X term images along a row.
    for r, sym in enumerate(xm.emergent):
        assert sym.x.weight == 3 and sym.z.is_zero()
    # Row and column operators commute with every Hamiltonian term.
    for sym in xm.emergent + xm.preserved:
        assert all(symplectic_product(sym, t.op) == 0 for t in xm.hamiltonian)


def test_color_code_2d():
    code = build_color_code_2d(3)
    assert code.n == 18
    assert all(v.weight == 6 for v in code.stabilizer_x)
    assert lattice_is_valid(code.lattice)
    with pytest.raises(ValueError):
        build_color_code_2d(4)


def test_gcc_stabilizer_is_color_pair_gauge_product():
    code = build_gcc(2)
    lattice = code.lattice
    vertex_edges = lattice.generalized_boundary(0, 1)
    for v in range(lattice.n_cells(0)):
        own = lattice.vertex_colors[lattice.cells[0][v]]
        stab = code.stabilizer_x[v]
        for other in sorted(set("abcd") - {own}):
            pair = "".join(sorted(own + other))
            acc = BitVec(code.n)
            for e in vertex_edges.column(v).support:
                if edge_color_class(lattice, e) == pair:
                    acc = acc ^ code.gauge_x[e]
            assert acc == stab


def test_gcc_center_contains_vertex_group_plus_membranes():
    # On the torus the center of the gauge group is the vertex-operator
    # span plus 18 topological membrane classes (9 per Pauli type).
    code = build_gcc(2)
    center = center_of_group(gauge_ops(code))
    stabs = code.stabilizer_ops()
    assert group_rank(stabs) == 26
    assert group_rank(center) == 44
    assert group_rank(center + stabs) == 44          # vertex group is contained


def test_gcc_stabilizer_weights():
    code = build_gcc(2)
    assert all(v.weight == 24 for v in code.stabilizer_x)
    assert stabilizer_ranks(code) == (13, 13)


def test_gcc_y_hamiltonian_terms_hermitian():
    h = y_gauge_hamiltonian(build_gcc(2))
    for t in h:
        assert t.op.hermitian_sign() == 1
        assert t.op.x == t.op.z


def test_fractal_all_pairs_commute():
    for boundary in ("periodic", "open_y"):
        code = build_fractal_code(4, boundary)
        ops = code.stabilizer_ops()
        assert all(symplectic_product(a, b) == 0
                   for i, a in enumerate(ops) for b in ops[i + 1:])


def test_fractal_weights():
    code = build_fractal_code(4)
    assert all(v.weight == 5 for v in code.stabilizer_x + code.stabilizer_z)
    open_code = build_fractal_code(4, "open_y")
    weights = sorted({v.weight for v in open_code.stabilizer_x})
    assert weights == [4, 5]              # truncated at the y=0 boundary


def test_fractal_vertical_z_string_is_symmetric():
    code = build_fractal_code(4)
    vid = {v: p for p, v in enumerate(code.metadata["vertices"])}
    op = PauliOp.z_op(code.n, [vid[(1, 2, k)] for k in range(4)])   # A qubits at (1, 2, *)
    assert op.z.weight == 4
    for sx in code.stabilizer_x:
        assert symplectic_product(op, PauliOp(code.n, sx, BitVec(code.n))) == 0


def test_fractal_layer_operator_commutes_in_bulk():
    code = build_fractal_code(4, "open_y")
    L = 4
    verts = code.metadata["vertices"]
    vid = {v: i for i, v in enumerate(verts)}
    # Sierpinski rule in the z=0 plane: row j+1 is each cell of row j plus its +x neighbor.
    rows = [[1, 0, 0, 0]]
    for _ in range(L - 1):
        rows.append([rows[-1][i] ^ rows[-1][(i + 1) % L] for i in range(L)])
    op = PauliOp.x_op(code.n, [vid[(i, j, 0)] for j in range(L) for i in range(L) if rows[j][i]])
    for v in verts:
        if v[1] == L - 1:
            continue                      # top boundary row exempt
        sz = code.stabilizer_z[vid[v]]
        assert symplectic_product(op, PauliOp(code.n, BitVec(code.n), sz)) == 0


@pytest.mark.parametrize("boundary,expected", [
    ("periodic", [4, 0, 0, 8, 12, 0, 4, 0, 0, 16]),
    ("open_y", [2, 8, 2, 4, 2, 16, 2, 4, 2, 8]),
])
def test_fractal_k_matches_the_automaton_closed_form(boundary, expected):
    sizes = range(3, 13)
    assert [fractal_k(L, boundary) for L in sizes] == expected
    assert [code_parameters(build_fractal_code(L, boundary)).k for L in sizes] == expected


# L-independent invariants, asserted at three sizes so that a fault seen
# only past the smallest lattice shows.  The k-cell toric code on the
# D-torus encodes dim H_k(T^D) = C(D, k) qubits.
@pytest.mark.parametrize("dim,k,L", [(2, 1, L) for L in (2, 3, 4)] + [(3, 1, L) for L in (2, 3, 4)]
                         + [(3, 2, L) for L in (2, 3)] + [(4, 2, L) for L in (2, 3)])
def test_toric_k_is_the_torus_betti_number(dim, k, L):
    assert code_parameters(build_toric(dim, L, k)).k == comb(dim, k)


@pytest.mark.parametrize("L", [3, 6, 9])
def test_color_code_2d_k_is_four(L):
    assert code_parameters(build_color_code_2d(L)).k == 4


@pytest.mark.parametrize("L", [3, 4, 5])
def test_bacon_shor_k_is_one_with_l_minus_one_squared_gauge_qubits(L):
    params = code_parameters(build_bacon_shor(L))
    assert (params.k, params.gauge_qubits) == (1, (L - 1) ** 2)


def test_fractal_validation():
    with pytest.raises(ValueError):
        build_fractal_code(2)
    with pytest.raises(ValueError):
        build_fractal_code(4, "open_x")


def test_toric_code_from_complex_honeycomb():
    hc = color_pair_sublattice(triangular_torus(3), {"a", "c"})
    code = toric_code_from_complex(hc, 1)
    assert code.n == 9
    assert sorted(v.weight for v in code.stabilizer_x) == [3] * 6
    assert sorted(v.weight for v in code.stabilizer_z) == [6] * 3
    c = code.css_complex()
    assert is_zero_product(c.d_x, c.d_z)


def test_css_check_names_the_anticommuting_side():
    one = [BitVec.from_support(2, [0])]
    pair = [BitVec.from_support(2, [0, 1])]
    # The second listing is self-dual: equal lists, not the same objects.
    for listing in (([], one, one, []), (one, list(one), pair, list(pair))):
        with pytest.raises(ValueError, match="^X stabilizer anticommutes with a Z gauge generator$"):
            CssSubsystemCode("bad", 2, *listing)
    other = [BitVec.from_support(2, [1])]
    # The second product is skipped only when both its operands repeat the first's.
    for gauge_x, gauge_z, stabilizer_x in ((one, [], []), (one, other, one), (one, one, [])):
        with pytest.raises(ValueError, match="^Z stabilizer anticommutes with an X gauge generator$"):
            CssSubsystemCode("bad", 2, gauge_x=gauge_x, gauge_z=gauge_z,
                             stabilizer_x=stabilizer_x, stabilizer_z=one)


def test_a_self_dual_listing_forms_one_commutation_product(monkeypatch):
    # With S_Z = S_X and G_X = G_Z the product S_Z·G_Xᵀ is S_X·G_Zᵀ, so it is
    # formed once; Bacon-Shor is not self-dual and forms both.
    products = []
    matmul = BitMatrix.__matmul__
    monkeypatch.setattr(BitMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    build_gcc(2)
    assert len(products) == 1
    build_bacon_shor(3)
    assert len(products) == 3


def test_one_stabilizer_list_without_the_other_is_rejected():
    # Each list alone would commute with the gauge generators; the missing
    # one is named instead of being left empty.
    pair = [BitVec.from_support(2, [0, 1])]
    with pytest.raises(ValueError, match="^stabilizer_z is missing"):
        CssSubsystemCode("half", 2, pair, pair, stabilizer_x=pair)
    with pytest.raises(ValueError, match="^stabilizer_x is missing"):
        CssSubsystemCode("half", 2, pair, pair, stabilizer_z=pair)


def test_omitted_stabilizers_declare_a_stabilizer_code():
    # Omitted stabilizers are the gauge generators, so anticommuting gauge
    # generators are rejected instead of leaving a code with no stabilizers.
    one = [BitVec.from_support(2, [0])]
    bacon_shor = build_bacon_shor(3)
    for gauge_x, gauge_z in ((one, one), (bacon_shor.gauge_x, bacon_shor.gauge_z)):
        with pytest.raises(ValueError, match="^X stabilizer anticommutes with a Z gauge generator$"):
            CssSubsystemCode("bad", gauge_x[0].length, gauge_x=gauge_x, gauge_z=gauge_z)
    pair = [BitVec.from_support(2, [0, 1])]
    code = CssSubsystemCode("bell", 2, gauge_x=pair, gauge_z=pair)
    assert code.stabilizer_x == pair and code.stabilizer_z == pair
