import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cssgauge import catalog, cli, codes, gf2, ungauge, verify
from cssgauge.analysis import code_parameters, components
from cssgauge.builders import build_toric_sphere
from cssgauge.gf2 import BitMatrix, BitVec, is_zero_product, kernel_basis, rank, solve
from cssgauge.pauli import Hamiltonian, PauliOp, Term, symplectic_product
from cssgauge.ungauge import (
    _PAIR_BLOCK,
    _paired_products,
    CommutationError,
    NotSymmetricError,
    UngaugeError,
    UngaugeSetup,
    annihilation_check,
    commutation_preservation_check,
    dim_check,
    emergent_symmetries,
    first_broken_pair,
    gauge_hamiltonian,
    make_setup,
    preserved_symmetries,
    setup_report,
    strip_identity_terms,
    ungauge_hamiltonian,
    ungauge_pauli,
)

from tests.oracles import (
    first_broken_pair_unpacked,
    matrix_rows,
    naive_rank,
    naive_x_preimage,
    pairwise_commutation_check,
    random_symmetric_pauli,
    stdlib_json,
)


@pytest.fixture(scope="module")
def sphere_model():
    return catalog.toric_sphere_model()


@pytest.fixture(scope="module")
def torus_model():
    return catalog.toric_torus_model(3)


@pytest.fixture(scope="module")
def bs_model():
    return catalog.bacon_shor_model(3)


@pytest.fixture(scope="module")
def gcc_model():
    return catalog.gcc_model(2)


# -- setup construction and validation ----------------------------------------


def test_sphere_setup_single_relation(sphere_model):
    assert rank(sphere_model.setup.d_r) == 1
    assert sphere_model.setup.d_r.row(0).weight == 6    # all vertex stars


def test_bacon_shor_one_relation_per_row(bs_model):
    assert bs_model.setup.d_r.rows == 3
    assert rank(bs_model.setup.d_r) == 3


def test_make_setup_kernel_defaults():
    # With no relations given, d_r is the canonical basis of d_x's left
    # kernel: the completion of the empty list, whether omitted or ().
    code = build_toric_sphere()
    z_syms, x_gens = list(code.stabilizer_z), list(code.stabilizer_x)
    s = make_setup(code.n, z_syms, x_gens=x_gens)
    assert s.d_r.rows == s.n_fin - rank(s.d_x) == 1
    assert dim_check(s)
    kernel = kernel_basis(BitMatrix.from_rows(code.n, x_gens).transpose())
    for d_r in (s.d_r, make_setup(code.n, z_syms, x_gens=x_gens, relations=()).d_r):
        assert matrix_rows(d_r) == matrix_rows(kernel)


def _spans_the_relation_space(s: UngaugeSetup) -> bool:
    """d_r lies in the left kernel of d_x and spans it, by the test's own eliminations."""
    return (is_zero_product(s.d_r, s.d_x) and naive_rank(matrix_rows(s.d_r))
            == s.ranks()["rank_d_r"] == s.n_fin - naive_rank(matrix_rows(s.d_x)))


def _spans_the_z_symmetries(s: UngaugeSetup) -> bool:
    """d_z lies in the kernel of d_x and spans it, by the test's own eliminations."""
    return (is_zero_product(s.d_x, s.d_z) and naive_rank(matrix_rows(s.d_z.transpose()))
            == s.ranks()["rank_d_z"] == s.n_ini - naive_rank(matrix_rows(s.d_x)))


@pytest.fixture(scope="module")
def catalog_setups():
    """Every setup the catalog builds for the seven worked models, the
    Xu-Moore check and the lattice gauge theory, swapped setups included,
    each with the number of Z symmetries it was given."""
    built = []

    def recorded(n, z_syms, *args, **kwargs):
        built.append((make_setup(n, z_syms, *args, **kwargs), len(z_syms)))
        return built[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "make_setup", recorded)
        catalog.worked_models()
        catalog.xu_moore_check(3)
        catalog.full_gauge_lgt(2)
    return built


def test_every_catalog_setup_spans_the_relation_space(catalog_setups):
    assert len(catalog_setups) == 7 + 2 + 2
    for s, _given in catalog_setups:
        assert _spans_the_relation_space(s), s
        assert _spans_the_z_symmetries(s), s
    # Z classes joined by make_setup: the torus loops (2), the 3-torus
    # loops (3), gcc's membrane classes (9, at every L: see
    # test_gcc_invariants_do_not_depend_on_L) and the lattice gauge theory's
    # topological X classes (18).  The sphere, Bacon-Shor (twice), the
    # periodic fractal code at L=4, color2d and the Xu-Moore swapped setup
    # are given complete sets.
    joined = [s.d_z.cols - given for s, given in catalog_setups]
    assert joined == [0, 2, 3, 0, 9, 0, 0, 0, 0, 9, 18]


def test_color2d_per_vertex_relations_are_complete():
    # One relation per chosen-color vertex spans the relation space, so the
    # completion joins none (Bacon-Shor's per-row relations: see above).
    for color in "abc":
        model = catalog.color2d_partial_model(3, color)
        lattice = model.code.lattice
        chosen = sum(lattice.vertex_colors[lab] == color for lab in lattice.cells[0])
        assert model.setup.d_r.rows == chosen == model.setup.ranks()["rank_d_r"], color


def test_make_setup_eliminates_d_x_once(monkeypatch):
    # ker d_x is eliminated first, on a copy that the setup does not keep,
    # and the Z symmetries are completed through a rows-only span.  rank d_x,
    # rank d_r, the relations and x_preimage then read the one echelon of
    # d_x^T, built once with combinations; the columns of d_x itself are
    # never eliminated, the relations are completed through a rows-only span
    # and d_z is ranked rows only, with no memo.
    code = build_toric_sphere()
    sx = list(code.stabilizer_x)
    built = []
    init = gf2.Echelon.__init__

    def counted(self, vectors=(), combos=True):
        built.append((self, combos))
        init(self, vectors, combos)

    monkeypatch.setattr(gf2.Echelon, "__init__", counted)
    s = make_setup(code.n, list(code.stabilizer_z), x_gens=sx, preserved=[sx[0], sx[0] ^ sx[1]])
    ranks = s.ranks()
    assert ranks == {"n_ini": 12, "n_fin": 6, "rank_d_z": 7, "rank_d_x": 5, "rank_d_r": 1}
    ranks["rank_d_z"] = 0
    assert s.ranks()["rank_d_z"] == 7                   # a copy
    assert s.d_x._rref is None and s.d_z._rref is None and s.d_r._rref is None
    assert [combos for _, combos in built] == [True, False, True, False, False]
    assert built[2][0] is s._dxt._rref


def test_make_setup_completes_the_z_symmetries_of_fewer_generators():
    # Three of the sphere's six stars leave ker d_x larger than the face
    # span: the 8 faces are kept in order and 2 kernel rows are joined, so
    # rank d_z = 12 - rank d_x = 9 and the dimensions match.
    code = build_toric_sphere()
    faces = list(code.stabilizer_z)
    s = make_setup(code.n, faces, x_gens=list(code.stabilizer_x)[:3])
    assert s.d_z.cols == 8 + 2
    assert [s.d_z.column(j) for j in range(8)] == faces
    assert is_zero_product(s.d_x, s.d_z)
    assert s.ranks() == {"n_ini": 12, "n_fin": 3, "rank_d_z": 9, "rank_d_x": 3, "rank_d_r": 0}
    assert dim_check(s) and annihilation_check(s)


def test_make_setup_rejects_anticommuting_generators():
    code = build_toric_sphere()
    bad = list(code.stabilizer_x) + [BitVec.from_support(code.n, [0])]
    with pytest.raises(CommutationError):
        make_setup(code.n, list(code.stabilizer_z), x_gens=bad)


def test_make_setup_rejects_bad_relation():
    code = build_toric_sphere()
    with pytest.raises(Exception, match="relation"):
        make_setup(code.n, list(code.stabilizer_z), x_gens=list(code.stabilizer_x),
                   relations=[BitVec.from_support(6, [0])])


def test_make_setup_checks_relations_before_completeness():
    # Generators that fall short of the symmetric group are completed, not
    # rejected, so a bad relation given with them is the one error raised.
    code = build_toric_sphere()
    with pytest.raises(UngaugeError, match="does not multiply to the identity"):
        make_setup(code.n, list(code.stabilizer_z), x_gens=list(code.stabilizer_x)[:3],
                   relations=[BitVec.from_support(3, [0])])


def test_make_setup_rejects_unequal_preserved_counts():
    # Bacon-Shor L=3 with its 3 preserved column symmetries but 1 combo:
    # pairing them up would keep 1 symmetry.
    code = catalog.builders.build_bacon_shor(3)
    with pytest.raises(UngaugeError, match="^3 preserved symmetries but 1 preserved combos$"):
        make_setup(code.n, [], x_gens=list(code.gauge_x), preserved=list(code.stabilizer_x),
                   preserved_combos=[BitVec.from_support(code.n, [0, 3, 6])])


def test_make_setup_rejects_nonsymmetric_preserved():
    code = build_toric_sphere()
    with pytest.raises(NotSymmetricError):
        make_setup(code.n, list(code.stabilizer_z), x_gens=list(code.stabilizer_x),
                   preserved=[BitVec.from_support(code.n, [0])])


# -- the map on operators ----------------------------------------------------


def test_toric_z_edge_maps_to_endpoints(sphere_model):
    code = sphere_model.code
    lattice = code.lattice
    for e in range(12):
        img = ungauge_pauli(PauliOp.z_op(code.n, [e]), sphere_model.setup)
        assert img.x.is_zero()
        assert img.z == lattice.boundary[1].column(e)


def test_toric_vertex_star_maps_to_single_x(sphere_model):
    code = sphere_model.code
    for v in range(6):
        star = code.stabilizer_x[v]
        img = ungauge_pauli(PauliOp(code.n, star, BitVec(code.n)), sphere_model.setup,
                            x_combo=BitVec(6, 1 << v))
        assert img == PauliOp.x_op(6, [v])


def test_z_stabilizers_annihilate(sphere_model, torus_model, gcc_model):
    for model in (sphere_model, torus_model, gcc_model):
        assert annihilation_check(model.setup)


def test_fractal_operator_map():
    model = catalog.fractal_model(4, "periodic")
    code = model.code
    L = 4
    verts = code.metadata["vertices"]
    vid = {v: i for i, v in enumerate(verts)}

    def final(v):
        return vid[v]

    v = (1, 2, 3)
    img_a = ungauge_pauli(PauliOp.z_op(code.n, [vid[v]]), model.setup)
    assert img_a.z.support == tuple(sorted([final(v), final((1, 2, 0))]))  # vertical pair
    img_b = ungauge_pauli(PauliOp.z_op(code.n, [64 + vid[v]]), model.setup)
    expected = sorted([final(v), final((2, 2, 3)), final((1, 3, 3))])      # planar triangle
    assert img_b.z.support == tuple(expected)
    img_x = ungauge_pauli(PauliOp(code.n, code.stabilizer_x[vid[v]], BitVec(code.n)),
                          model.setup, x_combo=BitVec(64, 1 << vid[v]))
    assert img_x == PauliOp.x_op(64, [vid[v]])


def test_sign_passes_through(sphere_model):
    code = sphere_model.code
    p = PauliOp.z_op(code.n, [3])
    minus = PauliOp(code.n, p.x, p.z, 2)
    img = ungauge_pauli(minus, sphere_model.setup)
    assert img.hermitian_sign() == -1
    plus = ungauge_pauli(p, sphere_model.setup)
    assert plus.hermitian_sign() == 1
    assert (plus.x, plus.z) == (img.x, img.z)


def test_imaginary_phase_rejected(sphere_model):
    code = sphere_model.code
    bad = PauliOp(code.n, BitVec(code.n), BitVec.from_support(code.n, [0]), 1)
    with pytest.raises(NotSymmetricError, match="sign"):
        ungauge_pauli(bad, sphere_model.setup)


def test_nonsymmetric_x_rejected(sphere_model):
    code = sphere_model.code
    with pytest.raises(NotSymmetricError, match="X support"):
        ungauge_pauli(PauliOp.x_op(code.n, [0]), sphere_model.setup)


def test_wrong_combo_rejected(sphere_model):
    code = sphere_model.code
    star = code.stabilizer_x[0]
    with pytest.raises(Exception, match="x_combo"):
        ungauge_pauli(PauliOp(code.n, star, BitVec(code.n)), sphere_model.setup,
                      x_combo=BitVec(6, 1 << 1))


def test_combo_with_another_x_support_is_rejected(sphere_model):
    # A combo of the right length whose product is a different star.
    code = sphere_model.code
    star = code.stabilizer_x[0]
    with pytest.raises(UngaugeError, match="^x_combo does not reproduce the operator's X support$"):
        ungauge_pauli(PauliOp(code.n, star, BitVec(code.n)), sphere_model.setup,
                      x_combo=BitVec(sphere_model.setup.n_fin, 1 << 1))


def test_report_deterministic(sphere_model):
    a = setup_report(sphere_model.setup, commutation_pairs=50, seed=5)
    b = setup_report(sphere_model.setup, commutation_pairs=50, seed=5)
    assert stdlib_json(a) == stdlib_json(b)


def test_y_content_maps_hermitian(gcc_model):
    code = gcc_model.code
    star = code.gauge_x[0]
    y_term = PauliOp.y_op(code.n, star.support)
    img = ungauge_pauli(y_term, gcc_model.setup, x_combo=BitVec(112, 1))
    assert img.x.support == (0,)
    assert img.phase == 0                 # +X_e Z(link e)
    assert img.hermitian_sign() == 1


# -- emergent and preserved symmetries ----------------------------------------


def test_sphere_emergent_is_global_product(sphere_model):
    ems = emergent_symmetries(sphere_model.setup)
    assert len(ems) == 1
    assert ems[0] == PauliOp.x_op(6, range(6))


def test_bacon_shor_symmetries(bs_model):
    ems = emergent_symmetries(bs_model.setup)
    pres = preserved_symmetries(bs_model.setup)
    assert len(ems) == 3 and len(pres) == 3
    for sym in ems + pres:
        assert sym.z.is_zero() and sym.x.weight == 3
    # Rows and columns intersect in exactly one final qubit.
    for e in ems:
        for p in pres:
            assert e.x.overlap(p.x) == 1


def test_gcc_emergent_shapes(gcc_model):
    ems = emergent_symmetries(gcc_model.setup)
    n_vertex = gcc_model.extra["vertex_relation_count"]
    weights = {ems[i].x.weight for i in range(n_vertex)}
    # Pairs of color classes at a vertex: 6+4, 6+4, 4+4 edges.
    assert weights == {8, 10}
    # Every emergent symmetry commutes with every mapped term.
    mapped = ungauge_hamiltonian(gcc_model.hamiltonian, gcc_model.setup)
    for sym in ems[:12]:
        assert all(symplectic_product(sym, t.op) == 0 for t in mapped)


def test_preserved_image_commutes_with_mapped(bs_model):
    mapped = ungauge_hamiltonian(bs_model.hamiltonian, bs_model.setup)
    for sym in preserved_symmetries(bs_model.setup):
        assert all(symplectic_product(sym, t.op) == 0 for t in mapped)


# -- dimension check -----------------------------------------------------------


def test_dim_check_values(torus_model, bs_model, gcc_model):
    r = torus_model.setup.ranks()
    assert (r["n_ini"], r["rank_d_z"], r["n_fin"], r["rank_d_r"]) == (18, 10, 9, 1)
    assert dim_check(torus_model.setup)
    r = bs_model.setup.ranks()
    assert (r["n_ini"] - r["rank_d_z"], r["n_fin"] - r["rank_d_r"]) == (6, 6)
    assert dim_check(bs_model.setup)
    assert dim_check(gcc_model.setup)


def test_dim_check_fails_when_a_z_class_is_missed(monkeypatch, tmp_path, capsys):
    # A fault in the Z completion: on the 18 qubits of the L=3 torus it
    # joins one loop class too few.  The relations (kernels of 9-bit rows
    # there) are completed as before, so only dim_check sees the fault.
    complete = ungauge._coset_representatives

    def one_short(kernel, image_gens):
        reps = complete(kernel, image_gens)
        return reps[:-1] if kernel.cols == 18 else reps

    monkeypatch.setattr(ungauge, "_coset_representatives", one_short)
    s = catalog.toric_torus_model(3).setup
    assert s.d_z.cols == 9 + 1 and s.d_r.rows == 1
    assert s.ranks() == {"n_ini": 18, "n_fin": 9, "rank_d_z": 9, "rank_d_x": 8, "rank_d_r": 1}
    assert not dim_check(s)

    assert cli.main(["ungauge", "--code", "toric2d", "--out", str(tmp_path)]) == 1
    assert "dim_check=False" in capsys.readouterr().out
    monkeypatch.setattr(verify, "_MODEL_CACHE", {})
    result = verify.check_dimensions()
    assert not result.passed and result.details == "failures: ['toric-torus']"


@pytest.mark.parametrize("L", [2, 4, 6])
def test_gcc_invariants_do_not_depend_on_L(L):
    """The 3-torus carries 9 topological Z classes and 9 non-contractible
    relations at every size: the completion joins 9 rows to the three
    per-vertex relations (two of a vertex's color-pair edge groups each),
    which lead d_r.  k = 0, and the Z image splits into the six color-pair
    toric codes, four of 2L^3 qubits and two of 3L^3."""
    model = catalog.gcc_model(L)
    code, setup = model.code, model.setup
    assert setup.d_z.cols - len(code.stabilizer_z) == 9
    n_edges = code.lattice.n_cells(1)
    per_vertex = [BitVec.from_support(n_edges, a + b) for groups in model.extra["pair_edges"]
                  for a, b in combinations(groups.values(), 2)]
    assert len(per_vertex) == model.extra["vertex_relation_count"] == 6 * L ** 3
    assert [setup.d_r.row(i) for i in range(len(per_vertex))] == per_vertex
    assert setup.d_r.rows - len(per_vertex) == 9
    assert "and 9 non-contractible relations joined" in setup.notes[1]
    assert code_parameters(code).k == 0
    image, _ = strip_identity_terms(
        ungauge_hamiltonian(codes.gauge_hamiltonian(code, kinds="Z"), setup))
    assert components(image).sizes() == [2 * L ** 3] * 4 + [3 * L ** 3] * 2


# -- gauging (the dual setup's forward map) and round trips ---------------------


def _gauge(p: PauliOp, s: UngaugeSetup, z_combo=None) -> PauliOp:
    """One operator through ``gauge_hamiltonian``, with ``z_combo`` if given."""
    (t,) = gauge_hamiltonian(Hamiltonian(p.n, [Term("p", "J", p, z_combo=z_combo)]), s)
    return t.op


def test_gauge_xu_moore_plaquette(bs_model):
    xm = catalog.builders.build_xu_moore(3)
    plaq = next(t for t in xm.hamiltonian if t.coupling == "J_Z")
    img = _gauge(plaq.op, bs_model.setup, z_combo=plaq.z_combo)
    assert img.x.is_zero() and img.z.weight == 2
    # The preimage is a vertical vertex pair.
    (a, b) = img.z.support
    assert abs(a - b) in (3, 6)


def test_gauge_single_x(bs_model):
    img = _gauge(PauliOp.x_op(9, [4]), bs_model.setup)
    assert img.z.is_zero()
    assert img.x == bs_model.setup.d_x.row(4)


def test_gauge_rejects_noncommuting_with_emergent(bs_model):
    # Z on one Xu-Moore edge anticommutes with the emergent row symmetry
    # through it, so it is not d_x of any Z support; the error names the term.
    s = bs_model.setup
    assert s.dual().x_preimage(BitVec(9, 1)) is None
    h = Hamiltonian(9, [Term("Xedge[4]", "J_X", PauliOp.x_op(9, [4])),
                        Term("Zedge[0]", "J_Z", PauliOp.z_op(9, [0]))])
    with pytest.raises(NotSymmetricError, match=r"^term Zedge\[0\]: "):
        gauge_hamiltonian(h, s)


def test_gauging_error_names_the_z_support(bs_model):
    # The dual maps the Hadamard image, whose X support this is; the error
    # names the Z support that the term gave.
    h = Hamiltonian(9, [Term("Zedge", "J_Z", PauliOp.z_op(9, [0]))])
    with pytest.raises(NotSymmetricError,
                       match=r"^term Zedge: Z support is not in the image of d_x \("):
        gauge_hamiltonian(h, bs_model.setup)


def test_gauging_error_names_the_z_combo(bs_model):
    # Z on edges 0 and 1 is the image of Z on vertex 1, not of vertices 0 and 1.
    h = Hamiltonian(9, [Term("Zpair", "J_Z", PauliOp.z_op(9, [0, 1]),
                             z_combo=BitVec.from_support(9, [0, 1]))])
    with pytest.raises(UngaugeError,
                       match=r"^term Zpair: z_combo does not reproduce the operator's Z support$"):
        gauge_hamiltonian(h, bs_model.setup)


def test_every_worked_model_gauges_back_exactly(worked_models):
    # Each image carries its preimage's Z support as ``z_combo``, so
    # gauging returns every term exactly, signs included.
    for name, model in worked_models.items():
        h, s = model.hamiltonian, model.setup
        assert gauge_hamiltonian(ungauge_hamiltonian(h, s), s).same_terms(h), name


def test_dual_ranks_are_its_own_ranks(worked_models):
    for name, model in worked_models.items():
        s, d = model.setup, model.setup.dual()
        r = s.ranks()
        assert d.ranks() == {"n_ini": r["n_fin"], "n_fin": r["n_ini"], "rank_d_z": r["rank_d_r"],
                             "rank_d_x": r["rank_d_x"], "rank_d_r": r["rank_d_z"]}, name
        assert d.ranks() == {"n_ini": d.n_ini, "n_fin": d.n_fin,
                             "rank_d_z": rank(d.d_z.transpose()), "rank_d_x": rank(d.d_x),
                             "rank_d_r": rank(d.d_r)}, name
        assert is_zero_product(d.d_x, d.d_z) and is_zero_product(d.d_r, d.d_x), name
        assert dim_check(d), name


def test_dual_of_the_dual_is_the_setup(bs_model):
    s = bs_model.setup
    d = s.dual()
    assert d.d_x is s._dxt and d._dxt is s.d_x
    back = d.dual()
    assert all(a is b for a, b in zip((back.d_z, back.d_x, back._dxt, back.d_r),
                                      (s.d_z, s.d_x, s._dxt, s.d_r)))


def test_dual_eliminates_nothing_and_forms_no_product(monkeypatch, gcc_model):
    built, products = [], []
    init, matmul = gf2.Echelon.__init__, BitMatrix.__matmul__

    def counted_init(self, vectors=(), combos=True):
        built.append(self)
        init(self, vectors, combos)

    def counted_matmul(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(gf2.Echelon, "__init__", counted_init)
    monkeypatch.setattr(BitMatrix, "__matmul__", counted_matmul)
    d = gcc_model.setup.dual()
    d.ranks()
    d.dual()
    assert built == [] and products == []


def test_round_trip_on_random_symmetric_paulis(gcc_model):
    # Gauge after ungauge returns the operator up to the initial Z-symmetry
    # group, and exactly on canonical representatives.
    rng = random.Random(99)
    s = gcc_model.setup
    for _ in range(200):
        p, combo = random_symmetric_pauli(s, rng)
        img = ungauge_pauli(p, s, x_combo=combo)
        back = _gauge(img, s)
        assert back.x == p.x
        diff = back.z ^ p.z
        assert solve(s.d_z, diff) is not None     # difference is a Z symmetry
        # Canonical representative: z-part already pivot-supported.
        canonical = _gauge(ungauge_pauli(back, s), s)
        assert canonical == back


def test_round_trip_exact_with_provenance(bs_model):
    mapped = ungauge_hamiltonian(bs_model.hamiltonian, bs_model.setup)
    back = gauge_hamiltonian(mapped, bs_model.setup)
    assert back.same_terms(bs_model.hamiltonian)
    forward_again = ungauge_hamiltonian(back, bs_model.setup)
    assert forward_again.same_terms(mapped)


@pytest.fixture(scope="module")
def worked_models():
    return catalog.worked_models()


def test_commutation_preservation_every_model(worked_models):
    assert len(worked_models) == 7
    for name, model in worked_models.items():
        assert commutation_preservation_check(model.setup, pairs=120, seed=7), name
        assert pairwise_commutation_check(model.setup, pairs=120, seed=7), name


def test_bit_sliced_products_are_the_pairs_symplectic_products(bs_model):
    # The documented draws, unpacked pair by pair: bit k of each row is the
    # first operator of pair k, bit width + k the second.
    s, width = bs_model.setup, 37
    rng = random.Random(5)
    c = BitMatrix(s.n_fin, 2 * width, [rng.getrandbits(2 * width) for _ in range(s.n_fin)])
    z = BitMatrix(s.n_ini, 2 * width, [rng.getrandbits(2 * width) for _ in range(s.n_ini)])
    before = _paired_products(s._dxt @ c, z, width)
    after = _paired_products(c, s.d_x @ z, width)

    def operator(k):
        combo, zk = c.transpose().row(k), z.transpose().row(k)
        x = s._dxt.mul_vec(combo)
        return PauliOp(s.n_ini, x, zk, x.overlap(zk)), combo

    for k in range(width):
        (p1, c1), (p2, c2) = operator(k), operator(width + k)
        assert (before >> k) & 1 == symplectic_product(p1, p2)
        assert (after >> k) & 1 == symplectic_product(ungauge_pauli(p1, s, x_combo=c1),
                                                      ungauge_pauli(p2, s, x_combo=c2))
    assert before >> width == after >> width == 0


def _flip(m: BitMatrix, row: int, col: int) -> BitMatrix:
    rows = [m.row_bits(i) for i in range(m.rows)]
    rows[row] ^= 1 << col
    return BitMatrix(m.rows, m.cols, rows)


def _faulty(s: UngaugeSetup, where: str) -> UngaugeSetup:
    """``s`` with one entry flipped in the matrix that builds X parts
    (``_dxt``) or in the one that maps Z parts (``d_x``), but not in both."""
    if where == "_dxt":
        return UngaugeSetup(s.d_z, s.d_x, _flip(s._dxt, s.n_ini // 2, s.n_fin // 3), s.d_r,
                            s.ranks())
    return UngaugeSetup(s.d_z, _flip(s.d_x, s.n_fin // 2, s.n_ini // 3), s._dxt, s.d_r, s.ranks())


@pytest.mark.parametrize("where", ["_dxt", "d_x"])
def test_commutation_checks_catch_one_flipped_entry(worked_models, where):
    for name, model in worked_models.items():
        bad = _faulty(model.setup, where)
        assert not commutation_preservation_check(bad, pairs=120, seed=7), name
        assert not pairwise_commutation_check(bad, pairs=120, seed=7), name


@pytest.mark.parametrize("where", ["_dxt", "d_x"])
def test_verify_commutation_names_the_faulty_model(monkeypatch, where):
    models = verify._models()
    for name, model in models.items():
        bad = catalog.WorkedModel(name, model.code, model.hamiltonian,
                                  _faulty(model.setup, where), model.extra)
        monkeypatch.setitem(verify._MODEL_CACHE, "worked", {**models, name: bad})
        result = verify.check_commutation()
        assert not result.passed
        first = first_broken_pair_unpacked(bad.setup, 1000, 20240, _PAIR_BLOCK)
        assert result.details == f"failures: {name} at pair {first}"


@pytest.mark.parametrize("where", ["_dxt", "d_x"])
def test_first_broken_pair_is_the_first_pair_that_changed(monkeypatch, gcc_model, where):
    # Blocks of 3 pairs, so that on some seeds the first block maps every
    # pair's product unchanged and the first broken pair lies in a later block.
    monkeypatch.setattr(ungauge, "_PAIR_BLOCK", 3)
    s = _faulty(gcc_model.setup, where)
    found = [first_broken_pair(s, 40, seed) for seed in range(12)]
    assert found == [first_broken_pair_unpacked(s, 40, seed, 3) for seed in range(12)]
    assert None not in found and max(found) >= 3
    assert first_broken_pair(gcc_model.setup, 40, 0) is None


def _unannihilated(s: UngaugeSetup) -> UngaugeSetup:
    """``s`` with one ``d_x`` entry flipped under the first Z symmetry's
    support, so that symmetry no longer maps to the identity."""
    q = s.d_z.column(0).support[0]
    return UngaugeSetup(s.d_z, _flip(s.d_x, s.n_fin // 2, q), s._dxt, s.d_r, s.ranks())


def test_annihilation_checks_name_the_faulty_model(monkeypatch):
    models = verify._models()
    for name, model in models.items():
        bad = catalog.WorkedModel(name, model.code, model.hamiltonian,
                                  _unannihilated(model.setup), model.extra)
        assert not annihilation_check(bad.setup), name
        monkeypatch.setitem(verify._MODEL_CACHE, "worked", {**models, name: bad})
        result = verify.check_annihilation()
        assert not result.passed
        assert result.details == f"failures: {[name]}"


def test_commutation_check_across_block_boundaries(gcc_model):
    pairs = 2 * _PAIR_BLOCK + 7
    assert commutation_preservation_check(gcc_model.setup, pairs, seed=3)
    for where in ("_dxt", "d_x"):
        assert not commutation_preservation_check(_faulty(gcc_model.setup, where), pairs, seed=3)


def test_commutation_check_of_no_pairs_draws_nothing(monkeypatch, gcc_model):
    def refuse(self, k):
        raise AssertionError("drew random bits")

    monkeypatch.setattr(random.Random, "getrandbits", refuse)
    assert commutation_preservation_check(_faulty(gcc_model.setup, "_dxt"), 0, seed=3)


def test_commutation_check_is_bit_sliced(monkeypatch, worked_models):
    # No operator is built or mapped one at a time: each block of pairs
    # costs one sparse matrix product per side.
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for cls, name in ((BitMatrix, "mul_vec"), (BitMatrix, "__matmul__"), (PauliOp, "__init__")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    for model in worked_models.values():
        assert commutation_preservation_check(model.setup, pairs=2 * _PAIR_BLOCK + 7, seed=3)
    assert calls == {"__matmul__": 2 * 3 * len(worked_models)}


def test_hamiltonian_error_names_term(sphere_model):
    h = Hamiltonian(12)
    h.add(Term("bad-term", "J_X", PauliOp.x_op(12, [0])))
    with pytest.raises(NotSymmetricError, match="bad-term"):
        ungauge_hamiltonian(h, sphere_model.setup)


def test_strip_identity_terms(sphere_model):
    mapped = ungauge_hamiltonian(sphere_model.hamiltonian, sphere_model.setup)
    stripped, dropped = strip_identity_terms(mapped)
    assert dropped == 8                     # the face stabilizer terms
    assert len(stripped) == 6


def test_setup_report_shape(sphere_model):
    report = setup_report(sphere_model.setup, commutation_pairs=25)
    assert report["dim_check"] is True
    assert report["annihilated_generators"]["all_identity"] is True
    assert report["commutation_preserved"] is True
    assert len(report["emergent"]) == 1


# -- full gauging ---------------------------------------------------------------


def test_xu_moore_full_round(bs_model):
    chk = catalog.xu_moore_check(3)
    assert chk["mapped_matches_xu_moore"]
    assert chk["regauged_matches_bacon_shor"]
    rep = chk["full_gauge_report"]
    assert rep["support_multiset_match"]
    assert rep["coupling_map"] == {"J_X": ["J_Z"], "J_Z": ["J_X"]}


def _gauges_the_link_operators(out) -> bool:
    """The swapped X generators of ``full_gauge_lgt``, read off its Z-only
    terms, are the link operators of the lattice's edges, in edge order."""
    lattice, d_x = out["model"].code.lattice, out["swapped_setup"].d_x
    n = lattice.n_cells(1)
    return [d_x.row(e) for e in range(d_x.rows)] == [
        BitVec.from_support(n, lattice.link(1, 1, e)) for e in range(n)]


def test_full_gauge_lgt_matches_hadamard_twist():
    out = catalog.full_gauge_lgt(2)
    rep = out["report"]
    assert rep["support_multiset_match"]
    assert rep["coupling_map"] == {"J_X": ["J_Z"], "J_Z": ["J_X"]}
    assert rep["topological_x_classes"] == 18
    assert _gauges_the_link_operators(out)


# A wrong numbering of the swapped X generators against the Z-only terms
# could first show above the rungs pinned above.
@pytest.mark.parametrize("length", [2, 4, 5])
def test_xu_moore_full_round_on_more_rungs(length):
    chk = catalog.xu_moore_check(length)
    assert chk["regauged_matches_bacon_shor"]
    assert chk["full_gauge_report"]["support_multiset_match"]


def test_full_gauge_lgt_at_l4():
    out = catalog.full_gauge_lgt(4)
    assert out["report"]["support_multiset_match"]
    assert _gauges_the_link_operators(out)


# -- properties over small setups -----------------------------------------------


def _product(rows: list[int], combo: int) -> int:
    acc = 0
    for k, r in enumerate(rows):
        if combo >> k & 1:
            acc ^= r
    return acc


@st.composite
def small_setups(draw):
    """A setup ``make_setup`` accepts, its X generator rows, its qubit count,
    the relations and the Z symmetries it was given.

    The X generators are some rows of a kernel basis of d_z^T plus
    redundant products of them (the zero product and repeats included),
    shuffled, so the relation space and the free generators of the
    canonical preimage are nontrivial, and a dropped kernel row leaves a
    Z class for ``make_setup`` to join.  The given relations are products
    of a basis of the relation space (the zero product and repeats
    included), often too few to span it.  Preserved
    symmetries are products of the generators, with their combos.
    """
    n = draw(st.integers(1, 7))
    z_syms = [BitVec(n, z) for z in draw(st.lists(st.integers(0, 2 ** n - 1), max_size=4))]
    basis = kernel_basis(BitMatrix.from_columns(n, z_syms).transpose())
    kernel = [basis.row_bits(k) for k in range(basis.rows) if draw(st.booleans())]
    extra = draw(st.lists(st.integers(0, 2 ** len(kernel) - 1), max_size=4))
    gens = draw(st.permutations(kernel + [_product(kernel, c) for c in extra]))
    combos = draw(st.lists(st.integers(0, 2 ** len(gens) - 1), max_size=3))
    left = kernel_basis(BitMatrix(len(gens), n, gens).transpose())
    left_rows = [left.row_bits(k) for k in range(left.rows)]
    relations = [BitVec(len(gens), _product(left_rows, c))
                 for c in draw(st.lists(st.integers(0, 2 ** len(left_rows) - 1), max_size=3))]
    setup = make_setup(n, z_syms, x_gens=[BitVec(n, g) for g in gens], relations=relations,
                       preserved=[BitVec(n, _product(gens, c)) for c in combos],
                       preserved_combos=[BitVec(len(gens), c) for c in combos])
    return setup, gens, n, relations, z_syms


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_setups(), st.data())
def test_property_engine_on_small_setups(case, data):
    # The relations, the Z symmetries, the canonical X preimage, both round
    # trips, symplectic products, and the dimension and annihilation checks,
    # on one drawn setup.
    s, gens, n, relations, z_syms = case
    m = len(gens)
    # d_z is the given Z symmetries, then kernel rows of d_x that extend
    # their span, and together they span ker d_x.
    assert [s.d_z.column(j) for j in range(len(z_syms))] == z_syms
    assert _spans_the_z_symmetries(s)
    # d_r is the given relations, then kernel rows that each extend their
    # span, and together they span the whole relation space.
    assert [s.d_r.row(i) for i in range(len(relations))] == relations
    assert _spans_the_relation_space(s)
    given = naive_rank(matrix_rows(BitMatrix.from_rows(m, relations)))
    assert s.d_r.rows - len(relations) == s.ranks()["rank_d_r"] - given
    assert dim_check(s) and annihilation_check(s)
    images = []
    for _ in range(4):
        # An arbitrary support, in the symmetric group or not ...
        x = data.draw(st.integers(0, 2 ** n - 1))
        expected = naive_x_preimage(gens, n, x)
        assert s.x_preimage(BitVec(n, x)) == (None if expected is None else BitVec(m, expected))
        # ... and a product of the generators, always in it.
        combo = BitVec(m, data.draw(st.integers(0, 2 ** m - 1)))
        x = BitVec(n, _product(gens, combo.bits))
        assert s.x_preimage(x) == BitVec(m, naive_x_preimage(gens, n, x.bits))

        z = BitVec(n, data.draw(st.integers(0, 2 ** n - 1)))
        sign = data.draw(st.sampled_from((0, 2)))
        p = PauliOp(n, x, z, sign + x.overlap(z))
        # With provenance the round trip is exact for every Z part.
        img = ungauge_pauli(p, s, x_combo=combo)
        assert _gauge(img, s, z_combo=z) == p
        images.append((p, img))
        # Without it, exact on the canonical Z part of each symmetry class.
        z = s.dual().x_preimage(s.d_x.mul_vec(z))
        p = PauliOp(n, x, z, sign + x.overlap(z))
        assert _gauge(ungauge_pauli(p, s), s) == p
    for p1, img1 in images:
        for p2, img2 in images:
            assert symplectic_product(p1, p2) == symplectic_product(img1, img2)
