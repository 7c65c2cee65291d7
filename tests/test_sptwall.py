import tracemalloc

import pytest

from cssgauge import catalog, pauli, sptwall, verify
from cssgauge.analysis import commuting_check, components
from cssgauge.builders import (
    build_bacon_shor,
    build_color_code_2d,
    build_fractal_code,
    build_gcc,
    build_toric,
    build_toric_sphere,
)
from cssgauge.codes import CssSubsystemCode, stabilizer_hamiltonian
from cssgauge.gf2 import BitVec
from cssgauge.pauli import (
    GroupMembership,
    Hamiltonian,
    PauliOp,
    Term,
    conjugate_by_circuit,
    symplectic_product,
)
from cssgauge.sptwall import (
    Region,
    domain_wall,
    find_cz_disentangler,
    pairing_circuit,
    spt_pipeline,
    tensor_code,
    transversal_cz_is_logical,
)
from cssgauge.ungauge import strip_identity_terms

from tests.oracles import (
    mutual_signed_membership,
    naive_tensor_with_dual,
    rank_and_membership_preserved,
    signed_search_cz_is_logical,
)


@pytest.mark.parametrize("build", [
    lambda: build_toric(2, 3, 1),
    lambda: build_toric(3, 3, 1),
    lambda: build_toric(3, 3, 2),
    lambda: build_fractal_code(4, "periodic"),
    lambda: build_fractal_code(4, "open_y"),
    lambda: build_color_code_2d(3),
], ids=["toric2d", "toric3d-k1", "toric3d-k2", "fractal-periodic", "fractal-open_y", "color2d"])
def test_tensor_matches_the_naive_lift(build):
    code = build()
    tensor, expected = tensor_code(code), naive_tensor_with_dual(code)
    assert (tensor.name, tensor.n) == (expected.name, expected.n)
    assert [v.support for v in tensor.gauge_x] == expected.gauge_x
    assert [v.support for v in tensor.gauge_z] == expected.gauge_z
    assert tensor.qubit_labels == expected.qubit_labels
    assert tensor.metadata == expected.metadata


def test_tensor_lifts_each_generator_once():
    # The tensor is a stabilizer code, so each of its stabilizers is the
    # lifted gauge generator itself.  Lifting the stabilizers a second
    # time retained 3.53 MB at toric2d L=32; one lift retains 1.82 MB.
    code = build_toric(2, 32, 1)
    tracemalloc.start()
    try:
        tensor = tensor_code(code)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(s is g for s, g in zip(tensor.stabilizer_x, tensor.gauge_x, strict=True))
    assert all(s is g for s, g in zip(tensor.stabilizer_z, tensor.gauge_z, strict=True))
    assert retained <= 2_500_000, f"retained {retained} bytes"


def test_tensor_rejects_a_subsystem_code():
    code = build_bacon_shor(3)
    with pytest.raises(ValueError, match="anticommutes"):
        tensor_code(code)


def test_transversal_cz_logical_toric():
    code = build_toric(2, 3, 1)
    assert transversal_cz_is_logical(tensor_code(code))


def test_transversal_cz_fixes_z_stabilizers():
    code = build_toric(2, 3, 1)
    tensor = tensor_code(code)
    circuit = pairing_circuit(tensor)
    for sz in tensor.stabilizer_z:
        op = PauliOp(tensor.n, BitVec(tensor.n), sz)
        assert conjugate_by_circuit(op, circuit) == op


def test_cz_conjugation_memory_is_not_quadratic():
    # The transversal CZ on toric2d L=32 pairs n = 4096 qubits.  A table of
    # the 2n images of X_q and Z_q, n bits each, would take several MB;
    # the circuit's partner lists and one image stay well under 2 MiB.
    code = build_toric(2, 32, 1)
    tensor = tensor_code(code)
    op = PauliOp(tensor.n, tensor.stabilizer_x[0], BitVec(tensor.n))
    tracemalloc.start()
    try:
        image = conjugate_by_circuit(op, pairing_circuit(tensor))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor.n == 4096
    assert image == PauliOp(tensor.n, op.x, BitVec(tensor.n, op.x.bits << code.n))
    assert peak <= 2 * 2 ** 20, f"peak {peak} bytes"


def _count_searches(monkeypatch) -> list[int]:
    """Record the generator count of every signed membership search built."""
    builds = []
    init = GroupMembership.__init__

    def counted(self, gens):
        builds.append(len(gens))
        init(self, gens)

    monkeypatch.setattr(GroupMembership, "__init__", counted)
    return builds


def test_transversal_cz_not_logical_without_dual(monkeypatch):
    # Without the dual no X image has a witness: the first miss builds the
    # search, which rejects that image at once.
    code = build_toric(2, 3, 1)
    n = code.n

    def lift(vs, shift):
        return [BitVec(2 * n, v.bits << shift) for v in vs]

    tensor = CssSubsystemCode(
        "toric2d(x)toric2d", 2 * n,
        gauge_x=lift(code.gauge_x, 0) + lift(code.gauge_x, n),
        gauge_z=lift(code.gauge_z, 0) + lift(code.gauge_z, n),
        metadata={"base_n": n})
    assert not signed_search_cz_is_logical(tensor)
    builds = _count_searches(monkeypatch)
    assert not transversal_cz_is_logical(tensor)
    assert builds == [len(tensor.stabilizer_ops())]


_NOT_LOGICAL = ("transversal CZ is not a logical gate for this code: the image of "
                "stabilizer generator {} is outside the stabilizer group")


def _flip_image_sign(monkeypatch, flipped):
    """Add 2 to the phase of ``flipped``'s image under every CZ circuit, in
    ``sptwall`` and for the oracles, which import from ``pauli``."""
    def flip_one(op, circuit):
        img = conjugate_by_circuit(op, circuit)
        return PauliOp(img.n, img.x, img.z, img.phase + 2) if op == flipped else img

    monkeypatch.setattr(sptwall, "conjugate_by_circuit", flip_one)
    monkeypatch.setattr(pauli, "conjugate_by_circuit", flip_one)


def test_transversal_cz_not_logical_with_a_sign_flipped(monkeypatch):
    # The flipped image still has its supports filed under the generator's
    # dual Z twin, so only the phase rejects that witness; the one search
    # then rejects the image, -1 not being in the stabilizer group.
    code = build_toric(2, 3, 1)
    tensor = tensor_code(code)
    index = 2
    assert index < len(tensor.stabilizer_x)
    _flip_image_sign(monkeypatch, tensor.stabilizer_ops()[index])
    builds = _count_searches(monkeypatch)
    assert not transversal_cz_is_logical(tensor)
    assert builds == [len(tensor.stabilizer_ops())]
    assert not signed_search_cz_is_logical(tensor)
    with pytest.raises(ValueError) as err:
        spt_pipeline(code, Region.slab(code, 0, 1))
    assert str(err.value) == _NOT_LOGICAL.format(index)


def test_verify_names_the_generator_that_leaves_the_group(monkeypatch):
    code = verify._models()["toric-torus"].code
    index = len(code.stabilizer_x) - 1
    _flip_image_sign(monkeypatch, tensor_code(code).stabilizer_ops()[index])
    result = verify.check_transversal_cz()
    assert not result.passed
    assert result.details == f"{code.name} L={code.metadata['L']}: " + _NOT_LOGICAL.format(index)


def test_domain_wall_keeps_the_terms_the_circuit_misses(monkeypatch):
    built = []

    class Counted(Term):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sptwall, "Term", Counted)
    counts = []
    for code, tensor, region in _slab_walls():
        built.clear()
        wall = domain_wall(tensor, region)
        counts.append((len(built), len(wall.h_wall), len(wall.h_rc)))
        circuit = pairing_circuit(tensor, sorted(region.sites))
        fresh = {t.name: t for t in stabilizer_hamiltonian(tensor)}
        changed = [t.name for t in wall.h_wall if t.op != fresh[t.name].op]
        assert built == changed, (code.name, region.descriptor)
        for t in [*wall.h_wall, *wall.h_rc]:
            if conjugate_by_circuit(t.op, circuit) is t.op:
                f = fresh[t.name]
                assert (t.name, t.coupling, t.op, t.x_combo, t.z_combo) == (
                    f.name, f.coupling, f.op, f.x_combo, f.z_combo)
        assert all(type(t) is Term for t in wall.h_rc)
    # toric2d L=4, slab [0, 2): of the 32 wall terms, the 16 whose X support
    # meets the slab are rebuilt; the other wall terms and all 16 outside
    # terms are kept.
    assert counts[0] == (16, 32, 16)


def test_domain_wall_everything_and_empty():
    code = build_toric(2, 3, 1)
    tensor = tensor_code(code)
    whole, none = Region.slab(code, 0, 3), Region.slab(code, 0, 0)
    assert whole.sites == frozenset(range(code.n)) and none.sites == frozenset()
    everything = domain_wall(tensor, whole)
    assert len(everything.h_wall) == 0
    assert everything.replaced_terms == len(tensor.stabilizer_x)
    assert everything.group_preserved

    empty = domain_wall(tensor, none)
    assert len(empty.h_wall) == 0 and empty.replaced_terms == 0
    assert empty.total().same_terms(stabilizer_hamiltonian(tensor))


def test_domain_wall_slab_locality():
    code = build_fractal_code(4, "open_y")
    tensor = tensor_code(code)
    wall = domain_wall(tensor, Region.slab(code, 1, 3))
    assert wall.group_preserved
    coords = code.metadata["qubit_coords"]
    for t in wall.h_wall:
        zs = {coords[q % code.n][2] for q in t.op.support}
        # Straddling terms live within one unit of a slab face (z = 1 or 3).
        assert zs <= {0.0, 1.0} or zs <= {2.0, 3.0}


@pytest.mark.parametrize("build", [lambda: build_color_code_2d(3), lambda: build_gcc(2),
                                   build_toric_sphere], ids=["color2d", "gcc", "toric-sphere"])
def test_slab_of_a_code_without_coordinates_names_the_code(build):
    code = build()
    with pytest.raises(ValueError, match=f"code {code.name} has no 'qubit_coords' metadata"):
        Region.slab(code, 0, 1)


def test_domain_wall_validates_region():
    code = build_toric(2, 3, 1)
    tensor = tensor_code(code)
    with pytest.raises(ValueError):
        domain_wall(tensor, Region(frozenset([code.n + 1]), "custom"))
    with pytest.warns(UserWarning):
        domain_wall(tensor, Region(frozenset([0, 1]), "custom"))


def test_spt_pipeline_requires_stabilizer_code():
    with pytest.raises(ValueError, match="stabilizer"):
        spt_pipeline(build_bacon_shor(3), Region(frozenset()))


def test_spt_pipeline_whole_region_has_no_wall():
    code = build_toric(2, 3, 1)
    res = spt_pipeline(code, Region.slab(code, 0, 3))
    assert len(res.wall_hamiltonian) == 0
    assert res.report["bulk_trivial"]
    assert res.symmetries == []           # nothing to restrict to


def test_spt_pipeline_toric_cluster_chain():
    code = build_toric(2, 4, 1)
    res = spt_pipeline(code, Region.slab(code, 1, 3))
    assert res.report["cz_logical"] and res.report["group_preserved"]
    assert res.report["bulk_trivial"]
    assert len(res.wall_hamiltonian) == 16
    for t in res.wall_hamiltonian:
        assert t.op.x.weight == 1 and t.op.z.weight == 2 and t.op.phase == 0
    # Two boundary loops, each an alternating cycle of 2L qubits.
    rep = components(res.wall_hamiltonian)
    assert rep.count == 2
    assert rep.sizes() == [8, 8]
    assert commuting_check(res.wall_hamiltonian)
    assert len(res.symmetries) == 2
    for s in res.symmetries:
        assert all(symplectic_product(s, t.op) == 0 for t in res.wall_hamiltonian)


def test_spt_pipeline_fractal_wall():
    code = build_fractal_code(4, "open_y")
    res = spt_pipeline(code, Region.slab(code, 1, 3))
    assert res.report["bulk_trivial"] and res.report["group_preserved"]
    assert commuting_check(res.wall_hamiltonian)
    assert res.symmetries
    for s in res.symmetries:
        assert all(symplectic_product(s, t.op) == 0 for t in res.wall_hamiltonian)
    # Both triangle orientations appear among the wall decorations.
    coords = {}
    verts = code.metadata["vertices"]
    orientations = set()
    for t in res.wall_hamiltonian:
        if t.op.z.weight != 3:
            continue
        xs = sorted(verts[q % len(verts)] for q in t.op.z.support)
        base = xs[0]
        offsets = tuple(sorted((v[0] - base[0], v[1] - base[1]) for v in xs))
        orientations.add(offsets)
    assert len(orientations) >= 2
    circ = find_cz_disentangler(res.wall_hamiltonian)
    assert circ is not None
    for t in res.wall_hamiltonian:
        img = conjugate_by_circuit(t.op, circ)
        assert img.z.is_zero() and img.x.weight == 1 and img.phase == 0


def test_disentangler_cluster_chain():
    n = 6
    h = Hamiltonian(n)
    for i in range(n):
        h.add(Term(f"c{i}", "J", PauliOp(n, BitVec.from_support(n, [i]),
                                          BitVec.from_support(n, [(i - 1) % n, (i + 1) % n]))))
    circ = find_cz_disentangler(h)
    assert circ is not None
    # The nearest-neighbor CZ cycle: n gates, each joining adjacent sites.
    assert len(circ.gates) == n
    assert all((b - a) % n in (1, n - 1) for _, a, b in circ.gates)
    for t in h:
        assert conjugate_by_circuit(t.op, circ) == PauliOp.x_op(n, t.op.x.support)


def test_disentangler_rbh_copy():
    model = catalog.gcc_model(2)
    ph = catalog.gcc_phase_hamiltonians(model)
    lattice = model.code.lattice
    img, _ = strip_identity_terms(ph["image_Y"])
    rep = components(img)
    classes = model.extra["edge_classes"]
    abcd = frozenset(e for e, c in enumerate(classes) if c in ("ab", "cd"))
    comp = next(c for c in rep.components if c.qubits == abcd)
    copy_h = Hamiltonian(img.n, [img.terms[i] for i in comp.term_indices])
    circ = find_cz_disentangler(copy_h)
    assert circ is not None
    # Every CZ joins two disjoint edges sharing a tetrahedron, one from
    # each color class of the copy.
    for _, a, b in circ.gates:
        assert {classes[a], classes[b]} == {"ab", "cd"}
        assert b in lattice.link(1, 1, a)
    assert len(circ.gates) == lattice.n_cells(3)
    for t in copy_h:
        img_t = conjugate_by_circuit(t.op, circ)
        assert img_t.z.is_zero() and img_t.x.weight == 1 and img_t.phase == 0


def test_disentangler_rejects_bad_shapes():
    h = Hamiltonian(2)
    h.add(Term("xx", "J", PauliOp.x_op(2, [0, 1])))
    with pytest.raises(ValueError, match="single-X"):
        find_cz_disentangler(h)
    h2 = Hamiltonian(2)
    h2.add(Term("y", "J", PauliOp.y_op(2, [0])))
    with pytest.raises(ValueError, match="Y content"):
        find_cz_disentangler(h2)


def test_disentangler_none_for_asymmetric_adjacency():
    h = Hamiltonian(2)
    h.add(Term("a", "J", PauliOp(2, BitVec.from_support(2, [0]), BitVec.from_support(2, [1]))))
    h.add(Term("b", "J", PauliOp.x_op(2, [1])))
    assert find_cz_disentangler(h) is None


def _slab_walls():
    toric = build_toric(2, 4, 1)
    fractal = build_fractal_code(4, "open_y")
    for code, lo, hi in ((toric, 0, 2), (toric, 1, 3), (toric, 2, 4),
                         (fractal, 0, 2), (fractal, 1, 3)):
        yield code, tensor_code(code), Region.slab(code, lo, hi)


def test_group_preserved_matches_rank_and_membership():
    for code, tensor, region in _slab_walls():
        wall = domain_wall(tensor, region)
        circuit = pairing_circuit(tensor, sorted(region.sites))
        old = [conjugate_by_circuit(t.op, circuit) for t in stabilizer_hamiltonian(tensor)]
        expected = rank_and_membership_preserved(old, wall.total().operators())
        assert wall.group_preserved == expected, (code.name, region.descriptor)
        assert expected


def _toric3d_walls():
    code = catalog.toric3d_model(2).code
    tensor = tensor_code(code)
    for lo, hi in ((0, 1), (0.5, 1.5), (1, 2), (0, 2)):
        yield code, tensor, Region.slab(code, lo, hi)


def test_witness_checks_agree_with_the_signed_search(monkeypatch):
    builds = _count_searches(monkeypatch)
    for code, tensor, region in [*_slab_walls(), *_toric3d_walls()]:
        circuit = pairing_circuit(tensor, sorted(region.sites))
        old = [conjugate_by_circuit(t.op, circuit) for t in stabilizer_hamiltonian(tensor)]
        builds.clear()
        cz_logical = transversal_cz_is_logical(tensor)
        wall = domain_wall(tensor, region)
        # Every image and replaced pair has its witness, so nothing is searched.
        assert builds == [], (code.name, region.descriptor)
        assert cz_logical == signed_search_cz_is_logical(tensor)
        assert wall.group_preserved == mutual_signed_membership(old, wall.total().operators())
        assert cz_logical and wall.group_preserved and wall.replaced_terms


def _replaced_original(tensor, region):
    """The first interior generator that the wall replaces by its original."""
    circuit = pairing_circuit(tensor, sorted(region.sites))
    wall = domain_wall(tensor, region)
    return next(op for op in wall.h_r.operators() if conjugate_by_circuit(op, circuit) != op)


def test_group_preserved_fails_when_a_generator_is_rejected(monkeypatch):
    code, tensor, region = next(_slab_walls())
    assert domain_wall(tensor, region).group_preserved
    rejected = _replaced_original(tensor, region)
    witnessed = sptwall._witnessed

    def reject_one(p, g, by_support):
        return rejected not in (p, g) and witnessed(p, g, by_support)

    monkeypatch.setattr(sptwall, "_witnessed", reject_one)
    builds = _count_searches(monkeypatch)
    # The search decides a pair the witness rejects, in both directions.
    assert domain_wall(tensor, region).group_preserved
    assert len(builds) == 2
    contains = GroupMembership.contains
    image = conjugate_by_circuit(rejected, pairing_circuit(tensor, sorted(region.sites)))

    def search_rejects_too(self, p, track_sign=False):
        return p not in (rejected, image) and contains(self, p, track_sign)

    monkeypatch.setattr(GroupMembership, "contains", search_rejects_too)
    assert not domain_wall(tensor, region).group_preserved


def test_group_preserved_fails_when_the_search_rejects_a_missed_witness(monkeypatch):
    # A sign flipped on one decorated interior image: it is no longer the
    # original times its decoration, and -1 is not in the stabilizer group.
    code, tensor, region = next(_slab_walls())
    flipped = _replaced_original(tensor, region)

    def flip_one(op, circuit):
        img = conjugate_by_circuit(op, circuit)
        return PauliOp(img.n, img.x, img.z, img.phase + 2) if op == flipped else img

    monkeypatch.setattr(sptwall, "conjugate_by_circuit", flip_one)
    builds = _count_searches(monkeypatch)
    wall = domain_wall(tensor, region)
    assert not wall.group_preserved
    assert builds == [len(tensor.stabilizer_ops())]
    circuit = pairing_circuit(tensor, sorted(region.sites))
    old = [flip_one(t.op, circuit) for t in stabilizer_hamiltonian(tensor)]
    assert not mutual_signed_membership(old, wall.total().operators())
