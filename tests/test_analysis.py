import random

import pytest
from hypothesis import given, settings, strategies as st

from cssgauge import catalog
from cssgauge.analysis import (
    code_parameters,
    commuting_check,
    components,
    find_noncommuting_pair,
    is_self_dual,
    match_against_builder,
)
from cssgauge.builders import (
    build_bacon_shor,
    build_color_code_2d,
    build_gcc,
    build_toric,
    toric_code_from_complex,
)
from cssgauge.codes import CssSubsystemCode, stabilizer_hamiltonian
from cssgauge.gf2 import BitVec
from cssgauge.lattice import color_pair_sublattice
from cssgauge.pauli import Hamiltonian, PauliOp, Term
from cssgauge.ungauge import strip_identity_terms, ungauge_hamiltonian

from tests.oracles import naive_code_parameters, naive_components, naive_noncommuting_pair


@pytest.fixture(scope="module")
def gcc_images():
    model = catalog.gcc_model(2)
    return {"model": model, **catalog.gcc_phase_hamiltonians(model)}


def test_code_parameters_examples():
    bs = code_parameters(build_bacon_shor(3))
    assert (bs.n, bs.gauge_rank, bs.stabilizer_rank, bs.k, bs.gauge_qubits) == (9, 12, 4, 1, 4)
    assert code_parameters(build_toric(2, 3, 1)).k == 2
    gcc = code_parameters(build_gcc(2))
    assert gcc.k == 0                       # the claimed value, via the true center
    assert gcc.stabilizer_rank == 44
    assert (gcc.gauge_rank - gcc.stabilizer_rank) % 2 == 0
    assert 0 <= gcc.k <= gcc.n


@st.composite
def css_subsystem_codes(draw):
    """Up to 12 X and 12 Z gauge rows on up to 12 qubits, with zero and repeated
    rows, empty lists, and self-dual draws (the Z rows equal to the X rows).
    The rows may anticommute, so no stabilizers are listed."""
    n = draw(st.integers(1, 12))
    row = st.one_of(st.just(0), st.integers(0, (1 << n) - 1))

    def rows():
        drawn = draw(st.lists(row, max_size=12))
        if drawn and draw(st.booleans()):
            drawn += draw(st.lists(st.sampled_from(drawn), max_size=12 - len(drawn)))
        return [BitVec(n, r) for r in drawn]

    gauge_x = rows()
    gauge_z = list(gauge_x) if draw(st.booleans()) else rows()
    return CssSubsystemCode("random", n, gauge_x, gauge_z, stabilizer_x=[], stabilizer_z=[])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(css_subsystem_codes())
def test_property_code_parameters_match_gram_rank(code):
    assert tuple(code_parameters(code)) == naive_code_parameters(code)


def test_code_parameters_edge_cases_match_gram_rank():
    n = 4
    zero, a, b = BitVec(n), BitVec(n, 0b0011), BitVec(n, 0b0110)
    for gauge_x, gauge_z in (([], []), ([a], []), ([], [b]), ([zero, zero], [zero]),
                             ([a, a, b], [a, a, b]), ([a, b], [b, b, zero])):
        code = CssSubsystemCode("edge", n, gauge_x, gauge_z, stabilizer_x=[], stabilizer_z=[])
        assert tuple(code_parameters(code)) == naive_code_parameters(code)
    assert tuple(code_parameters(CssSubsystemCode("empty", n, [], []))) == (n, 0, 0, n, 0)


RELABELLED_BUILDERS = {
    "toric2d": lambda: build_toric(2, 3, 1),
    "bacon-shor": lambda: build_bacon_shor(3),
    "color2d": lambda: build_color_code_2d(3),
    "gcc": lambda: build_gcc(2),
}


@pytest.fixture(scope="module")
def relabelled_bases():
    """Each small code with its parameters and stabilizer-Hamiltonian components."""
    out = {}
    for name, build in RELABELLED_BUILDERS.items():
        code = build()
        out[name] = (code, code_parameters(code), components(stabilizer_hamiltonian(code)))
    return out


def _relabelled(code: CssSubsystemCode, perm: list[int]) -> CssSubsystemCode:
    """The code with qubit i moved to perm[i]; gauge and stabilizer listings keep their order."""
    def move(vectors):
        return [BitVec.from_support(code.n, [perm[q] for q in v.support]) for v in vectors]
    return CssSubsystemCode(code.name, code.n, move(code.gauge_x), move(code.gauge_z),
                            move(code.stabilizer_x), move(code.stabilizer_z))


@pytest.mark.parametrize("name", sorted(RELABELLED_BUILDERS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_property_relabelling_keeps_parameters_and_components(relabelled_bases, name, data):
    code, params, report = relabelled_bases[name]
    perm = data.draw(st.permutations(range(code.n)))
    moved = _relabelled(code, perm)
    assert code_parameters(moved) == params
    moved_report = components(stabilizer_hamiltonian(moved))
    assert moved_report.sizes() == report.sizes()
    assert set(moved_report.qubit_sets()) == {frozenset(perm[q] for q in s)
                                              for s in report.qubit_sets()}


def test_components_gcc_z_image(gcc_images):
    img, _ = strip_identity_terms(gcc_images["image_Z"])
    rep = components(img)
    assert rep.count == 6
    assert rep.sizes() == [16, 16, 16, 16, 24, 24]
    classes = {}
    for e, cls in enumerate(gcc_images["model"].extra["edge_classes"]):
        classes.setdefault(cls, set()).add(e)
    assert set(rep.qubit_sets()) == {frozenset(v) for v in classes.values()}


def test_components_gcc_y_image(gcc_images):
    img, _ = strip_identity_terms(gcc_images["image_Y"])
    rep = components(img)
    assert rep.count == 3
    assert rep.sizes() == [32, 32, 48]
    assert commuting_check(img)


def test_components_paramagnet_singletons(gcc_images):
    img, _ = strip_identity_terms(gcc_images["image_X"])
    rep = components(img)
    assert rep.count == img.n == 112
    assert all(len(c.qubits) == 1 for c in rep.components)


def test_components_invariant_under_order_and_relabeling(gcc_images):
    img, _ = strip_identity_terms(gcc_images["image_Y"])
    rng = random.Random(4)
    shuffled = Hamiltonian(img.n, list(img.terms))
    rng.shuffle(shuffled.terms)
    perm = list(range(img.n))
    rng.shuffle(perm)
    relabeled = shuffled.relabel_qubits(dict(enumerate(perm)))
    rep0, rep1 = components(img), components(relabeled)
    assert rep0.count == rep1.count
    assert rep0.sizes() == rep1.sizes()


def test_component_weight_histograms(gcc_images):
    img, _ = strip_identity_terms(gcc_images["image_Z"])
    rep = components(img)
    for c in rep.components:
        assert c.weight_histogram in ({4: 24}, {6: 16})


def test_gcc_cd_component_terms_are_link_images(gcc_images):
    model = gcc_images["model"]
    lattice = model.code.lattice
    img, _ = strip_identity_terms(gcc_images["image_Z"])
    rep = components(img)
    classes = model.extra["edge_classes"]
    cd_qubits = frozenset(e for e, c in enumerate(classes) if c == "cd")
    comp = next(c for c in rep.components if c.qubits == cd_qubits)
    got = sorted(img.terms[i].op.z.bits for i in comp.term_indices)
    expected = sorted(
        BitVec.from_support(img.n, lattice.link(1, 1, e)).bits
        for e, c in enumerate(classes) if c == "ab")
    assert got == expected


def test_gcc_ab_component_matches_cubic_toric_plaquettes(gcc_images):
    model = gcc_images["model"]
    lattice = model.code.lattice
    img, _ = strip_identity_terms(gcc_images["image_Z"])
    rep = components(img)
    classes = model.extra["edge_classes"]
    ab_qubits = frozenset(e for e, c in enumerate(classes) if c == "ab")
    comp = next(c for c in rep.components if c.qubits == ab_qubits)

    toric = build_toric(3, 2, 1)
    # ab edges are labeled like the cubic lattice edges; Z-only reference.
    reference = CssSubsystemCode(
        "toric-z", toric.n, gauge_x=[], gauge_z=list(toric.stabilizer_z),
        stabilizer_x=[], stabilizer_z=list(toric.stabilizer_z),
        qubit_labels=toric.qubit_labels)
    correspondence = {}
    for e in ab_qubits:
        label = lattice.cells[1][e].removeprefix("ab:")
        correspondence[e] = toric.lattice.index(1, label)
    assert match_against_builder(img, comp, reference, correspondence)


@pytest.mark.parametrize("L", [3, 6, 9])
@pytest.mark.parametrize("color", "abc")
def test_color2d_partial_image_is_two_toric_copies(L, color):
    # Ungauging one color leaves two components, each term for term the
    # toric code on the honeycomb of that color and one other; each copy
    # lives on a torus, so k = 2.
    model = catalog.color2d_partial_model(L, color)
    lattice = model.code.lattice
    image, _ = strip_identity_terms(ungauge_hamiltonian(model.hamiltonian, model.setup))
    rep = components(image)
    assert rep.count == 2
    for other in sorted(set("abc") - {color}):
        pair_lattice = color_pair_sublattice(lattice, {other, color})
        reference = toric_code_from_complex(pair_lattice, 1)
        correspondence = {q: pair_lattice.index(1, lattice.cells[1][e])
                          for q, e in enumerate(model.extra["sym_edges"])
                          if lattice.cells[1][e] in pair_lattice.cells[1]}
        comp = next(c for c in rep.components if set(c.qubits) == set(correspondence))
        assert match_against_builder(image, comp, reference, correspondence), other
        assert code_parameters(reference).k == 2, other


def test_match_negative_control(gcc_images):
    model = gcc_images["model"]
    lattice = model.code.lattice
    img, _ = strip_identity_terms(gcc_images["image_Z"])
    rep = components(img)
    classes = model.extra["edge_classes"]
    ab_qubits = frozenset(e for e, c in enumerate(classes) if c == "ab")
    comp = next(c for c in rep.components if c.qubits == ab_qubits)
    toric = build_toric(3, 2, 1)
    reference = CssSubsystemCode(
        "toric-z", toric.n, gauge_x=[], gauge_z=list(toric.stabilizer_z),
        stabilizer_x=[], stabilizer_z=list(toric.stabilizer_z),
        qubit_labels=toric.qubit_labels)
    ordered = sorted(ab_qubits)
    shifted = {e: toric.lattice.index(1, lattice.cells[1][nxt].removeprefix("ab:"))
               for e, nxt in zip(ordered, ordered[1:] + ordered[:1])}
    assert not match_against_builder(img, comp, reference, shifted)


def test_match_requires_bijection(gcc_images):
    img, _ = strip_identity_terms(gcc_images["image_Z"])
    rep = components(img)
    comp = rep.components[0]
    toric = build_toric(3, 2, 1)
    with pytest.raises(ValueError):
        match_against_builder(img, comp, toric, {})


def test_is_self_dual():
    assert is_self_dual(build_gcc(2))
    assert not is_self_dual(build_bacon_shor(3))
    assert not is_self_dual(build_toric(2, 3, 1))


def test_commuting_check_counterexample():
    h = Hamiltonian(2)
    h.add(Term("x", "J", PauliOp.x_op(2, [0])))
    h.add(Term("z", "J", PauliOp.z_op(2, [0])))
    assert not commuting_check(h)
    assert find_noncommuting_pair(h) == (0, 1)


@st.composite
def hamiltonians(draw):
    """Up to 10 random terms on up to 6 qubits; all X-type (commuting) when drawn so."""
    n = draw(st.integers(1, 6))
    x_only = draw(st.booleans())
    h = Hamiltonian(n)
    for i in range(draw(st.integers(0, 10))):
        x = draw(st.integers(0, (1 << n) - 1))
        z = 0 if x_only else draw(st.integers(0, (1 << n) - 1))
        h.add(Term(f"t{i}", "J", PauliOp(n, BitVec(n, x), BitVec(n, z))))
    return h


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hamiltonians())
def test_property_noncommuting_pair_matches_double_loop(h):
    pair = find_noncommuting_pair(h)
    assert pair == naive_noncommuting_pair(h.operators())
    assert commuting_check(h) == (pair is None)


@st.composite
def term_lists(draw):
    """Random terms on up to 12 qubits: identities, singletons and wider supports mixed."""
    n = draw(st.integers(1, 12))
    h = Hamiltonian(n)
    for i in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(("identity", "singleton", "any")))
        if shape == "identity":
            x = z = 0
        elif shape == "singleton":
            x = z = 1 << draw(st.integers(0, n - 1))
            x, z = draw(st.sampled_from(((x, 0), (0, z), (x, z))))
        else:
            x = draw(st.integers(0, (1 << n) - 1))
            z = draw(st.integers(0, (1 << n) - 1))
        h.add(Term(f"t{i}", "J", PauliOp(n, BitVec(n, x), BitVec(n, z))))
    return h


def _component_rows(h):
    return [(c.qubits, c.term_indices, list(c.weight_histogram.items()))
            for c in components(h).components]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(term_lists())
def test_property_components_match_rescan(h):
    assert _component_rows(h) == naive_components(h)
    assert components(h).count == len(naive_components(h))


def test_components_edge_cases_match_rescan(gcc_images):
    empty = Hamiltonian(4)
    identities = Hamiltonian(3, [Term(f"i{k}", "J", PauliOp(3, BitVec(3), BitVec(3))) for k in range(3)])
    paramagnet = Hamiltonian(5, [Term(f"x{q}", "J", PauliOp.x_op(5, [q])) for q in range(5)])
    assert components(empty).count == components(identities).count == 0
    assert components(paramagnet).sizes() == [1] * 5
    for h in (empty, identities, paramagnet,
              gcc_images["image_X"], gcc_images["image_Z"], gcc_images["image_Y"]):
        assert _component_rows(h) == naive_components(h)
