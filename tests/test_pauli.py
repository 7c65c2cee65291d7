import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssgauge.builders import build_bacon_shor
from cssgauge.pauli import (
    CliffordCircuit,
    GroupMembership,
    Hamiltonian,
    PauliOp,
    Term,
    conjugate_by_circuit,
    group_rank,
    in_group,
    multiply,
    product_phase,
    symplectic_product,
    transversal_hadamard,
    transversal_hadamard_hamiltonian,
)
from cssgauge.gf2 import BitVec

from tests.oracles import (
    center_of_group,
    conjugate_dense,
    gate_by_gate_conjugate,
    gauge_ops,
    hadamard_layer,
    naive_rank,
    pauli_matrix,
)


def random_pauli(n, rng):
    return PauliOp(n, BitVec(n, rng.getrandbits(n)), BitVec(n, rng.getrandbits(n)),
                   rng.randrange(4))


def random_circuit(n, depth, rng):
    """``depth`` CZ gates on random ordered pairs, repeats allowed; empty when n = 1."""
    if n < 2:
        return CliffordCircuit(n)
    return CliffordCircuit.cz_pairs(n, [rng.sample(range(n), 2) for _ in range(depth)])


# -- symplectic product --------------------------------------------------


def test_symplectic_single_qubit():
    assert symplectic_product(PauliOp.x_op(2, [1]), PauliOp.z_op(2, [1])) == 1


def test_symplectic_odd_overlap():
    assert symplectic_product(PauliOp.x_op(4, [1, 2]), PauliOp.z_op(4, [2, 3])) == 1


def test_symplectic_even_overlap():
    assert symplectic_product(PauliOp.x_op(3, [1, 2]), PauliOp.z_op(3, [1, 2])) == 0


def test_symplectic_symmetric_bilinear():
    rng = random.Random(1)
    for _ in range(50):
        p, q, r = (random_pauli(6, rng) for _ in range(3))
        assert symplectic_product(p, q) == symplectic_product(q, p)
        qr = multiply(q, r)
        assert (symplectic_product(p, qr)
                == (symplectic_product(p, q) + symplectic_product(p, r)) % 2)


# -- multiplication --------------------------------------------------------


def test_multiply_x_times_z():
    p = multiply(PauliOp.x_op(1, [0]), PauliOp.z_op(1, [0]))
    assert (p.x.support, p.z.support, p.phase) == ((0,), (0,), 0)
    assert np.allclose(pauli_matrix(p), pauli_matrix(PauliOp.x_op(1, [0])) @ pauli_matrix(PauliOp.z_op(1, [0])))


def test_multiply_identity():
    rng = random.Random(2)
    p = random_pauli(5, rng)
    identity = PauliOp(5, BitVec(5), BitVec(5))
    assert multiply(p, identity) == p
    assert multiply(identity, p) == p


def test_multiply_xz_zx_two_qubits():
    p = PauliOp(2, BitVec.from_support(2, [0]), BitVec.from_support(2, [1]))     # X_0 Z_1
    q = PauliOp(2, BitVec.from_support(2, [1]), BitVec.from_support(2, [0]))     # Z_0 X_1
    prod = multiply(p, q)
    assert np.allclose(pauli_matrix(prod), pauli_matrix(p) @ pauli_matrix(q))
    assert np.allclose(pauli_matrix(prod), pauli_matrix(PauliOp.y_op(2, [0, 1])))


def test_multiply_against_dense_randomized():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        assert np.allclose(pauli_matrix(multiply(p, q)), pauli_matrix(p) @ pauli_matrix(q))


def test_multiply_associative():
    rng = random.Random(4)
    for _ in range(40):
        p, q, r = (random_pauli(4, rng) for _ in range(3))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


def test_square_is_plus_minus_identity():
    rng = random.Random(5)
    for _ in range(30):
        p = random_pauli(4, rng)
        sq = multiply(p, p)
        assert sq.x.is_zero() and sq.z.is_zero() and sq.phase in (0, 2)
    y = PauliOp.y_op(3, [0, 2])
    assert multiply(y, y) == PauliOp(3, BitVec(3), BitVec(3))


# -- conjugation ------------------------------------------------------------


def test_cz_on_x_tensor_i():
    circ = CliffordCircuit(2, [("CZ", 0, 1)])
    img = conjugate_by_circuit(PauliOp.x_op(2, [0]), circ)
    assert img == PauliOp(2, BitVec.from_support(2, [0]), BitVec.from_support(2, [1]))


def test_cz_fixes_z_type():
    circ = CliffordCircuit(2, [("CZ", 0, 1)])
    zz = PauliOp.z_op(2, [0, 1])
    assert conjugate_by_circuit(zz, circ) == zz


def test_cz_on_x_tensor_x():
    circ = CliffordCircuit(2, [("CZ", 0, 1)])
    img = conjugate_by_circuit(PauliOp.x_op(2, [0, 1]), circ)
    assert np.allclose(pauli_matrix(img), conjugate_dense(PauliOp.x_op(2, [0, 1]), circ))
    assert img == PauliOp.y_op(2, [0, 1])


def test_hadamard_rules():
    x, z, y = PauliOp.x_op(1, [0]), PauliOp.z_op(1, [0]), PauliOp.y_op(1, [0])
    assert transversal_hadamard(x) == z
    assert transversal_hadamard(z) == x
    assert np.allclose(pauli_matrix(transversal_hadamard(y)), -pauli_matrix(y))
    for p in (x, z, y):
        assert np.allclose(pauli_matrix(transversal_hadamard(p)),
                           conjugate_dense(p, hadamard_layer(1)))


def test_conjugation_against_dense_randomized():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 5)
        p = random_pauli(n, rng)
        circ = random_circuit(n, rng.randint(1, 8), rng)
        assert np.allclose(pauli_matrix(conjugate_by_circuit(p, circ)),
                           conjugate_dense(p, circ))


def test_conjugation_preserves_symplectic():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 7)
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        circ = random_circuit(n, 10, rng)
        assert symplectic_product(p, q) == symplectic_product(
            conjugate_by_circuit(p, circ), conjugate_by_circuit(q, circ))


def test_circuit_inverse_roundtrip():
    rng = random.Random(8)
    circ = random_circuit(5, 12, rng)
    p = random_pauli(5, rng)
    # CZ is self-inverse, so the reversed circuit is the inverse.
    reverse = CliffordCircuit(circ.n, reversed(circ.gates))
    assert conjugate_by_circuit(conjugate_by_circuit(p, circ), reverse) == p


def test_an_operator_no_gate_meets_is_its_own_image():
    circ = CliffordCircuit.cz_pairs(5, [(0, 1), (1, 2)])
    z_only = PauliOp(5, BitVec(5), BitVec(5, 0b10111), 3)
    away = PauliOp(5, BitVec.from_support(5, [3, 4]), BitVec.from_support(5, [0, 4]), 1)
    for p in (z_only, away):
        assert conjugate_by_circuit(p, circ) is p
    on_gate = PauliOp.x_op(5, [2, 4])
    image = conjugate_by_circuit(on_gate, circ)
    assert image is not on_gate and image == PauliOp(5, on_gate.x, BitVec.from_support(5, [1]))


def test_a_cz_listed_twice_is_the_identity_but_builds_a_new_operator():
    circ = CliffordCircuit.cz_pairs(3, [(0, 2), (2, 0)])
    for p in (PauliOp.x_op(3, [0]), PauliOp.y_op(3, [0, 2]), PauliOp.x_op(3, [1, 2])):
        image = conjugate_by_circuit(p, circ)
        assert image == p and image is not p


def test_product_phase_is_the_phase_of_the_product():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(1, 6)
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        assert product_phase(p, q) == multiply(p, q).phase


def test_transversal_hadamard_matches_circuit():
    rng = random.Random(9)
    layer = hadamard_layer(4)
    for _ in range(20):
        p = random_pauli(4, rng)
        image = transversal_hadamard(p)
        assert (image.x.bits, image.z.bits, image.phase) == gate_by_gate_conjugate(p, layer)
        assert np.allclose(pauli_matrix(image), conjugate_dense(p, layer))


def test_transversal_hadamard_hamiltonian_swaps_the_combo_keys():
    x, z = BitVec(3, 0b101), BitVec(3, 0b011)
    p = PauliOp(3, x, z, x.overlap(z))
    h = Hamiltonian(3, [Term("a", "J", p, x_combo=x, z_combo=z),
                        Term("b", "K", p, z_combo=z),
                        Term("c", "K", p)])
    a, b, c = transversal_hadamard_hamiltonian(h)
    assert (a.x_combo, a.z_combo) == (z, x)
    assert (b.x_combo, b.z_combo) == (z, None) and (c.x_combo, c.z_combo) == (None, None)
    assert [(t.name, t.coupling, t.op) for t in (a, b, c)] == [
        (name, coupling, transversal_hadamard(p)) for name, coupling in
        (("a", "J"), ("b", "K"), ("c", "K"))]


def test_term_provenance_is_keyword_only():
    # A misspelt or positional combo raises instead of being dropped, which
    # would leave the duality maps to solve for a preimage of their own.
    p, combo = PauliOp.x_op(2, [0]), BitVec(2, 1)
    assert Term.__slots__ == ("name", "coupling", "op", "x_combo", "z_combo")
    for bad in ({"xcombo": combo}, {"meta": {"x_combo": combo}}):
        with pytest.raises(TypeError):
            Term("a", "J", p, **bad)
    with pytest.raises(TypeError):
        Term("a", "J", p, combo)


VALUE_TYPES = pytest.mark.parametrize("value,attributes", [
    (PauliOp(2, BitVec(2, 1), BitVec(2, 2), 1), ["n", "x", "z", "phase", "extra"]),
    (CliffordCircuit(3, [("CZ", 0, 1)]), ["n", "gates", "_partners", "extra"]),
], ids=["PauliOp", "CliffordCircuit"])


@VALUE_TYPES
def test_value_types_refuse_assignment(value, attributes):
    before = repr(value)
    for attribute in attributes:
        with pytest.raises(AttributeError, match=rf"^{type(value).__name__} is immutable$"):
            setattr(value, attribute, 0)
    assert repr(value) == before


@VALUE_TYPES
def test_value_types_refuse_deletion(value, attributes):
    # A deleted slot would leave an object that == and repr fail on.
    before = repr(value)
    for attribute in attributes:
        with pytest.raises(AttributeError, match=rf"^{type(value).__name__} is immutable$"):
            delattr(value, attribute)
    assert repr(value) == before


def test_pauli_op_rejects_a_length_mismatch():
    assert PauliOp(3, BitVec(3), BitVec(3), 7).phase == 3
    for x, z in ((BitVec(2), BitVec(3)), (BitVec(3), BitVec(4)), (BitVec(4), BitVec(4))):
        with pytest.raises(ValueError, match="^x/z support length must equal qubit count$"):
            PauliOp(3, x, z)


def test_circuit_validation():
    with pytest.raises(ValueError):
        CliffordCircuit(2, [("CZ", 0, 0)])
    with pytest.raises(ValueError):
        CliffordCircuit(2, [("CZ", 0, 2)])
    with pytest.raises(ValueError, match="unsupported gate 'H'"):
        CliffordCircuit(2, [("H", 0)])
    with pytest.raises(ValueError, match="unsupported gate 'SWAP'"):
        CliffordCircuit(2, [("SWAP", 0, 1)])


def test_circuit_rejects_non_integer_qubits():
    with pytest.raises(ValueError, match="not an integer"):
        CliffordCircuit(3, [("CZ", 1.0, 2)])
    with pytest.raises(ValueError, match="not an integer"):
        CliffordCircuit(3, [("CZ", 0, 2.0)])
    circ = CliffordCircuit(3, [("CZ", 1, np.int64(0)), ("CZ", np.int64(0), 2)])
    assert circ.gates == (("CZ", 1, 0), ("CZ", 0, 2))
    assert all(type(q) is int for g in circ.gates for q in g[1:])


@st.composite
def conjugations(draw):
    """A CZ circuit on n <= 8 qubits (maybe empty) and Paulis with any phase.

    Some of the drawn pairs are listed again, either way round, at
    random places, so a pair's two gates must cancel.
    """
    n = draw(st.integers(1, 8))
    pairs = []
    if n >= 2:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        pairs = draw(st.lists(pair.map(tuple), max_size=8))
    if pairs:
        again = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=4))
        pairs += [(b, a) if flip else (a, b) for (a, b), flip in again]
    circuit = CliffordCircuit.cz_pairs(n, draw(st.permutations(pairs)))
    mask = st.integers(0, (1 << n) - 1)
    ops = draw(st.lists(st.builds(lambda x, z, ph: PauliOp(n, BitVec(n, x), BitVec(n, z), ph),
                                  mask, mask, st.integers(0, 3)), min_size=1, max_size=4))
    return circuit, ops


@settings(derandomize=True, max_examples=200, deadline=None)
@given(conjugations())
def test_property_conjugation_matches_gate_by_gate(case):
    circuit, ops = case
    for p in ops:
        img = conjugate_by_circuit(p, circuit)
        assert (img.x.bits, img.z.bits, img.phase) == gate_by_gate_conjugate(p, circuit)


# -- group queries -----------------------------------------------------------


def test_group_rank_basic():
    assert group_rank([PauliOp.x_op(2, [1]), PauliOp.z_op(2, [1])]) == 2
    gens = [PauliOp.x_op(3, [0, 1]), PauliOp.x_op(3, [1, 2]), PauliOp.x_op(3, [0, 2])]
    assert group_rank(gens) == 2


def test_bacon_shor_gauge_rank():
    code = build_bacon_shor(3)
    ops = gauge_ops(code)
    # Independent oracle: dense elimination on the 18x18 symplectic rows.
    rows = [[op.symplectic_row().get(j) for j in range(18)] for op in ops]
    assert naive_rank(rows) == 12
    assert group_rank(ops) == 12


def test_center_abelian_input():
    gens = [PauliOp.x_op(3, [0, 1]), PauliOp.x_op(3, [1, 2])]
    center = center_of_group(gens)
    assert group_rank(center) == group_rank(gens) == group_rank(center + gens)


def test_center_bacon_shor():
    code = build_bacon_shor(3)
    center = center_of_group(gauge_ops(code))
    assert group_rank(center) == 4
    stabs = code.stabilizer_ops()
    assert group_rank(stabs) == group_rank(stabs + center) == 4  # the two-column/two-row ops


def test_in_group_basics():
    gens = [PauliOp.x_op(3, [0, 1]), PauliOp.z_op(3, [2])]
    assert in_group(gens[0], gens)
    assert in_group(multiply(gens[0], gens[1]), gens)
    assert not in_group(PauliOp.x_op(3, [0]), gens)


def test_in_group_sign_tracking():
    gens = [PauliOp.x_op(3, [0, 1]), PauliOp.z_op(3, [1, 2])]
    elem = multiply(gens[0], gens[1])
    minus = PauliOp(3, elem.x, elem.z, (elem.phase + 2) % 4)
    assert in_group(elem, gens, track_sign=True)
    assert in_group(minus, gens)                      # support-only membership
    assert not in_group(minus, gens, track_sign=True)


def test_group_membership_matches_in_group():
    rng = random.Random(10)
    gens = [random_pauli(5, rng) for _ in range(6)]
    membership = GroupMembership(gens)
    for _ in range(30):
        p = random_pauli(5, rng)
        assert membership.contains(p) == in_group(p, gens)


def test_label_roundtrip():
    p = PauliOp(4, BitVec.from_support(4, [0, 1]), BitVec.from_support(4, [1, 2]), 3)
    assert p.to_label() == "-iXYZI"


