"""The dense oracle of criterion 12 against the naive matrices of ``tests.oracles``,
and faults injected into the symplectic engine that it must catch.

The oracle returns a pair (k, M) meaning i^k M, M a real signed
permutation matrix held row-sliced as ``(cols, neg)``: bit r of
``cols[q]`` is qubit q's bit (bit n-1-q of an index) of the column of row
r's nonzero entry, and bit r of ``neg`` is set when that entry is -1."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cssgauge import catalog, verify
from cssgauge.gf2 import BitVec
from cssgauge.pauli import (
    CliffordCircuit,
    Hamiltonian,
    PauliOp,
    Term,
    conjugate_by_circuit,
    multiply,
)
from tests.oracles import conjugate_dense, pauli_matrix


def _draws(seed, count=60, lo=1, hi=6):
    """Fixed-seed random Pauli pairs and circuits on ``lo`` to ``hi`` qubits."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(lo, hi)
        p, q = verify._random_pauli(n, rng), verify._random_pauli(n, rng)
        yield p, q, verify._random_circuit(n, rng.randint(1, 6), rng)


def _expand(dense, n):
    """The complex 2^n x 2^n array i^k M of the oracle's ``(k, (cols, neg))``."""
    k, (cols, neg) = dense
    assert len(cols) == n and all(plane >> 2 ** n == 0 for plane in (*cols, neg))
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for r in range(2 ** n):
        c = sum((cols[q] >> r & 1) << (n - 1 - q) for q in range(n))
        out[r, c] = -1 if neg >> r & 1 else 1
    return (1j ** k) * out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_pauli_and_product_are_exact(seed):
    for p, q, _ in _draws(seed):
        assert np.array_equal(_expand(verify._dense_pauli(p), p.n), pauli_matrix(p))
        assert np.array_equal(_expand(verify._dense_product(p, q), p.n),
                              pauli_matrix(p) @ pauli_matrix(q))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_conjugate_matches_full_unitary(seed):
    for p, _, circ in _draws(seed):
        assert np.allclose(_expand(verify._dense_conjugate(p, circ), p.n),
                           conjugate_dense(p, circ))


# One battery case in ten draws n = 7..10; a full matrix product at n = 10
# costs about 0.1 s, so these take a few draws each.
@pytest.mark.parametrize("n,count", [(9, 3), (10, 2)])
def test_dense_pauli_and_product_are_exact_at_large_n(n, count):
    for p, q, _ in _draws(n, count, n, n):
        a, b = pauli_matrix(p), pauli_matrix(q)
        assert np.array_equal(_expand(verify._dense_pauli(p), n), a)
        assert np.array_equal(_expand(verify._dense_product(p, q), n), a @ b)


@pytest.mark.parametrize("n,count", [(7, 4), (8, 3)])
def test_dense_conjugate_matches_full_unitary_at_large_n(n, count):
    for p, _, circ in _draws(n, count, n, n):
        assert np.allclose(_expand(verify._dense_conjugate(p, circ), n),
                           conjugate_dense(p, circ))


@pytest.mark.parametrize("factor", [((1, 1), (1, -1)), ((1, 0), (0, 0)), ((2, 0), (0, 1))],
                         ids=["hadamard", "zero-row", "entry-2"])
def test_kron_rejects_a_factor_that_is_not_a_signed_permutation(factor):
    with pytest.raises(ValueError, match="not a signed permutation matrix"):
        verify._kron([((0, 1), (1, 0)), factor], 1)


def test_product_table_matches_numpy():
    table = verify._PRODUCTS
    assert set(table) == set(itertools.product((0, 1), repeat=4))
    for (xp, zp, xq, zq), product in table.items():
        a, b = np.array(verify._FACTORS[xp, zp]), np.array(verify._FACTORS[xq, zq])
        assert np.array_equal(np.array(product), a @ b)


def test_kron_caches_only_valid_factors(monkeypatch):
    monkeypatch.setattr(verify, "_READINGS", {})
    valid = list(verify._FACTORS.values())
    verify._kron(valid, 1)
    assert set(verify._READINGS) == set(valid)
    bad = ((1, 1), (1, -1))
    for _ in range(2):
        with pytest.raises(ValueError, match="not a signed permutation matrix"):
            verify._kron([*valid, bad], 1)
    with pytest.raises(ValueError, match="not a signed permutation matrix"):
        verify._kron([bad, bad], -1)
    assert set(verify._READINGS) == set(valid)


def test_dense_oracle_traced_peak(monkeypatch):
    # A first run fills the interpreter's tuple free lists, which tracemalloc
    # would count as live; a fresh table then puts building it in the peak.
    verify.check_dense_oracles(500)
    monkeypatch.setattr(verify, "_PLANES", {})
    tracemalloc.start()
    try:
        assert verify.check_dense_oracles(500).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100_000, peak


def _phase_shifted(engine_map, shift=2):
    def shifted(*args):
        r = engine_map(*args)
        return PauliOp(r.n, r.x, r.z, r.phase + shift)
    return shifted


@pytest.mark.parametrize("name,engine_map,side", [
    ("multiply", multiply, "multiplication"),
    ("conjugate_by_circuit", conjugate_by_circuit, "conjugation"),
])
def test_dense_oracle_catches_a_phase_fault(monkeypatch, name, engine_map, side):
    monkeypatch.setattr(verify, name, _phase_shifted(engine_map))
    result = verify.check_dense_oracles(cases=20)
    assert not result.passed
    assert result.details == f"{side} mismatch at case 0"


def test_dense_oracle_catches_a_dropped_gate(monkeypatch):
    def drop_last_gate(op, circuit):
        return conjugate_by_circuit(op, CliffordCircuit(circuit.n, circuit.gates[:-1]))

    monkeypatch.setattr(verify, "conjugate_by_circuit", drop_last_gate)
    result = verify.check_dense_oracles(cases=50)
    assert not result.passed
    assert result.details == "conjugation mismatch at case 3"


def _x_z_swapped(engine_map):
    def swapped(*args):
        r = engine_map(*args)
        return PauliOp(r.n, r.z, r.x, r.phase)
    return swapped


@pytest.mark.parametrize("fault", [lambda m: _phase_shifted(m, 1), _x_z_swapped],
                         ids=["phase+1", "xz-swap"])
@pytest.mark.parametrize("name,engine_map,side", [
    ("multiply", multiply, "multiplication"),
    ("conjugate_by_circuit", conjugate_by_circuit, "conjugation"),
])
def test_dense_oracle_catches_an_odd_phase_or_swap_fault(monkeypatch, fault, name,
                                                         engine_map, side):
    monkeypatch.setattr(verify, name, fault(engine_map))
    result = verify.check_dense_oracles(cases=20)
    assert not result.passed
    assert result.details == f"{side} mismatch at case 0"


def test_dense_oracle_covers_both_branches_of_the_conjugation(monkeypatch):
    # Random circuits leave some operators' X supports untouched, which are
    # returned as is, and meet others, which are walked; the battery checks both.
    returned_as_is = []

    def recorded(op, circuit):
        image = conjugate_by_circuit(op, circuit)
        returned_as_is.append(image is op)
        return image

    monkeypatch.setattr(verify, "conjugate_by_circuit", recorded)
    assert verify.check_dense_oracles().passed
    assert len(returned_as_is) == 500
    assert 0 < sum(returned_as_is) < 500


def test_transversal_cz_decoration_with_unequal_stabilizer_counts(monkeypatch):
    # The 3D toric code at L=2 has |S_X| = 8 and |S_Z| = 24, so each X
    # stabilizer's Z twin sits after all 24 base Z stabilizers in the tensor code.
    model = catalog.toric3d_model(2)
    assert (len(model.code.stabilizer_x), len(model.code.stabilizer_z)) == (8, 24)
    monkeypatch.setitem(verify._MODEL_CACHE, "worked", {**verify._models(), "toric-torus": model})
    result = verify.check_transversal_cz()
    assert result.passed, result.details

    # A forced mismatch names the model that was checked, not a fixed tag.
    def flip_sign(op, circuit):
        img = conjugate_by_circuit(op, circuit)
        return PauliOp(img.n, img.x, img.z, img.phase + 2)

    monkeypatch.setattr(verify, "conjugate_by_circuit", flip_sign)
    result = verify.check_transversal_cz()
    assert not result.passed
    assert result.details == ("fractal3d L=4: decoration pattern mismatch at generator 0; "
                              "toric3d L=2: decoration pattern mismatch at generator 0")


def _with_a_term_against_the_first(h: Hamiltonian) -> Hamiltonian:
    """``h`` plus a term "bad", one X on the first Z qubit of ``h``'s first term.

    The bad term anticommutes with the first term, and the terms of ``h``
    commute, so the first anticommuting pair in row-major order is
    (first term, bad).  It is a single-X term, as the disentangler needs."""
    n, q = h.n, h.terms[0].op.z.support[0]
    return Hamiltonian(n, [*h, Term("bad", "J", PauliOp(n, BitVec(n, 1 << q), BitVec(n)))])


def test_spt_pipeline_names_the_symmetry_against_a_wall_term(monkeypatch):
    pipeline = verify.spt_pipeline

    def spoiled(code, region):
        # One more symmetry: X on a decorated wall qubit, the first Z qubit
        # of the first wall term.
        res = pipeline(code, region)
        if code.name != "fractal3d":
            return res
        h = res.wall_hamiltonian
        x = PauliOp.x_op(h.n, h.terms[0].op.z.support[:1])
        return res._replace(symmetries=[*res.symmetries, x])

    monkeypatch.setattr(verify, "spt_pipeline", spoiled)
    result = verify.check_spt_pipeline()
    assert not result.passed
    assert result.details == ("fractal wall terms do not commute with restricted symmetries: "
                              "symmetry 8 anticommutes with SX[1]")


def test_gcc_phases_name_the_anticommuting_pair(monkeypatch):
    phases = catalog.gcc_phase_hamiltonians

    def spoiled(model):
        ph = phases(model)
        image, _ = verify.strip_identity_terms(ph["image_Y"])
        return {**ph, "image_Y": _with_a_term_against_the_first(image)}

    monkeypatch.setattr(catalog, "gcc_phase_hamiltonians", spoiled)
    result = verify.check_gcc_phases()
    assert not result.passed
    assert result.details == "RBH copy terms do not all commute: GY[0] anticommutes with bad"


def test_spt_pipeline_names_the_anticommuting_wall_pair(monkeypatch):
    pipeline = verify.spt_pipeline

    def spoiled(code, region):
        res = pipeline(code, region)
        if code.name != "fractal3d":
            return res
        return res._replace(wall_hamiltonian=_with_a_term_against_the_first(res.wall_hamiltonian))

    monkeypatch.setattr(verify, "spt_pipeline", spoiled)
    result = verify.check_spt_pipeline()
    assert not result.passed
    assert result.details == ("fractal wall terms do not commute: SX[1] anticommutes with bad; "
                              "no CZ disentangler for the fractal wall")
