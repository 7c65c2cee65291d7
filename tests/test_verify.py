"""The dense oracle of criterion 12 against the naive matrices of ``tests.oracles``,
and faults injected into the symplectic engine that it must catch."""

import random

import numpy as np
import pytest

from cssgauge import verify
from cssgauge.pauli import PauliOp, conjugate_by_circuit, multiply
from tests.oracles import conjugate_dense, pauli_matrix


def _draws(seed, count=60):
    """Fixed-seed random Pauli pairs and circuits on 1 to 6 qubits."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        p, q = verify._random_pauli(n, rng), verify._random_pauli(n, rng)
        yield p, q, verify._random_circuit(n, rng.randint(1, 6), rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_pauli_and_product_are_exact(seed):
    for p, q, _ in _draws(seed):
        assert np.array_equal(verify._dense_pauli(p), pauli_matrix(p))
        assert np.array_equal(verify._dense_product(p, q), pauli_matrix(p) @ pauli_matrix(q))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_conjugate_matches_full_unitary(seed):
    for p, _, circ in _draws(seed):
        assert np.allclose(verify._dense_conjugate(p, circ), conjugate_dense(p, circ))


def _phase_shifted(engine_map):
    def shifted(*args):
        r = engine_map(*args)
        return PauliOp(r.n, r.x, r.z, r.phase + 2)
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
