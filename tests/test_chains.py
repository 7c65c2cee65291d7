import random

import pytest

from cssgauge.builders import build_bacon_shor, build_toric, build_toric_sphere
from cssgauge.catalog import axis_loops
from cssgauge.chains import (
    CssComplex,
    augment_with_logicals,
    css_logical_reps,
    qubit_homology_dim,
)
from cssgauge.gf2 import BitMatrix, BitVec, is_zero_product, rank
from cssgauge.lattice import octahedron_sphere

from tests.oracles import entry_matrix


def test_validate_toric_complex():
    for code in (build_toric(2, 3, 1), build_toric_sphere()):
        c = code.css_complex()
        assert is_zero_product(c.d_x, c.d_z)


def test_validate_detects_flipped_bit():
    c = build_toric_sphere().css_complex()
    d_x = c.d_x
    flipped = set(d_x.entries) ^ {(0, 0)}
    broken = CssComplex(c.d_z, entry_matrix(d_x.rows, d_x.cols, flipped),
                        c.qubit_labels)
    assert not is_zero_product(broken.d_x, broken.d_z)
    with pytest.raises(AssertionError):
        css_logical_reps(broken)


def test_validate_empty_complex():
    # No qubits and no checks: both maps are empty and the complex is exact.
    c = CssComplex(BitMatrix(0, 0, []), BitMatrix(0, 0, []), [])
    assert is_zero_product(c.d_x, c.d_z)
    assert qubit_homology_dim(c) == 0 and css_logical_reps(c) == []


def test_css_complex_rejects_mismatched_shapes():
    c = build_toric(2, 3, 1).css_complex()
    with pytest.raises(ValueError):
        CssComplex(c.d_z, c.d_x, c.qubit_labels[:-1])
    with pytest.raises(ValueError):
        CssComplex(c.d_z, c.d_x.transpose(), c.qubit_labels)   # d_x with mx columns


def test_validate_invariant_under_basis_permutation():
    rng = random.Random(0)
    c = build_toric(2, 3, 1).css_complex()
    perm = list(range(len(c.qubit_labels)))
    rng.shuffle(perm)
    d_z, d_x = c.d_z, c.d_x
    d_z2 = entry_matrix(d_z.rows, d_z.cols,
                         [(perm[r], col) for r, col in d_z.entries])
    d_x2 = entry_matrix(d_x.rows, d_x.cols,
                         [(r, perm[col]) for r, col in d_x.entries])
    assert is_zero_product(d_x2, d_z2)
    assert qubit_homology_dim(CssComplex(d_z2, d_x2, c.qubit_labels)) == 2


def test_homology_octahedron_sphere():
    # Faces -> edges -> vertices: the first homology of the sphere vanishes.
    oc = octahedron_sphere()
    c = CssComplex(oc.boundary[2], oc.boundary[1], oc.cells[1])
    assert qubit_homology_dim(c) == 0


def test_homology_torus_edges():
    c = build_toric(2, 3, 1).css_complex()
    assert qubit_homology_dim(c) == 2


def test_homology_bounds():
    # The homology at the qubits counts the logical Z classes.
    for code in (build_toric(2, 3, 1), build_toric(3, 2, 1), build_toric_sphere(),
                 build_bacon_shor(3)):
        c = code.css_complex()
        assert qubit_homology_dim(c) == len(css_logical_reps(c))


def dual_complex(c: CssComplex) -> CssComplex:
    """The CSS complex with X and Z swapped: its Z representatives are c's X ones."""
    return CssComplex(c.d_x.transpose(), c.d_z.transpose(), c.qubit_labels)


def test_css_logical_reps_torus():
    c = build_toric(2, 3, 1).css_complex()
    z_reps = css_logical_reps(c)
    x_reps = css_logical_reps(dual_complex(c))
    assert len(z_reps) == len(x_reps) == 2
    for rep in z_reps:
        assert c.d_x.mul_vec(rep).is_zero()   # zero syndrome
    for rep in x_reps:
        assert c.d_z.transpose().mul_vec(rep).is_zero()


def test_css_logical_reps_sphere():
    c = build_toric_sphere().css_complex()
    assert css_logical_reps(c) == [] and css_logical_reps(dual_complex(c)) == []


def test_css_logical_reps_rejects_inconsistent_complex():
    # One X check and one Z check, both on qubit 0: they anticommute, yet
    # each side has one logical class, so the Z and X counts agree.
    d_z = BitMatrix.from_columns(2, [BitVec.from_support(2, [0])])
    d_x = BitMatrix.from_rows(2, [BitVec.from_support(2, [0])])
    with pytest.raises(AssertionError):
        css_logical_reps(CssComplex(d_z, d_x, ["q0", "q1"]))


def test_augment_torus_exact():
    code = build_toric(2, 3, 1)
    c = code.css_complex()
    augmented = augment_with_logicals(c, axis_loops(code))
    assert is_zero_product(augmented.d_x, augmented.d_z)
    assert qubit_homology_dim(augmented) == 0


def test_augment_with_image_element_keeps_rank():
    c = build_toric_sphere().css_complex()
    stab = c.d_z.column(0)
    augmented = augment_with_logicals(c, [stab])
    assert augmented.d_z.cols == c.d_z.cols + 1
    assert rank(augmented.d_z) == rank(c.d_z)
    # Kernel of d_x is untouched by construction.
    assert augmented.d_x is c.d_x


def test_augment_rejects_nonzero_syndrome():
    c = build_toric(2, 3, 1).css_complex()
    with pytest.raises(ValueError):
        augment_with_logicals(c, [BitVec.from_support(18, [0])])


def test_bacon_shor_rows_generate_stabilizers():
    # All single-row logical-Z representatives span the two-row stabilizers
    # plus one extra class.
    code = build_bacon_shor(3)
    L = 3
    verts = code.metadata["h_edges"]
    vid = {v: i for i, v in enumerate(verts)}
    rows = [BitVec.from_support(9, [vid[(r, c)] for c in range(L)]) for r in range(L)]
    row_m = BitMatrix.from_columns(9, rows)
    stab_m = BitMatrix.from_columns(9, code.stabilizer_z)
    assert rank(row_m) == rank(stab_m) + 1
    assert rank(row_m.augment_columns(code.stabilizer_z)) == rank(row_m)


def test_chain_complex_to_json():
    # The sphere has 8 Z checks and 6 X checks, so a swapped label range shows.
    c = build_toric_sphere().css_complex()
    data = c.to_json()
    assert data["maps"] == [c.d_z.to_json(), c.d_x.to_json()]
    assert data["spaces"] == [
        {"name": "Z", "labels": [f"Z{i}" for i in range(8)]},
        {"name": "Q", "labels": list(c.qubit_labels)},
        {"name": "X", "labels": [f"X{i}" for i in range(6)]},
    ]
    assert data["orientation"] == "css"
