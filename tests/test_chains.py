import random

import pytest

from cssgauge.builders import build_bacon_shor, build_toric, build_toric_sphere
from cssgauge.catalog import _axis_loops
from cssgauge.chains import (
    ChainComplex,
    LabeledBasis,
    augment_with_logicals,
    css_logical_reps,
    homology_dim,
    validate,
)
from cssgauge.gf2 import BitMatrix, BitVec, rank
from cssgauge.lattice import octahedron_sphere


def octahedron_complex():
    oc = octahedron_sphere()
    return ChainComplex(
        [LabeledBasis("F", oc.cells[2]), LabeledBasis("E", oc.cells[1]),
         LabeledBasis("V", oc.cells[0])],
        [oc.boundary[2], oc.boundary[1]], orientation="boundary")


def test_validate_toric_complex():
    assert validate(build_toric(2, 3, 1).css_complex())
    assert validate(build_toric_sphere().css_complex())


def test_validate_detects_flipped_bit():
    c = build_toric_sphere().css_complex()
    d_x = c.maps[1]
    entries = set(d_x.entries)
    flipped = entries ^ {(0, 0)}
    broken = ChainComplex(c.spaces, [c.maps[0],
                                     BitMatrix.from_entries(d_x.rows, d_x.cols, flipped)],
                          orientation="css")
    assert not validate(broken)


def test_validate_empty_complex():
    assert validate(ChainComplex([], []))
    single = ChainComplex([LabeledBasis.indexed("q", 3)], [])
    assert validate(single)


def test_validate_invariant_under_basis_permutation():
    rng = random.Random(0)
    c = build_toric(2, 3, 1).css_complex()
    perm = list(range(len(c.spaces[1])))
    rng.shuffle(perm)
    d_z = c.maps[0]
    d_x = c.maps[1]
    d_z2 = BitMatrix.from_entries(d_z.rows, d_z.cols,
                                  [(perm[r], col) for r, col in d_z.entries])
    d_x2 = BitMatrix.from_entries(d_x.rows, d_x.cols,
                                  [(r, perm[col]) for r, col in d_x.entries])
    permuted = ChainComplex(c.spaces, [d_z2, d_x2], orientation="css")
    assert validate(permuted)


def test_homology_octahedron_sphere():
    c = octahedron_complex()
    assert homology_dim(c, 1) == 0        # edges: first homology of the sphere
    assert homology_dim(c, 2) == 1        # vertices: connected components
    assert homology_dim(c, 0) == 1        # faces: the enclosed volume class


def test_homology_torus_edges():
    c = build_toric(2, 3, 1).css_complex()
    assert homology_dim(c, 1) == 2


def test_homology_end_position():
    c = build_toric(2, 3, 1).css_complex()
    # Zero outgoing map at the last position: dim - rank(incoming).
    assert homology_dim(c, 2) == len(c.spaces[2]) - rank(c.maps[1])
    with pytest.raises(ValueError):
        homology_dim(c, 3)


def test_homology_bounds():
    for code in (build_toric(2, 3, 1), build_toric_sphere()):
        c = code.css_complex()
        for pos in range(3):
            h = homology_dim(c, pos)
            assert 0 <= h <= len(c.spaces[pos])


def dual_complex(c: ChainComplex) -> ChainComplex:
    """The CSS complex with X and Z swapped: its Z representatives are c's X ones."""
    return ChainComplex.css(c.d_x.transpose(), c.d_z.transpose(), c.spaces[1].labels)


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
        css_logical_reps(ChainComplex.css(d_z, d_x, ["q0", "q1"]))


def test_augment_torus_exact():
    code = build_toric(2, 3, 1)
    c = code.css_complex()
    augmented = augment_with_logicals(c, _axis_loops(code))
    assert validate(augmented)
    assert homology_dim(augmented, 1) == 0


def test_augment_with_image_element_keeps_rank():
    c = build_toric_sphere().css_complex()
    stab = c.maps[0].column(0)
    augmented = augment_with_logicals(c, [stab])
    assert rank(augmented.maps[0]) == rank(c.maps[0])
    # Kernel of d_x is untouched by construction.
    assert augmented.maps[1] == c.maps[1]


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


def test_ungauge_complex_validate():
    d_z = BitMatrix.from_columns(3, [BitVec.from_support(3, [0, 1])])
    d_x = BitMatrix.from_rows(3, [BitVec.from_support(3, [0, 1]),
                                  BitVec.from_support(3, [0, 1, 2])])
    spaces = [LabeledBasis.indexed("Z", 1), LabeledBasis.indexed("q", 3),
              LabeledBasis.indexed("X", 2)]
    # Left kernel of d_x is empty here, so no relations.
    uc = ChainComplex(spaces + [LabeledBasis.indexed("R", 0)],
                      [d_z, d_x, BitMatrix(0, 2, [])], orientation="ungauge")
    assert validate(uc)
    bad = ChainComplex(spaces + [LabeledBasis.indexed("R", 1)],
                       [d_z, d_x, BitMatrix(1, 2, [0b01])], orientation="ungauge")
    assert not validate(bad)


def test_chain_complex_to_json():
    c = build_toric_sphere().css_complex()
    data = c.to_json()
    assert validate(c)
    assert data["maps"] == [c.d_z.to_json(), c.d_x.to_json()]
    assert [s["labels"] for s in data["spaces"]] == [list(s.labels) for s in c.spaces]
    assert data["orientation"] == "css"
