import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from cssgauge.chains import _coset_representatives
from cssgauge.gf2 import (
    BitMatrix,
    BitVec,
    Echelon,
    LinearSolver,
    _mask_to_support,
    _xor_rows,
    is_zero_product,
    kernel_basis,
    rank,
    row_space_contains,
    solve,
)
from cssgauge.lattice import octahedron_sphere

from tests.oracles import (
    LowestBitEchelon,
    entry_matrix,
    matrix_rows,
    naive_matmul,
    naive_rank,
    row_parity_mul_vec,
)


def random_matrix(rng, rows, cols, density=0.4):
    entries = [(r, c) for r in range(rows) for c in range(cols) if rng.random() < density]
    return entry_matrix(rows, cols, entries)


def _identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, [1 << i for i in range(n)])


def _key(m: BitMatrix) -> tuple[int, int, list[int]]:
    """The shape and rows of ``m``: equal exactly when the matrices are."""
    return m.rows, m.cols, [m.row_bits(i) for i in range(m.rows)]


def test_bitvec_basics():
    v = BitVec.from_support(5, [0, 3])
    assert v.support == (0, 3)
    assert v.weight == 2
    assert (v ^ BitVec.from_support(5, [3, 4])).support == (0, 4)
    assert v.overlap(BitVec.from_support(5, [3])) == 1
    assert v.overlap(BitVec.from_support(5, [0, 3])) == 2
    with pytest.raises(ValueError):
        BitVec.from_support(3, [3])
    with pytest.raises(ValueError):
        v.overlap(BitVec(4))


def test_bitmatrix_basics():
    m = BitMatrix(2, 3, [0b101, 0b010])
    assert m.entries == ((0, 0), (0, 2), (1, 1))
    assert m.transpose().entries == ((0, 0), (1, 1), (2, 0))
    assert m.column(2).support == (0,)


VALUE_TYPES = pytest.mark.parametrize("value,attributes", [
    (BitVec(4, 5), ["length", "bits", "extra"]),
    (BitMatrix(2, 3, [1, 4]), ["rows", "cols", "_rows", "_cols", "_rref", "extra"]),
], ids=["BitVec", "BitMatrix"])


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


def test_bitvec_validation_boundaries():
    assert BitVec(5, (1 << 5) - 1).support == (0, 1, 2, 3, 4)  # bit_length == length
    assert BitVec(0).bits == 0
    for bits in (1 << 5, 1 << 9, -1):  # bit_length == length + 1, far out, negative
        with pytest.raises(ValueError, match="^support index out of range$"):
            BitVec(5, bits)
    with pytest.raises(ValueError, match="^support index out of range$"):
        BitVec(0, 1)
    with pytest.raises(ValueError, match="^negative length$"):
        BitVec(-1)


def test_bitmatrix_validation_boundaries():
    m = BitMatrix(3, 3, [0b111, 0b100, 0])  # a row exactly cols wide
    assert m.entries == ((0, 0), (0, 1), (0, 2), (1, 2))
    assert BitMatrix(0, 4, []).rows == 0
    for rows in ([0b1000, 0, 0], [0, 0, 0b1000], [1, -1, 0]):  # too wide, last too wide, negative
        with pytest.raises(ValueError, match="^entry column out of range$"):
            BitMatrix(3, 3, rows)
    for rows in ([1, 2], [1, 2, 4, 0]):
        with pytest.raises(ValueError, match="^row count mismatch$"):
            BitMatrix(3, 3, rows)
    with pytest.raises(ValueError, match="^negative dimension$"):
        BitMatrix(-1, 3, [])


def test_rank_identity():
    assert rank(_identity(3)) == 3


def test_rank_equal_rows():
    m = BitMatrix(2, 2, [0b11, 0b11])
    assert rank(m) == 1


def test_rank_against_naive_oracle():
    rng = random.Random(11)
    m = random_matrix(rng, 20, 30)
    assert rank(m) == naive_rank(matrix_rows(m))


def test_rank_transpose_randomized():
    rng = random.Random(5)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(0, 12), rng.randint(1, 12))
        assert rank(m) == rank(m.transpose())


def test_kernel_identity_trivial():
    assert kernel_basis(_identity(3)).rows == 0


def test_kernel_octahedron_vertex_edge():
    # Vertex-edge incidence of the octahedron: rank 5, kernel dimension 12 - 5 = 7.
    b1 = octahedron_sphere().boundary[1]
    assert naive_rank(matrix_rows(b1)) == 5
    k = kernel_basis(b1)
    assert k.rows == 7
    for i in range(k.rows):
        assert b1.mul_vec(k.row(i)).is_zero()


def test_kernel_single_parity_check():
    k = kernel_basis(BitMatrix(1, 3, [0b111]))
    assert k.rows == 2


def test_solve_identity():
    b = BitVec.from_support(4, [1, 3])
    assert solve(_identity(4), b) == b


def test_solve_outside_image():
    m = BitMatrix(2, 2, [0b01, 0b01])  # image spans only (1,1)
    assert solve(m, BitVec.from_support(2, [0])) is None


def test_solve_random_verified_and_canonical():
    rng = random.Random(23)
    m = random_matrix(rng, 15, 25)
    x = BitVec(25, rng.getrandbits(25))
    b = m.mul_vec(x)
    v = solve(m, b)
    assert v is not None
    assert m.mul_vec(v) == b
    # Canonical: rebuilding the same matrix gives the identical solution.
    m2 = entry_matrix(15, 25, m.entries)
    assert solve(m2, b) == v


def test_solve_rank_nullity_consistency():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 16))
        assert rank(m) + kernel_basis(m).rows == m.cols
        x = BitVec(m.cols, rng.getrandbits(m.cols))
        w = solve(m, m.mul_vec(x))
        assert w is not None and m.mul_vec(w) == m.mul_vec(x)


def test_naive_oracle_agreement_small():
    rng = random.Random(99)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 20), rng.randint(1, 64))
        assert rank(m) == naive_rank(matrix_rows(m))


def test_is_zero_product_boundary_of_boundary():
    oc = octahedron_sphere()
    assert is_zero_product(oc.boundary[1], oc.boundary[2])


def test_is_zero_product_identity():
    assert not is_zero_product(_identity(2), _identity(2))
    with pytest.raises(ValueError, match="^dimension mismatch in matrix product$"):
        is_zero_product(_identity(2), _identity(3))


def test_empty_matrices_are_legal():
    m = BitMatrix(0, 5, [])
    assert rank(m) == 0
    assert kernel_basis(m).rows == 5
    m2 = BitMatrix(5, 0, [0] * 5)
    assert rank(m2) == 0
    assert solve(m2, BitVec(5)) == BitVec(0)


def test_linear_solver_matches_solve():
    rng = random.Random(3)
    m = random_matrix(rng, 12, 18)
    solver = LinearSolver(m)
    for _ in range(30):
        if rng.random() < 0.5:
            b = m.mul_vec(BitVec(18, rng.getrandbits(18)))
        else:
            b = BitVec(12, rng.getrandbits(12))
        assert solver.solve(b) == solve(m, b)


def test_row_space_contains():
    m = BitMatrix(2, 4, [0b0011, 0b0110])
    assert row_space_contains(m, BitVec.from_support(4, [0, 2]))
    assert not row_space_contains(m, BitVec.from_support(4, [3]))


# -- properties of the echelon kernel on random small matrices -------------

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def matrices(draw, cols=None, rows=None):
    rows = draw(st.integers(0, 12)) if rows is None else rows
    cols = draw(st.integers(0, 12)) if cols is None else cols
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, bits)


@st.composite
def systems(draw):
    m = draw(matrices())
    return m, BitVec(m.rows, draw(st.integers(0, (1 << m.rows) - 1)))


def dense_columns(m):
    return [[m.row(i).get(j) for i in range(m.rows)] for j in range(m.cols)]


def pivot_columns(m):
    """Leftmost independent columns, found with the naive oracle."""
    cols = dense_columns(m)
    pivots = []
    for j in range(m.cols):
        if naive_rank(cols[: j + 1]) > len(pivots):
            pivots.append(j)
    return pivots


@PROPERTY
@given(matrices())
def test_property_rank_matches_oracle(m):
    assert rank(m) == naive_rank(matrix_rows(m))


@PROPERTY
@given(matrices())
def test_property_kernel_basis_canonical(m):
    k = kernel_basis(m)
    assert k.cols == m.cols and k.rows == m.cols - rank(m)
    pivots = pivot_columns(m)
    free = [j for j in range(m.cols) if j not in pivots]
    free_mask = sum(1 << j for j in free)
    assert [k.row_bits(i) & free_mask for i in range(k.rows)] == [1 << j for j in free]
    for i in range(k.rows):
        assert m.mul_vec(k.row(i)).is_zero()


@PROPERTY
@given(matrices().flatmap(lambda m: st.tuples(st.just(m), st.permutations(range(m.rows)))))
def test_property_kernel_basis_ignores_the_row_order(case):
    # The canonical relations depend on the column order only, so a
    # fill-reducing row (bit) order may be chosen freely.
    m, perm = case
    assert _key(kernel_basis(m.select_rows(perm))) == _key(kernel_basis(m))


@PROPERTY
@given(systems())
def test_property_solve_canonical(system):
    m, b = system
    cols = dense_columns(m)
    in_image = naive_rank(cols + [[b.get(i) for i in range(m.rows)]]) == naive_rank(cols)
    x = solve(m, b)
    assert (x is not None) == in_image
    if x is not None:
        assert m.mul_vec(x) == b
        assert set(x.support) <= set(pivot_columns(m))


@PROPERTY
@given(systems())
def test_property_linear_solver_matches_solve(system):
    m, b = system
    assert LinearSolver(m).solve(b) == solve(m, b)


@PROPERTY
@given(st.integers(0, 12).flatmap(
    lambda cols: st.tuples(matrices(cols=cols), matrices(cols=cols))))
def test_property_coset_representative_count(pair):
    image, candidates = pair
    reps = _coset_representatives(candidates, image)
    stacked = matrix_rows(image) + matrix_rows(candidates)
    assert len(reps) == naive_rank(stacked) - naive_rank(matrix_rows(image))
    with_reps = matrix_rows(image) + [[v.get(j) for j in range(v.length)] for v in reps]
    assert naive_rank(with_reps) == naive_rank(stacked)


@st.composite
def vector_sequences(draw):
    """Vectors up to 80 bits wide, and queries: XORs of some of them, then random vectors.

    Widths up to 16 make dependent vectors common among 20; wider ones
    span more than one 64-bit word.
    """
    full = (1 << draw(st.sampled_from([0, 1, 2, 5, 8, 16, 80]))) - 1
    vectors = draw(st.lists(st.integers(0, full), max_size=20))
    picks = draw(st.lists(st.integers(0, (1 << len(vectors)) - 1), max_size=4))
    queries = [_naive_xor(vectors, pick) for pick in picks]
    return vectors, queries + draw(st.lists(st.integers(0, full), max_size=4))


def _naive_xor(vectors, pick):
    acc = 0
    for i, v in enumerate(vectors):
        if pick >> i & 1:
            acc ^= v
    return acc


@PROPERTY
@given(vector_sequences())
def test_property_echelon_matches_the_lowest_bit_kernel(case):
    # Nothing read from an echelon depends on its pivot bit: whether a
    # vector enlarges the span depends on the insertion order alone, and
    # a vector in the span has one expansion over the independent added
    # vectors.  Only an out-of-span residual may differ, in value, not
    # in being nonzero.
    vectors, queries = case
    echelon, oracle = Echelon(), LowestBitEchelon()
    assert [echelon.add(v) for v in vectors] == [oracle.add(v) for v in vectors]
    assert echelon.relations == oracle.relations
    for q in vectors + queries:
        (residual, combo), (expected, expected_combo) = echelon.reduce(q), oracle.reduce(q)
        assert residual ^ _naive_xor(vectors, combo) == q
        assert (residual == 0) == (expected == 0)
        if not residual:
            assert combo == expected_combo


@PROPERTY
@given(vector_sequences())
def test_property_rows_only_echelon_matches_the_full_one(case):
    vectors, queries = case
    full, rows_only = Echelon(), Echelon(combos=False)
    assert [rows_only.add(v) for v in vectors] == [full.add(v) for v in vectors]
    assert len(rows_only) == len(full)
    assert rows_only.relations == []
    for q in vectors + queries:
        assert rows_only.reduce(q) == (full.reduce(q)[0], 0)


@PROPERTY
@given(st.integers(0, 80).flatmap(lambda width: st.tuples(
    st.integers(0, (1 << width) - 1), st.randoms(use_true_random=False))))
def test_property_bit_walks_match_naive_ones(case):
    bits, rng = case
    rows = [rng.getrandbits(70) for _ in range(bits.bit_length())]
    support = [j for j in range(bits.bit_length()) if bits >> j & 1]
    assert _mask_to_support(bits) == tuple(support)
    assert _xor_rows(bits, rows) == _naive_xor(rows, bits)


@PROPERTY
@given(st.tuples(st.integers(0, 20), st.integers(0, 70)).flatmap(
    lambda shape: matrices(rows=shape[0], cols=shape[1])))
def test_property_transpose_matches_the_entrywise_one(m):
    # Rows up to 70 bits wide span two 64-bit words.
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert matrix_rows(t) == dense_columns(m)


@st.composite
def products(draw):
    """A matrix up to 40 columns wide, vectors for it and vectors for its transpose.

    The widths cover every ``cols % 8``.  The vectors for the matrix have
    weights ``cols // 8`` and one more, besides all-ones, zero, single
    columns and random ones.
    """
    rows = draw(st.integers(0, 20))
    cols = draw(st.integers(0, 40))
    m = BitMatrix(rows, cols, draw(st.lists(st.integers(0, (1 << cols) - 1),
                                            min_size=rows, max_size=rows)))
    full = (1 << cols) - 1
    order = draw(st.permutations(range(cols)))
    vectors = [sum(1 << j for j in order[:w]) for w in (cols // 8, cols // 8 + 1)] + [full, 0]
    sparse = st.sampled_from([1 << j for j in range(cols)] or [0])
    vectors += draw(st.lists(st.one_of(sparse, st.integers(0, full)), max_size=3))
    left = draw(st.lists(st.integers(0, (1 << rows) - 1), min_size=1, max_size=3))
    return m, vectors, left + [(1 << rows) - 1]


@PROPERTY
@given(products())
def test_property_mul_vec_matches_row_parity(case):
    m, vectors, left = case
    unfilled = BitMatrix(m.rows, m.cols, [m.row_bits(i) for i in range(m.rows)])
    for bits in vectors + vectors:  # the second pass reads the filled column memo
        v = BitVec(m.cols, bits)
        assert m.mul_vec(v) == BitVec(m.rows, row_parity_mul_vec(unfilled, v))
    t = m.transpose()
    for bits in left:
        u = BitVec(m.rows, bits)
        assert t.mul_vec(u) == BitVec(m.cols, row_parity_mul_vec(t, u))
    assert _key(t.transpose()) == _key(m) == _key(unfilled)


@st.composite
def factor_pairs(draw):
    """Matrices A (n x k) and B (k x m), each dimension 0 to 12."""
    n, k, m = (draw(st.integers(0, 12)) for _ in range(3))
    return draw(matrices(rows=n, cols=k)), draw(matrices(rows=k, cols=m))


@PROPERTY
@given(factor_pairs())
@example((BitMatrix(0, 3, []), BitMatrix(3, 4, [0b1011, 0b0001, 0b0110])))
@example((BitMatrix(3, 0, [0, 0, 0]), BitMatrix(0, 4, [])))
@example((BitMatrix(2, 3, [0b101, 0b011]), BitMatrix(3, 0, [0, 0, 0])))
def test_property_matmul_matches_entrywise_product(pair):
    a, b = pair
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert matrix_rows(product) == naive_matmul(matrix_rows(a), matrix_rows(b), b.cols)


def test_dense_mul_vec_allocates_only_its_result():
    # A sparse 3024 x 2592 matrix (weight-4 rows) with its column memo built
    # first: an all-ones product then allocates only its running sum, so its
    # memory does not grow with the vector's weight.
    rng = random.Random(5)
    rows, cols = 3024, 2592
    m = BitMatrix(rows, cols, [sum(1 << j for j in rng.sample(range(cols), 4))
                               for _ in range(rows)])
    m.mul_vec(BitVec(cols, 1))
    ones = BitVec(cols, (1 << cols) - 1)
    tracemalloc.start()
    try:
        m.mul_vec(ones)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024
