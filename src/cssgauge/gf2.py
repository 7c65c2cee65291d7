"""Exact linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers (bit j of a row is
column j), which gives word-parallel XOR elimination for free while the
construction API stays sparse (sets of positions).  ``BitVec`` and
``BitMatrix`` are immutable: their ``__setattr__`` and ``__delattr__``
raise ``AttributeError``.  The constructors set each slot through its member
descriptor's setter, bound once at import (``_set_bits =
BitVec.bits.__set__``), so no call looks the slot up by name;
``BitMatrix`` fills its two memo slots the same way.  ``Echelon`` alone
is mutable.

``Echelon`` is the one elimination kernel: an incremental basis of the
span of the vectors added so far, each row keyed by its highest set bit
(its ``bit_length``, a small int) and carrying its combination of the
added vectors.  ``kernel_basis``, ``solve`` and ``LinearSolver`` read
the echelon of a matrix's columns, added in index order and memoised
per matrix.  ``rank`` eliminates a matrix's rows with ``combos=False``,
which keeps the rows alone, and memoises nothing.  Span membership and
coset questions elsewhere add rows to an ``Echelon`` of their own, rows
only where they read no combination.

Canonical conventions, relied on throughout the package:

* pivots are the leftmost independent columns,
* ``solve`` fixes all free variables to zero,
* ``kernel_basis`` enumerates free columns in ascending order.

Adding the columns in index order meets all three by construction: a
column enlarges the span exactly when it is independent of the columns
to its left, so the pivots are the leftmost independent columns; the
combination found for a right-hand side involves pivot columns only, so
it is the unique solution with every free variable zero; and each
dependent column yields, as it is added, the kernel vector supported on
itself and the pivots, in ascending column order.  These make kernel
bases, solutions and everything derived from them reproducible across
runs.  None of them depends on the pivot bit: see ``Echelon``.

Set bits are walked from the top in ``_mask_to_support``, ``_xor_rows``,
``BitMatrix.or_rows`` and ``BitMatrix.transpose``: ``bit_length`` finds
the highest and ``1 << top`` clears it, with no negated copy as
``v & -v`` makes.  ``_mask_to_support`` reverses once at the end, so
supports stay ascending.  ``row_support`` and ``or_rows`` read rows with
no ``BitVec`` built.

``BitMatrix.mul_vec`` and ``@`` share one walk, ``_xor_rows``: the sum
of the rows a bitmask selects.  ``mul_vec`` XORs the columns its vector
selects, read from the transpose's rows, which are memoised per matrix,
so it costs one XOR per set bit of the vector, never one parity per row.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def _mask_to_support(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        top = bits.bit_length() - 1
        out.append(top)
        bits ^= 1 << top
    out.reverse()
    return tuple(out)


def _xor_rows(bits: int, rows: Sequence[int]) -> int:
    """XOR of ``rows[j]`` over the set bits j of ``bits``."""
    acc = 0
    while bits:
        top = bits.bit_length() - 1
        acc ^= rows[top]
        bits ^= 1 << top
    return acc


class BitVec:
    """A vector over GF(2) with a fixed length.

    Immutable: assignment and deletion raise, and ``__init__`` sets
    ``length`` and ``bits`` through the setters ``_set_length`` and
    ``_set_bits``, bound once below the class.
    """

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int = 0):
        if length < 0:
            raise ValueError("negative length")
        if bits < 0 or bits.bit_length() > length:
            raise ValueError("support index out of range")
        _set_length(self, length)
        _set_bits(self, bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitVec is immutable")

    def __delattr__(self, name):
        raise AttributeError("BitVec is immutable")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVec":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise ValueError(f"support index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    @property
    def support(self) -> tuple[int, ...]:
        return _mask_to_support(self.bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise ValueError(f"index {i} out of range")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVec(self.length, self.bits ^ other.bits)

    def overlap(self, other: "BitVec") -> int:
        """Size of the common support (an integer, not mod 2)."""
        if self.length != other.length:
            raise ValueError("length mismatch")
        return (self.bits & other.bits).bit_count()

    def restrict(self, keep: "BitVec") -> "BitVec":
        """Zero out coordinates outside ``keep``."""
        if self.length != keep.length:
            raise ValueError("length mismatch")
        return BitVec(self.length, self.bits & keep.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec)
            and self.length == other.length
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.length, self.bits))

    def __repr__(self):
        return f"BitVec({self.length}, support={list(self.support)})"


_set_length = BitVec.length.__set__
_set_bits = BitVec.bits.__set__


class BitMatrix:
    """A matrix over GF(2); rows stored as integer bitmasks."""

    __slots__ = ("rows", "cols", "_rows", "_cols", "_rref")

    def __init__(self, rows: int, cols: int, row_bits: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        if len(row_bits) != rows:
            raise ValueError("row count mismatch")
        row_bits = tuple(row_bits)
        if row_bits and (min(row_bits) < 0 or max(row_bits).bit_length() > cols):
            raise ValueError("entry column out of range")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_row_bits(self, row_bits)
        _set_col_bits(self, None)
        _set_rref(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("BitMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rows(cls, cols: int, rows: Iterable[BitVec]) -> "BitMatrix":
        bits = []
        for r in rows:
            if r.length != cols:
                raise ValueError("row length mismatch")
            bits.append(r.bits)
        return cls(len(bits), cols, bits)

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[BitVec]) -> "BitMatrix":
        cols_list = []
        for c in columns:
            if c.length != rows:
                raise ValueError("column length mismatch")
            cols_list.append(c.bits)
        return cls(len(cols_list), rows, cols_list).transpose()

    # -- access ------------------------------------------------------

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self._rows[i])

    def row_bits(self, i: int) -> int:
        return self._rows[i]

    def row_support(self, i: int) -> tuple[int, ...]:
        """The columns set in row i, ascending, with no ``BitVec`` built."""
        return _mask_to_support(self._rows[i])

    def or_rows(self, bits: int) -> int:
        """The OR of the rows that the set bits of ``bits`` select: one row of a
        boolean product, the twin of ``_xor_rows``."""
        acc, rows = 0, self._rows
        while bits:
            top = bits.bit_length() - 1
            acc |= rows[top]
            bits ^= 1 << top
        return acc

    def column(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise ValueError("column out of range")
        bits = 0
        for i, r in enumerate(self._rows):
            bits |= ((r >> j) & 1) << i
        return BitVec(self.rows, bits)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i, r in enumerate(self._rows):
            for j in _mask_to_support(r):
                out.append((i, j))
        return tuple(out)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self._rows)

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    # -- algebra -----------------------------------------------------

    def transpose(self) -> "BitMatrix":
        """The transpose; it shares its row tuple with this matrix's column memo."""
        if self._cols is None:
            row_bits = [0] * self.cols
            for i, r in enumerate(self._rows):
                bit = 1 << i
                while r:
                    top = r.bit_length() - 1
                    row_bits[top] |= bit
                    r ^= 1 << top
            _set_col_bits(self, tuple(row_bits))
        t = BitMatrix(self.cols, self.rows, self._cols)
        _set_col_bits(t, self._rows)
        return t

    def _columns(self) -> tuple[int, ...]:
        """Column bitmasks (the transpose's rows), built once per matrix."""
        if self._cols is None:
            self.transpose()
        return self._cols

    def mul_vec(self, v: BitVec) -> BitVec:
        """M v over GF(2): the XOR of the columns in the support of v."""
        if v.length != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return BitVec(self.rows, _xor_rows(v.bits, self._columns()))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return BitMatrix(self.rows, other.cols, [_xor_rows(r, other._rows) for r in self._rows])

    def augment_columns(self, extra: Iterable[BitVec]) -> "BitMatrix":
        """Append extra columns (each a BitVec of length ``rows``)."""
        tail = BitMatrix.from_columns(self.rows, extra)
        return BitMatrix(self.rows, self.cols + tail.cols,
                         [r | (t << self.cols) for r, t in zip(self._rows, tail._rows)])

    def select_rows(self, indices: Sequence[int]) -> "BitMatrix":
        return BitMatrix(len(indices), self.cols, [self._rows[i] for i in indices])

    def _echelon(self) -> "Echelon":
        """The echelon of the columns, added in index order.

        Memoised for ``kernel_basis``, ``solve`` and ``LinearSolver``,
        which read it and never ``add`` to it.
        """
        if self._rref is None:
            _set_rref(self, Echelon(self._columns()))
        return self._rref

    # -- serialisation -----------------------------------------------

    def to_json(self) -> dict:
        entries = [[i, j] for i, r in enumerate(self._rows) for j in _mask_to_support(r)]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}


_set_rows = BitMatrix.rows.__set__
_set_cols = BitMatrix.cols.__set__
_set_row_bits = BitMatrix._rows.__set__
_set_col_bits = BitMatrix._cols.__set__
_set_rref = BitMatrix._rref.__set__


class Echelon:
    """Incremental echelon basis of the span of the vectors added so far.

    Vectors are bitmask integers.  ``rows`` maps the ``bit_length`` of
    each basis row (its highest set bit, plus one) to ``(row, combo)``,
    where bit i of ``combo`` stands for the i-th vector added; the highest
    bits are distinct, so a vector lies in the span exactly when reducing
    it by highest bit clears it.  The key is a small integer, cheap to
    hash, and finding it makes no big-int copy.  Each added vector that
    does not enlarge the span leaves its dependency (itself plus the
    combination producing it) in ``relations``.

    Nothing read from an echelon depends on which bit is the pivot:
    whether a vector enlarges the span depends on the insertion order
    alone, and the combination ``reduce`` returns for a vector in the
    span is its unique expansion over the independent added vectors.
    So ranks, ``add``'s answers, ``relations`` and solutions are the same
    under any pivot rule; only the residual of a vector outside the span
    depends on it, and callers read only whether it is zero.

    ``combos=False`` keeps the rows only, for callers that read a rank or
    ``add``'s answer: every combo is then 0 and ``relations`` stays empty.
    """

    __slots__ = ("rows", "added", "relations", "combos")

    def __init__(self, vectors: Iterable[int] = (), combos: bool = True):
        self.rows: dict[int, tuple[int, int]] = {}
        self.added = 0
        self.relations: list[int] = []
        self.combos = combos
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> tuple[int, int]:
        """(residual, combo): v is the residual plus the combo's vectors.

        The residual is zero exactly when v lies in the span.
        """
        rows = self.rows
        combo = 0
        while v:
            hit = rows.get(v.bit_length())
            if hit is None:
                break
            v ^= hit[0]
            combo ^= hit[1]
        return v, combo

    def add(self, v: int) -> bool:
        """Add the next vector; True when it enlarged the span."""
        residual, combo = self.reduce(v)
        if self.combos:
            combo ^= 1 << self.added
        self.added += 1
        if residual:
            self.rows[residual.bit_length()] = (residual, combo)
            return True
        if self.combos:
            self.relations.append(combo)
        return False


def rank(m: BitMatrix) -> int:
    """GF(2) rank: one rows-only elimination of the rows, kept by nothing."""
    return len(Echelon(m._rows, combos=False))


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Rows form a canonical basis of the right kernel {v : M v = 0}."""
    relations = m._echelon().relations
    return BitMatrix(len(relations), m.cols, relations)


def solve(m: BitMatrix, b: BitVec) -> Optional[BitVec]:
    """Canonical solution of M x = b, or None when b is not in the image.

    Deterministic: leftmost pivots, free variables zero.  The returned
    solution is the unique one supported on pivot columns.
    """
    if b.length != m.rows:
        raise ValueError("right-hand side length mismatch")
    residual, combo = m._echelon().reduce(b.bits)
    return None if residual else BitVec(m.cols, combo)


class LinearSolver:
    """Reusable canonical solver for M x = b with many right-hand sides.

    Builds the matrix's echelon once; each solve is then one reduction.
    Solutions match ``solve`` exactly, which reads the same echelon.
    """

    def __init__(self, m: BitMatrix):
        self.m = m
        m._echelon()

    def solve(self, b: BitVec) -> Optional[BitVec]:
        return solve(self.m, b)


def is_zero_product(a: BitMatrix, b: BitMatrix) -> bool:
    """True iff A B = 0 over GF(2)."""
    return (a @ b).is_zero()


def row_space_contains(m: BitMatrix, v: BitVec) -> bool:
    """True iff v lies in the span of the rows of M."""
    if v.length != m.cols:
        raise ValueError("length mismatch")
    return not Echelon(m._rows).reduce(v.bits)[0]
