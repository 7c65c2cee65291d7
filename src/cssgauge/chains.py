"""Chain complexes with labeled bases over GF(2).

A complex is written in arrow order: ``spaces[0] -> spaces[1] -> ...``
with ``maps[i]`` the matrix of the arrow out of ``spaces[i]`` (shape
``dim spaces[i+1] x dim spaces[i]``).  Whether the arrows are geometric
boundaries, coboundaries or code maps is recorded in the free-form
``orientation`` tag; the math below only uses indices.

The package builds one shape: the CSS code complex
``[Z-checks, qubits, X-checks]`` with maps ``(d_z, d_x)``, from
``CssSubsystemCode.css_complex`` (``augment_with_logicals`` appends
logical-Z columns to its ``d_z``).  The ungauging sequence
``Z-syms -> qubits -> X-gens -> relations`` is not built as a complex:
``ungauge.UngaugeSetup`` holds its ``d_z``, ``d_x`` and ``d_r`` directly.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .gf2 import BitMatrix, BitVec, Echelon, is_zero_product, kernel_basis, rank


class LabeledBasis(NamedTuple):
    """A named basis of one space; its ``len`` is the dimension, the label count."""

    name: str
    labels: tuple[str, ...]

    def __len__(self):
        return len(self.labels)

    @classmethod
    def indexed(cls, name: str, size: int) -> "LabeledBasis":
        return cls(name, tuple(f"{name}{i}" for i in range(size)))


class ChainComplex:
    def __init__(self, spaces: Sequence[LabeledBasis], maps: Sequence[BitMatrix], orientation: str = "chain"):
        if len(maps) != len(spaces) - 1 and not (len(spaces) == 0 and len(maps) == 0):
            raise ValueError("need one map per consecutive pair of spaces")
        self.spaces = list(spaces)
        self.maps = list(maps)
        self.orientation = orientation

    @classmethod
    def css(cls, d_z: BitMatrix, d_x: BitMatrix,
            qubit_labels: Sequence[str]) -> "ChainComplex":
        """The three-term CSS complex: Z-checks -> qubits -> X-checks.

        Columns of d_z are Z-check supports; rows of d_x are X-check
        supports, so d_z is (n x mz) and d_x is (mx x n).
        """
        n = d_z.rows
        if d_x.cols != n:
            raise ValueError("d_z rows and d_x cols must both equal the qubit count")
        spaces = [
            LabeledBasis.indexed("Z", d_z.cols),
            LabeledBasis("Q", tuple(qubit_labels)),
            LabeledBasis.indexed("X", d_x.rows),
        ]
        return cls(spaces, [d_z, d_x], orientation="css")

    @property
    def d_z(self) -> BitMatrix:
        return self.maps[0]

    @property
    def d_x(self) -> BitMatrix:
        return self.maps[1]

    def dims_consistent(self) -> bool:
        for i, m in enumerate(self.maps):
            if m.cols != len(self.spaces[i]) or m.rows != len(self.spaces[i + 1]):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "spaces": [{"name": s.name, "labels": list(s.labels)} for s in self.spaces],
            "maps": [m.to_json() for m in self.maps],
            "orientation": self.orientation,
        }

    def __repr__(self):
        dims = " -> ".join(f"{s.name}[{len(s)}]" for s in self.spaces)
        return f"ChainComplex({dims}; {self.orientation})"


def validate(c: ChainComplex) -> bool:
    """All consecutive compositions vanish and dimensions are consistent."""
    if not c.dims_consistent():
        return False
    for a, b in zip(c.maps[1:], c.maps[:-1]):
        if not is_zero_product(a, b):
            return False
    return True


def homology_dim(c: ChainComplex, position: int) -> int:
    """dim ker(outgoing map) minus rank(incoming map) at a position."""
    if not 0 <= position < len(c.spaces):
        raise ValueError("position out of range")
    dim = len(c.spaces[position])
    if position < len(c.maps):
        out_rank = rank(c.maps[position])
    else:
        out_rank = 0
    in_rank = rank(c.maps[position - 1]) if position > 0 else 0
    return dim - out_rank - in_rank


def _coset_representatives(kernel: BitMatrix, image_gens: BitMatrix) -> list[BitVec]:
    """Rows of ``kernel`` that extend the row space of ``image_gens``, greedily in order."""
    span = Echelon(image_gens.row_bits(i) for i in range(image_gens.rows))
    return [kernel.row(i) for i in range(kernel.rows) if span.add(kernel.row_bits(i))]


def css_logical_reps(c: ChainComplex) -> list[BitVec]:
    """Coset representatives of the logical Z operators of a CSS complex.

    Returns elements of ker d_x modulo the column space of d_z, greedily
    in kernel-basis order.  The X representatives are those of the dual
    complex ``ChainComplex.css(d_x^T, d_z^T, labels)``.  Raises
    ``AssertionError`` unless d_x d_z = 0.
    """
    d_z, d_x = c.maps[0], c.maps[1]
    if not is_zero_product(d_x, d_z):
        raise AssertionError("d_x d_z != 0; complex is inconsistent")
    return _coset_representatives(kernel_basis(d_x), d_z.transpose())


def augment_with_logicals(c: ChainComplex, z_reps: Sequence[BitVec]) -> ChainComplex:
    """Extend d_z by logical-Z columns so the complex becomes exact at the qubits.

    Representatives with a nonzero syndrome (not in ker d_x) are rejected.
    """
    d_z, d_x = c.maps[0], c.maps[1]
    for i, v in enumerate(z_reps):
        if not d_x.mul_vec(v).is_zero():
            raise ValueError(f"representative {i} has a nonzero syndrome")
    d_z2 = d_z.augment_columns(z_reps)
    z_space = LabeledBasis(
        c.spaces[0].name,
        c.spaces[0].labels + tuple(f"logicalZ{i}" for i in range(len(z_reps))),
    )
    return ChainComplex([z_space, c.spaces[1], c.spaces[2]], [d_z2, d_x], orientation=c.orientation)
