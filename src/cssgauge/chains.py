"""The CSS code complex over GF(2): Z-checks -> qubits -> X-checks.

``CssComplex`` holds the two maps of a CSS code: the columns of ``d_z``
(n x mz) are the Z-check supports and the rows of ``d_x`` (mx x n) the
X-check supports, so every X check commutes with every Z check exactly
when d_x·d_z = 0.  ``CssSubsystemCode.css_complex`` builds it from a
code's stabilizers, and ``augment_with_logicals`` appends logical-Z
columns to its ``d_z``.  The ungauging sequence
``Z-syms -> qubits -> X-gens -> relations`` is not built as a complex:
``ungauge.UngaugeSetup`` holds its ``d_z``, ``d_x`` and ``d_r`` directly.
"""

from __future__ import annotations

from typing import Sequence

from .gf2 import BitMatrix, BitVec, Echelon, is_zero_product, kernel_basis, rank


class CssComplex:
    """The complex Z-checks -> qubits -> X-checks of ``d_z`` (n x mz) and ``d_x`` (mx x n).

    Raises ``ValueError`` unless d_z's rows, d_x's columns and the qubit
    labels all count the same n qubits.
    """

    def __init__(self, d_z: BitMatrix, d_x: BitMatrix, qubit_labels: Sequence[str]):
        self.qubit_labels = tuple(qubit_labels)
        if not d_z.rows == d_x.cols == len(self.qubit_labels):
            raise ValueError("d_z rows, d_x cols and the qubit labels must count the same qubits")
        self.d_z = d_z
        self.d_x = d_x

    def to_json(self) -> dict:
        spaces = (("Z", [f"Z{i}" for i in range(self.d_z.cols)]),
                  ("Q", list(self.qubit_labels)),
                  ("X", [f"X{i}" for i in range(self.d_x.rows)]))
        return {
            "spaces": [{"name": name, "labels": labels} for name, labels in spaces],
            "maps": [self.d_z.to_json(), self.d_x.to_json()],
            "orientation": "css",
        }

    def __repr__(self):
        return f"CssComplex(Z[{self.d_z.cols}] -> Q[{self.d_z.rows}] -> X[{self.d_x.rows}])"


def qubit_homology_dim(c: CssComplex) -> int:
    """dim ker d_x - rank d_z = n - rank d_x - rank d_z: the logical qubits, or 0 when exact."""
    return c.d_z.rows - rank(c.d_x) - rank(c.d_z.transpose())


def _coset_representatives(kernel: BitMatrix, image_gens: BitMatrix) -> list[BitVec]:
    """Rows of ``kernel`` that extend the row space of ``image_gens``, greedily in order."""
    span = Echelon((image_gens.row_bits(i) for i in range(image_gens.rows)), combos=False)
    return [kernel.row(i) for i in range(kernel.rows) if span.add(kernel.row_bits(i))]


def css_logical_reps(c: CssComplex) -> list[BitVec]:
    """Coset representatives of the logical Z operators of a CSS complex.

    Returns elements of ker d_x modulo the column space of d_z, greedily
    in kernel-basis order.  The X representatives are those of the dual
    complex ``CssComplex(d_x^T, d_z^T, labels)``.  Raises
    ``AssertionError`` unless d_x d_z = 0.
    """
    if not is_zero_product(c.d_x, c.d_z):
        raise AssertionError("d_x d_z != 0; complex is inconsistent")
    return _coset_representatives(kernel_basis(c.d_x), c.d_z.transpose())


def augment_with_logicals(c: CssComplex, z_reps: Sequence[BitVec]) -> CssComplex:
    """Extend d_z by logical-Z columns so the complex becomes exact at the qubits.

    Representatives with a nonzero syndrome (not in ker d_x) are rejected.
    """
    for i, v in enumerate(z_reps):
        if not c.d_x.mul_vec(v).is_zero():
            raise ValueError(f"representative {i} has a nonzero syndrome")
    return CssComplex(c.d_z.augment_columns(z_reps), c.d_x, c.qubit_labels)
