"""CSS subsystem codes: gauge generators, stabilizers and Hamiltonians.

A stabilizer code is the abelian special case (gauge group = stabilizer
group).  Stabilizer generators may be supplied geometrically by a
builder; ``derived_center`` recomputes them from the gauge group so
tests can certify the two agree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .chains import ChainComplex
from .gf2 import BitMatrix, BitVec, is_zero_product, rank
from .lattice import CellComplex
from .pauli import Hamiltonian, PauliOp, Term, center_of_group, group_rank


class CssSubsystemCode:
    def __init__(self, name: str, n: int,
                 gauge_x: Sequence[BitVec], gauge_z: Sequence[BitVec],
                 stabilizer_x: Optional[Sequence[BitVec]] = None,
                 stabilizer_z: Optional[Sequence[BitVec]] = None,
                 qubit_labels: Optional[Sequence[str]] = None,
                 lattice: Optional[CellComplex] = None,
                 metadata: Optional[dict] = None):
        self.name = name
        self.n = n
        self.gauge_x = list(gauge_x)
        self.gauge_z = list(gauge_z)
        for v in self.gauge_x + self.gauge_z:
            if v.length != n:
                raise ValueError("gauge support length mismatch")
        if stabilizer_x is None and stabilizer_z is None and self.is_stabilizer_code():
            stabilizer_x, stabilizer_z = self.gauge_x, self.gauge_z
        self.stabilizer_x = list(stabilizer_x or [])
        self.stabilizer_z = list(stabilizer_z or [])
        self.qubit_labels = tuple(qubit_labels) if qubit_labels else tuple(f"q{i}" for i in range(n))
        if len(self.qubit_labels) != n:
            raise ValueError("qubit label count mismatch")
        self.lattice = lattice
        self.metadata = dict(metadata) if metadata else {}
        self._check_css()

    def _check_css(self):
        if not is_zero_product(self.stabilizer_x_matrix(), self.gauge_z_matrix().transpose()):
            raise ValueError("X stabilizer anticommutes with a Z gauge generator")
        if not is_zero_product(self.stabilizer_z_matrix(), self.gauge_x_matrix().transpose()):
            raise ValueError("Z stabilizer anticommutes with an X gauge generator")

    # -- group views ---------------------------------------------------

    def is_stabilizer_code(self) -> bool:
        return is_zero_product(self.gauge_x_matrix(), self.gauge_z_matrix().transpose())

    def gauge_x_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.gauge_x)

    def gauge_z_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.gauge_z)

    def stabilizer_x_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.stabilizer_x)

    def stabilizer_z_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.stabilizer_z)

    def gauge_ops(self) -> list[PauliOp]:
        return ([PauliOp(self.n, v, BitVec(self.n)) for v in self.gauge_x]
                + [PauliOp(self.n, BitVec(self.n), v) for v in self.gauge_z])

    def stabilizer_ops(self) -> list[PauliOp]:
        return ([PauliOp(self.n, v, BitVec(self.n)) for v in self.stabilizer_x]
                + [PauliOp(self.n, BitVec(self.n), v) for v in self.stabilizer_z])

    def derived_center(self) -> list[PauliOp]:
        return center_of_group(self.gauge_ops())

    def css_complex(self) -> ChainComplex:
        """The stabilizer CSS complex: Z-checks -> qubits -> X-checks."""
        d_z = BitMatrix.from_columns(self.n, self.stabilizer_z)
        d_x = self.stabilizer_x_matrix()
        return ChainComplex.css(d_z, d_x, qubit_labels=self.qubit_labels)

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "qubit_labels": list(self.qubit_labels),
            "gauge_x": [list(v.support) for v in self.gauge_x],
            "gauge_z": [list(v.support) for v in self.gauge_z],
            "stabilizer_x": [list(v.support) for v in self.stabilizer_x],
            "stabilizer_z": [list(v.support) for v in self.stabilizer_z],
            "metadata": {k: v for k, v in self.metadata.items() if k != "qubit_coords"},
        }

    def __repr__(self):
        return (f"CssSubsystemCode({self.name}, n={self.n}, "
                f"gauge={len(self.gauge_x)}+{len(self.gauge_z)}, "
                f"stab={len(self.stabilizer_x)}+{len(self.stabilizer_z)})")


def gauge_hamiltonian(code: CssSubsystemCode, kinds: str = "XZ") -> Hamiltonian:
    """Sum of gauge generators of the requested Pauli kinds.

    X terms carry ``x_combo`` provenance (unit vector over the X gauge
    list), which the duality maps use for exact images.
    """
    h = Hamiltonian(code.n)
    m = len(code.gauge_x)
    if "X" in kinds:
        for i, v in enumerate(code.gauge_x):
            h.add(Term(f"GX[{i}]", "J_X", PauliOp(code.n, v, BitVec(code.n)),
                       {"x_combo": BitVec(m, 1 << i)}))
    if "Z" in kinds:
        for i, v in enumerate(code.gauge_z):
            h.add(Term(f"GZ[{i}]", "J_Z", PauliOp(code.n, BitVec(code.n), v)))
    return h


def y_gauge_hamiltonian(code: CssSubsystemCode) -> Hamiltonian:
    """Y-type gauge terms Y(S) = i^|S| X(S) Z(S) for a self-dual gauge listing.

    Requires gauge_x[i] == gauge_z[i] for every i (as for the gauge color
    code); each term is Hermitian by the per-term i-power normalisation.
    """
    if [v.bits for v in code.gauge_x] != [v.bits for v in code.gauge_z]:
        raise ValueError("Y-type gauge Hamiltonian needs identical X and Z gauge supports")
    h = Hamiltonian(code.n)
    m = len(code.gauge_x)
    for i, v in enumerate(code.gauge_x):
        h.add(Term(f"GY[{i}]", "J_Y", PauliOp.y_op(code.n, v.support),
                   {"x_combo": BitVec(m, 1 << i)}))
    return h


def stabilizer_hamiltonian(code: CssSubsystemCode) -> Hamiltonian:
    """Sum of the stabilizer generators (X then Z), with X-term provenance."""
    h = Hamiltonian(code.n)
    m = len(code.stabilizer_x)
    for i, v in enumerate(code.stabilizer_x):
        h.add(Term(f"SX[{i}]", "J_X", PauliOp(code.n, v, BitVec(code.n)),
                   {"x_combo": BitVec(m, 1 << i)}))
    for i, v in enumerate(code.stabilizer_z):
        h.add(Term(f"SZ[{i}]", "J_Z", PauliOp(code.n, BitVec(code.n), v)))
    return h


def stabilizer_ranks(code: CssSubsystemCode) -> tuple[int, int]:
    return (rank(code.stabilizer_x_matrix()), rank(code.stabilizer_z_matrix()))


def gauge_group_rank(code: CssSubsystemCode) -> int:
    return group_rank(code.gauge_ops())
