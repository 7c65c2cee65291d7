"""CSS subsystem codes: gauge generators, stabilizers and Hamiltonians.

A stabilizer code is the abelian special case (gauge group = stabilizer
group), and omitting both stabilizer lists declares one: the constructor
takes the gauge generators as the stabilizers and proves that they
commute with one product, G_Z·G_Xᵀ (the other is its transpose).  A
subsystem code lists both its stabilizer lists, as Bacon-Shor and the
gauge color code do, and is checked with G_Z·S_Xᵀ and G_X·S_Zᵀ; a
self-dual listing (S_Z = S_X and G_X = G_Z, as for the gauge color code)
makes the second product equal to the first, so it is checked once.
The products transpose the stabilizers, so G_Z is transposed only where
``analysis.code_parameters`` forms G_X·G_Zᵀ.  When S_Z = S_X the
constructor keeps its S_Xᵀ, which is the complex's d_z (the S_Z
columns), so a self-dual listing transposes its stabilizers once.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .chains import CssComplex
from .gf2 import BitMatrix, BitVec, is_zero_product, rank
from .lattice import CellComplex
from .pauli import Hamiltonian, PauliOp, Term


class CssSubsystemCode:
    """A CSS code from its X and Z gauge generators and stabilizers.

    Give both stabilizer lists or neither; omitted, they are the gauge
    generators.  A stabilizer that anticommutes with a gauge generator,
    or one stabilizer list without the other, raises ``ValueError``.
    """

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
        abelian = stabilizer_x is None and stabilizer_z is None
        if abelian:
            stabilizer_x, stabilizer_z = self.gauge_x, self.gauge_z
        elif stabilizer_x is None or stabilizer_z is None:
            missing = "stabilizer_x" if stabilizer_x is None else "stabilizer_z"
            raise ValueError(f"{missing} is missing: give both stabilizer lists or neither")
        self.stabilizer_x = list(stabilizer_x)
        self.stabilizer_z = list(stabilizer_z)
        self.qubit_labels = tuple(qubit_labels) if qubit_labels else tuple(f"q{i}" for i in range(n))
        if len(self.qubit_labels) != n:
            raise ValueError("qubit label count mismatch")
        self.lattice = lattice
        self.metadata = dict(metadata) if metadata else {}
        stabilizer_x_t = self.stabilizer_x_matrix().transpose()
        if not is_zero_product(self.gauge_z_matrix(), stabilizer_x_t):
            raise ValueError("X stabilizer anticommutes with a Z gauge generator")
        same = self.stabilizer_z == self.stabilizer_x
        # The complex's d_z, the S_Z columns, when they are the S_Xᵀ just formed.
        self._d_z = stabilizer_x_t if same else None
        # G_X·S_Zᵀ is the product above transposed (stabilizer code) or repeated (self-dual).
        proved = abelian or (same and self.gauge_x == self.gauge_z)
        if not proved and not is_zero_product(self.gauge_x_matrix(),
                                              self.stabilizer_z_matrix().transpose()):
            raise ValueError("Z stabilizer anticommutes with an X gauge generator")

    # -- group views ---------------------------------------------------

    def gauge_x_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.gauge_x)

    def gauge_z_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.gauge_z)

    def stabilizer_x_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.stabilizer_x)

    def stabilizer_z_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(self.n, self.stabilizer_z)

    def stabilizer_ops(self) -> list[PauliOp]:
        zero = BitVec(self.n)
        return ([PauliOp(self.n, v, zero) for v in self.stabilizer_x]
                + [PauliOp(self.n, zero, v) for v in self.stabilizer_z])

    def css_complex(self) -> CssComplex:
        """The stabilizer CSS complex: Z-checks -> qubits -> X-checks."""
        d_z = self._d_z or BitMatrix.from_columns(self.n, self.stabilizer_z)
        return CssComplex(d_z, self.stabilizer_x_matrix(), self.qubit_labels)

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> dict:
        # Equal generator lists (as a self-dual listing's) are decomposed once, shared.
        lists = (self.gauge_x, self.gauge_z, self.stabilizer_x, self.stabilizer_z)
        rows = []
        for i, vs in enumerate(lists):
            first = lists.index(vs)
            rows.append(rows[first] if first < i else [list(v.support) for v in vs])
        return {
            "name": self.name,
            "n": self.n,
            "qubit_labels": list(self.qubit_labels),
            **dict(zip(("gauge_x", "gauge_z", "stabilizer_x", "stabilizer_z"), rows)),
            "metadata": {k: v for k, v in self.metadata.items() if k != "qubit_coords"},
        }

    def __repr__(self):
        return (f"CssSubsystemCode({self.name}, n={self.n}, "
                f"gauge={len(self.gauge_x)}+{len(self.gauge_z)}, "
                f"stab={len(self.stabilizer_x)}+{len(self.stabilizer_z)})")


def gauge_hamiltonian(code: CssSubsystemCode, kinds: str = "XZ") -> Hamiltonian:
    """Sum of gauge generators of the requested Pauli kinds.

    An X term's ``x_combo`` is its unit vector over the X gauge list,
    which the duality maps use for exact images; Z terms carry no
    provenance.
    """
    h = Hamiltonian(code.n)
    m = len(code.gauge_x)
    if "X" in kinds:
        for i, v in enumerate(code.gauge_x):
            h.add(Term(f"GX[{i}]", "J_X", PauliOp(code.n, v, BitVec(code.n)),
                       x_combo=BitVec(m, 1 << i)))
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
                   x_combo=BitVec(m, 1 << i)))
    return h


def stabilizer_hamiltonian(code: CssSubsystemCode) -> Hamiltonian:
    """Sum of the stabilizer generators (X then Z), with X-term provenance."""
    h = Hamiltonian(code.n)
    m = len(code.stabilizer_x)
    zero = BitVec(code.n)
    for i, v in enumerate(code.stabilizer_x):
        h.add(Term(f"SX[{i}]", "J_X", PauliOp(code.n, v, zero), x_combo=BitVec(m, 1 << i)))
    for i, v in enumerate(code.stabilizer_z):
        h.add(Term(f"SZ[{i}]", "J_Z", PauliOp(code.n, zero, v)))
    return h


def stabilizer_ranks(code: CssSubsystemCode) -> tuple[int, int]:
    return (rank(code.stabilizer_x_matrix()), rank(code.stabilizer_z_matrix()))


def gauge_group_rank(code: CssSubsystemCode) -> int:
    """Rank of the gauge group: rank G_X + rank G_Z.

    The X and Z generators fill disjoint coordinate blocks of the (x|z)
    rows, so this equals the rank of the stacked rows exactly (Bravyi,
    *Subsystem codes with spatially local generators*, PRA 83, 012320,
    2011).  A self-dual listing (G_Z = G_X row for row, as for the gauge
    color code) is eliminated once.
    """
    rank_x = rank(code.gauge_x_matrix())
    if code.gauge_x == code.gauge_z:
        return 2 * rank_x
    return rank_x + rank(code.gauge_z_matrix())
