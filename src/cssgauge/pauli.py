"""Phased Pauli operators in symplectic form and Clifford conjugation.

An operator is stored as ``i**phase * X(x) * Z(z)`` with all X factors to
the left of all Z factors ("XZ form").  A Y on qubit q therefore has
``x_q = z_q = 1`` with the i-power folded into the global phase:
``Y = i * X * Z``.  Products of Hermitian X/Z-type generators keep exact
signs under this bookkeeping, which is what the domain-wall logical
checks need.

The constructions need two Cliffords, and both act in closed form on
XZ-form operators:

* transversal Hadamard: swap ``x`` and ``z``; add phase 2 per Y (Y -> -Y),
* a circuit of controlled-Z gates: ``CZ(a,b)`` sets ``z_a ^= x_b``,
  ``z_b ^= x_a`` and adds phase ``2*x_a*x_b``.

CZ gates commute and fix ``x``, so a whole circuit maps
``i^k X(x) Z(z)`` to ``i^(k + 2e) X(x) Z(z ^ N(x))``: N(x) is the XOR of
the CZ partners of the qubits in x and e the number of gates with both
ends in x (the graph-state rule of Hein, Eisert & Briegel, PRA 69,
062311 (2004)).  One conjugation costs O(weight x degree), and O(1)
when no gate meets ``x``; no tableau is built.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, Optional, Sequence

from .gf2 import BitMatrix, BitVec, Echelon, rank

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class PauliOp:
    """A phased Pauli operator on n qubits, in XZ (symplectic) form.

    Immutable: assignment and deletion raise, and ``__init__`` sets each
    slot through its member descriptor's setter, bound once below the
    class (``_set_x = PauliOp.x.__set__``), as ``gf2.BitVec`` does.
    """

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: BitVec, z: BitVec, phase: int = 0):
        if x.length != n or z.length != n:
            raise ValueError("x/z support length must equal qubit count")
        _set_n(self, n)
        _set_x(self, x)
        _set_z(self, z)
        _set_phase(self, phase % 4)

    def __setattr__(self, name, value):
        raise AttributeError("PauliOp is immutable")

    def __delattr__(self, name):
        raise AttributeError("PauliOp is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def x_op(cls, n: int, support: Iterable[int]) -> "PauliOp":
        return cls(n, BitVec.from_support(n, support), BitVec(n))

    @classmethod
    def z_op(cls, n: int, support: Iterable[int]) -> "PauliOp":
        return cls(n, BitVec(n), BitVec.from_support(n, support))

    @classmethod
    def y_op(cls, n: int, support: Iterable[int]) -> "PauliOp":
        """Hermitian product of single-qubit Y's: i^|S| X(S) Z(S)."""
        s = BitVec.from_support(n, support)
        return cls(n, s, s, s.weight % 4)

    # -- queries -----------------------------------------------------

    def is_identity(self) -> bool:
        return self.x.is_zero() and self.z.is_zero() and self.phase == 0

    @property
    def support(self) -> tuple[int, ...]:
        return BitVec(self.n, self.x.bits | self.z.bits).support

    @property
    def weight(self) -> int:
        return (self.x.bits | self.z.bits).bit_count()

    def symplectic_row(self) -> BitVec:
        """The (x|z) row of length 2n, phases dropped."""
        return BitVec(2 * self.n, self.x.bits | (self.z.bits << self.n))

    def hermitian_sign(self) -> int:
        """+1 or -1 relative to the Hermitian form i^|x&z| X(x) Z(z)."""
        d = (self.phase - self.x.overlap(self.z)) % 4
        if d == 0:
            return 1
        if d == 2:
            return -1
        raise ValueError("operator is not Hermitian")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOp)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
            and self.phase == other.phase
        )

    def to_label(self) -> str:
        letters = []
        for q in range(self.n):
            letters.append("IXZY"[self.x.get(q) + 2 * self.z.get(q)])
        return _PHASE_PREFIX[self.phase] + "".join(letters)

    def __repr__(self):
        return f"PauliOp({self.to_label()})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "x": list(self.x.support),
            "z": list(self.z.support),
            "phase": self.phase,
        }


_set_n = PauliOp.n.__set__
_set_x = PauliOp.x.__set__
_set_z = PauliOp.z.__set__
_set_phase = PauliOp.phase.__set__


def symplectic_product(p: PauliOp, q: PauliOp) -> int:
    """0 when the operators commute, 1 when they anticommute."""
    if p.n != q.n:
        raise ValueError("qubit count mismatch")
    return ((p.x.bits & q.z.bits).bit_count() + (p.z.bits & q.x.bits).bit_count()) & 1


def symplectic_gram(ops: Sequence[PauliOp]) -> BitMatrix:
    """Pairwise symplectic products as a matrix: X Z^T + Z X^T over GF(2)."""
    n = ops[0].n if ops else 0
    x = BitMatrix.from_rows(n, [p.x for p in ops])
    z = BitMatrix.from_rows(n, [p.z for p in ops])
    xz, zx = x @ z.transpose(), z @ x.transpose()
    m = len(ops)
    return BitMatrix(m, m, [xz.row_bits(i) ^ zx.row_bits(i) for i in range(m)])


def product_phase(p: PauliOp, q: PauliOp) -> int:
    """The i-power of the product p * q, whose supports are the XORs of theirs."""
    # Moving X(q.x) left past Z(p.z) contributes (-1)^{|p.z & q.x|}.
    return (p.phase + q.phase + 2 * (p.z.bits & q.x.bits).bit_count()) % 4


def multiply(p: PauliOp, q: PauliOp) -> PauliOp:
    """Operator product p * q with exact i-power bookkeeping."""
    if p.n != q.n:
        raise ValueError("qubit count mismatch")
    return PauliOp(p.n, p.x ^ q.x, p.z ^ q.z, product_phase(p, q))


def _qubit_index(q) -> int:
    try:
        return operator.index(q)
    except TypeError:
        raise ValueError(f"qubit index {q!r} is not an integer") from None


class CliffordCircuit:
    """An ordered list of CZ gates on n qubits.

    ``_partners[q]`` holds the other end of every gate on qubit q, a
    pair listed twice appearing twice, and ``_touched`` is the bitmask
    of the qubits that some gate acts on.
    """

    __slots__ = ("n", "gates", "_partners", "_touched")

    def __init__(self, n: int, gates: Iterable[tuple] = ()):
        checked = []
        partners: list[list[int]] = [[] for _ in range(n)]
        touched = 0
        for g in gates:
            if g[0] != "CZ":
                raise ValueError(f"unsupported gate {g[0]!r}")
            _, a, b = g
            a, b = _qubit_index(a), _qubit_index(b)
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("CZ qubit out of range")
            if a == b:
                raise ValueError("CZ needs two distinct qubits")
            checked.append(("CZ", a, b))
            partners[a].append(b)
            partners[b].append(a)
            touched |= 1 << a | 1 << b
        _set_circuit_n(self, n)
        _set_gates(self, tuple(checked))
        _set_partners(self, tuple(map(tuple, partners)))
        _set_touched(self, touched)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordCircuit is immutable")

    def __delattr__(self, name):
        raise AttributeError("CliffordCircuit is immutable")

    @classmethod
    def cz_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "CliffordCircuit":
        return cls(n, [("CZ", a, b) for a, b in pairs])

    def to_json(self) -> dict:
        return {"n": self.n, "gates": [list(g) for g in self.gates]}

    def __repr__(self):
        return f"CliffordCircuit(n={self.n}, gates={len(self.gates)})"


_set_circuit_n = CliffordCircuit.n.__set__
_set_gates = CliffordCircuit.gates.__set__
_set_partners = CliffordCircuit._partners.__set__
_set_touched = CliffordCircuit._touched.__set__


def conjugate_by_circuit(p: PauliOp, circuit: CliffordCircuit) -> PauliOp:
    """U p U^dagger for the CZ circuit U, phases exact.

    An operator whose X support meets no gate commutes with U and is
    returned as is.  Otherwise each partner b of a qubit in ``p.x``
    flips z_b; a gate with both ends in ``p.x`` is met once from each
    end and adds 1 to the phase each time, 2 in all.
    """
    if p.n != circuit.n:
        raise ValueError("qubit count mismatch")
    x = p.x.bits
    rest = x & circuit._touched
    if not rest:
        return p
    z, phase = p.z.bits, p.phase
    partners = circuit._partners
    while rest:
        a = rest.bit_length() - 1
        rest ^= 1 << a
        for b in partners[a]:
            z ^= 1 << b
            phase += x >> b & 1
    return PauliOp(p.n, p.x, BitVec(p.n, z), phase)


def transversal_hadamard(p: PauliOp) -> PauliOp:
    """Conjugation by Hadamard on every qubit: swap X and Z supports."""
    phase = (p.phase + 2 * p.x.overlap(p.z)) % 4
    return PauliOp(p.n, p.z, p.x, phase)


def transversal_hadamard_hamiltonian(h: "Hamiltonian") -> "Hamiltonian":
    """Termwise Hadamard conjugation; a term's ``x_combo`` and ``z_combo``
    swap with its supports."""
    out = Hamiltonian(h.n)
    for t in h:
        out.add(Term(t.name, t.coupling, transversal_hadamard(t.op),
                     x_combo=t.z_combo, z_combo=t.x_combo))
    return out


def group_rank(gens: Sequence[PauliOp]) -> int:
    """GF(2) rank of the stacked (x|z) rows; phases ignored."""
    if not gens:
        return 0
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError("qubit count mismatch")
    return rank(BitMatrix.from_rows(2 * n, [g.symplectic_row() for g in gens]))


class GroupMembership:
    """Repeated membership queries against one Pauli generating set.

    The generators' (x|z) rows are reduced once into an echelon; sign
    tracking rebuilds the solving combination's product in generator
    index order.
    """

    def __init__(self, gens: Sequence[PauliOp]):
        self.gens = list(gens)
        self.n = gens[0].n if gens else 0
        for g in self.gens:
            if g.n != self.n:
                raise ValueError("qubit count mismatch")
        self._span = Echelon(g.symplectic_row().bits for g in self.gens)

    def contains(self, p: PauliOp, track_sign: bool = False) -> bool:
        if not self.gens:
            return p.x.is_zero() and p.z.is_zero() and (p.phase == 0 or not track_sign)
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        residual, combo = self._span.reduce(p.symplectic_row().bits)
        if residual:
            return False
        if not track_sign:
            return True
        product = PauliOp(self.n, BitVec(self.n), BitVec(self.n))
        for i in BitVec(len(self.gens), combo).support:
            product = multiply(product, self.gens[i])
        return product.phase == p.phase


def in_group(p: PauliOp, gens: Sequence[PauliOp], track_sign: bool = False) -> bool:
    """Whether p lies in the group generated by gens (phases optional).

    Without sign tracking this is GF(2) membership of the (x|z) row in
    the span of the generators' rows.  With ``track_sign`` the product of
    the solving combination is rebuilt (generators multiplied in index
    order) and must reproduce p's phase exactly.
    """
    return GroupMembership(gens).contains(p, track_sign)


class Term:
    """One Hamiltonian term: a Pauli operator with a name and coupling tag.

    Two optional slots carry the preimage provenance that the duality maps
    use: ``x_combo``, the term's X part as a combination of the setup's X
    generators, and ``z_combo``, a preimage of the term's Z part.
    """

    __slots__ = ("name", "coupling", "op", "x_combo", "z_combo")

    def __init__(self, name: str, coupling: str, op: PauliOp, *,
                 x_combo: Optional[BitVec] = None, z_combo: Optional[BitVec] = None):
        self.name = name
        self.coupling = coupling
        self.op = op
        self.x_combo = x_combo
        self.z_combo = z_combo

    def key(self) -> tuple:
        """Multiset identity: coupling, supports and phase (name ignored)."""
        return (self.coupling, self.op.x.bits, self.op.z.bits, self.op.phase)

    def to_json(self) -> dict:
        return {"name": self.name, "coupling": self.coupling, "op": self.op.to_json()}

    def __repr__(self):
        return f"Term({self.name}, {self.coupling}, {self.op.to_label()})"


class Hamiltonian:
    """A tagged list of Pauli terms on a common register."""

    def __init__(self, n: int, terms: Iterable[Term] = ()):
        self.n = n
        self.terms: list[Term] = []
        for t in terms:
            self.add(t)

    def add(self, term: Term):
        if term.op.n != self.n:
            raise ValueError("term qubit count mismatch")
        self.terms.append(term)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def operators(self) -> list[PauliOp]:
        return [t.op for t in self.terms]

    def term_multiset(self) -> Counter:
        return Counter(t.key() for t in self.terms)

    def same_terms(self, other: "Hamiltonian") -> bool:
        return self.n == other.n and self.term_multiset() == other.term_multiset()

    def relabel_qubits(self, mapping: dict[int, int], n_new: Optional[int] = None) -> "Hamiltonian":
        n2 = self.n if n_new is None else n_new
        out = Hamiltonian(n2)
        for t in self.terms:
            x = BitVec.from_support(n2, [mapping[q] for q in t.op.x.support])
            z = BitVec.from_support(n2, [mapping[q] for q in t.op.z.support])
            out.add(Term(t.name, t.coupling, PauliOp(n2, x, z, t.op.phase),
                         x_combo=t.x_combo, z_combo=t.z_combo))
        return out

    def __repr__(self):
        return f"Hamiltonian(n={self.n}, terms={len(self.terms)})"
