"""Phased Pauli operators in symplectic form and Clifford conjugation.

An operator is stored as ``i**phase * X(x) * Z(z)`` with all X factors to
the left of all Z factors ("XZ form").  A Y on qubit q therefore has
``x_q = z_q = 1`` with the i-power folded into the global phase:
``Y = i * X * Z``.  Products of Hermitian X/Z-type generators keep exact
signs under this bookkeeping, which is what the domain-wall logical
checks need.

Only Hadamard and controlled-Z conjugations are implemented; these are
the only gates the constructions require, and both have closed-form
action on XZ-form operators:

* ``H_q``:  swap ``x_q, z_q``; add phase 2 when both are set (Y -> -Y),
* ``CZ(a,b)``:  ``z_a ^= x_b``, ``z_b ^= x_a``; add phase ``2*x_a*x_b``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from .gf2 import BitMatrix, BitVec, Echelon, kernel_basis

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class PauliOp:
    """A phased Pauli operator on n qubits, in XZ (symplectic) form."""

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: BitVec, z: BitVec, phase: int = 0):
        if x.length != n or z.length != n:
            raise ValueError("x/z support length must equal qubit count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", phase % 4)

    def __setattr__(self, name, value):
        raise AttributeError("PauliOp is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(n, BitVec(n), BitVec(n))

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

    @classmethod
    def from_xz(cls, n: int, x_support: Iterable[int], z_support: Iterable[int], phase: int = 0) -> "PauliOp":
        return cls(n, BitVec.from_support(n, x_support), BitVec.from_support(n, z_support), phase)

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

    def is_hermitian(self) -> bool:
        return (self.phase - self.x.overlap(self.z)) % 2 == 0

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

    def __hash__(self):
        return hash((self.n, self.x, self.z, self.phase))

    def to_label(self) -> str:
        letters = []
        for q in range(self.n):
            letters.append("IXZY"[self.x.get(q) + 2 * self.z.get(q)])
        return _PHASE_PREFIX[self.phase] + "".join(letters)

    @classmethod
    def from_label(cls, label: str) -> "PauliOp":
        body = label
        phase = 0
        for p, prefix in sorted(_PHASE_PREFIX.items(), key=lambda kv: -len(kv[1])):
            if label.startswith(prefix):
                phase, body = p, label[len(prefix):]
                break
        n = len(body)
        x = z = 0
        for q, ch in enumerate(body):
            if ch == "X":
                x |= 1 << q
            elif ch == "Z":
                z |= 1 << q
            elif ch == "Y":
                x |= 1 << q
                z |= 1 << q
            elif ch != "I":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(n, BitVec(n, x), BitVec(n, z), phase)

    def __repr__(self):
        return f"PauliOp({self.to_label()})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "x": list(self.x.support),
            "z": list(self.z.support),
            "phase": self.phase,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PauliOp":
        return cls.from_xz(data["n"], data["x"], data["z"], data["phase"])


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


def multiply(p: PauliOp, q: PauliOp) -> PauliOp:
    """Operator product p * q with exact i-power bookkeeping."""
    if p.n != q.n:
        raise ValueError("qubit count mismatch")
    # Moving X(q.x) left past Z(p.z) contributes (-1)^{|p.z & q.x|}.
    phase = (p.phase + q.phase + 2 * (p.z.bits & q.x.bits).bit_count()) % 4
    return PauliOp(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def multiply_all(ops: Sequence[PauliOp], n: Optional[int] = None) -> PauliOp:
    if not ops:
        if n is None:
            raise ValueError("empty product needs an explicit qubit count")
        return PauliOp.identity(n)
    acc = ops[0]
    for op in ops[1:]:
        acc = multiply(acc, op)
    return acc


class CliffordCircuit:
    """An ordered list of H and CZ gates on n qubits."""

    __slots__ = ("n", "gates")

    def __init__(self, n: int, gates: Iterable[tuple] = ()):
        checked = []
        for g in gates:
            if g[0] == "H":
                _, q = g
                if not 0 <= q < n:
                    raise ValueError("H qubit out of range")
                checked.append(("H", q))
            elif g[0] == "CZ":
                _, a, b = g
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError("CZ qubit out of range")
                if a == b:
                    raise ValueError("CZ needs two distinct qubits")
                checked.append(("CZ", a, b))
            else:
                raise ValueError(f"unsupported gate {g[0]!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gates", tuple(checked))

    def __setattr__(self, name, value):
        raise AttributeError("CliffordCircuit is immutable")

    def __len__(self):
        return len(self.gates)

    @classmethod
    def hadamard_all(cls, n: int) -> "CliffordCircuit":
        return cls(n, [("H", q) for q in range(n)])

    @classmethod
    def cz_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "CliffordCircuit":
        return cls(n, [("CZ", a, b) for a, b in pairs])

    def inverse(self) -> "CliffordCircuit":
        # H and CZ are self-inverse; reversing the order inverts the circuit.
        return CliffordCircuit(self.n, reversed(self.gates))

    def to_json(self) -> dict:
        return {"n": self.n, "gates": [list(g) for g in self.gates]}

    @classmethod
    def from_json(cls, data: dict) -> "CliffordCircuit":
        return cls(data["n"], [tuple(g) for g in data["gates"]])

    def __repr__(self):
        return f"CliffordCircuit(n={self.n}, gates={len(self.gates)})"


def conjugate_by_circuit(p: PauliOp, circuit: CliffordCircuit) -> PauliOp:
    """U p U^dagger with gates applied in circuit order, phases exact."""
    if p.n != circuit.n:
        raise ValueError("qubit count mismatch")
    x, z, phase = p.x.bits, p.z.bits, p.phase
    for g in circuit.gates:
        if g[0] == "H":
            q = g[1]
            mask = 1 << q
            xb, zb = x & mask, z & mask
            if xb and zb:
                phase += 2
            x = (x & ~mask) | zb
            z = (z & ~mask) | xb
        else:
            a, b = g[1], g[2]
            ma, mb = 1 << a, 1 << b
            xa, xb_ = bool(x & ma), bool(x & mb)
            if xa:
                z ^= mb
            if xb_:
                z ^= ma
            if xa and xb_:
                phase += 2
    return PauliOp(p.n, BitVec(p.n, x), BitVec(p.n, z), phase % 4)


def transversal_hadamard(p: PauliOp) -> PauliOp:
    """Conjugation by Hadamard on every qubit: swap X and Z supports."""
    phase = (p.phase + 2 * p.x.overlap(p.z)) % 4
    return PauliOp(p.n, p.z, p.x, phase)


def transversal_hadamard_hamiltonian(h: "Hamiltonian") -> "Hamiltonian":
    """Termwise Hadamard conjugation; preimage metadata does not survive."""
    out = Hamiltonian(h.n)
    for t in h:
        extra = {k: v for k, v in t.meta.items() if k not in ("x_combo", "z_combo")}
        out.add(Term(t.name, t.coupling, transversal_hadamard(t.op), extra))
    return out


def group_rank(gens: Sequence[PauliOp]) -> int:
    """GF(2) rank of the stacked (x|z) rows; phases ignored."""
    if not gens:
        return 0
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError("qubit count mismatch")
    return len(Echelon(g.symplectic_row().bits for g in gens))


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
        support = BitVec(len(self.gens), combo).support
        return multiply_all([self.gens[i] for i in support], self.n).phase == p.phase


def in_group(p: PauliOp, gens: Sequence[PauliOp], track_sign: bool = False) -> bool:
    """Whether p lies in the group generated by gens (phases optional).

    Without sign tracking this is GF(2) membership of the (x|z) row in
    the span of the generators' rows.  With ``track_sign`` the product of
    the solving combination is rebuilt (generators multiplied in index
    order) and must reproduce p's phase exactly.
    """
    return GroupMembership(gens).contains(p, track_sign)


def center_of_group(gens: Sequence[PauliOp]) -> list[PauliOp]:
    """Independent generators of the center of the span of ``gens``.

    Computed from the kernel of the symplectic Gram matrix; each kernel
    combination is multiplied out in index order and its sign normalised
    to +1 when the phase is real.
    """
    if not gens:
        return []
    n = gens[0].n
    combos = kernel_basis(symplectic_gram(gens))
    out: list[PauliOp] = []
    seen = Echelon()
    for i in range(combos.rows):
        element = multiply_all([gens[idx] for idx in combos.row(i).support], n)
        if element.x.is_zero() and element.z.is_zero():
            continue
        if element.phase == 2:
            element = PauliOp(n, element.x, element.z, 0)
        if seen.add(element.symplectic_row().bits):
            out.append(element)
    return out


class Term:
    """One Hamiltonian term: a Pauli operator with a name and coupling tag.

    ``meta`` may carry preimage provenance used by the duality maps
    (``x_combo``: the term's X part as a combination of the setup's
    X generators; ``z_combo``: a preimage of the term's Z part).
    """

    __slots__ = ("name", "coupling", "op", "meta")

    def __init__(self, name: str, coupling: str, op: PauliOp, meta: Optional[dict] = None):
        self.name = name
        self.coupling = coupling
        self.op = op
        self.meta = dict(meta) if meta else {}

    def key(self) -> tuple:
        """Multiset identity: coupling, supports and phase (name ignored)."""
        return (self.coupling, self.op.x.bits, self.op.z.bits, self.op.phase)

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

    def add_term(self, name: str, coupling: str, op: PauliOp, meta: Optional[dict] = None):
        self.add(Term(name, coupling, op, meta))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def operators(self) -> list[PauliOp]:
        return [t.op for t in self.terms]

    def touched_qubits(self) -> set[int]:
        out: set[int] = set()
        for t in self.terms:
            out.update(t.op.support)
        return out

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
            out.add(Term(t.name, t.coupling, PauliOp(n2, x, z, t.op.phase), t.meta))
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"name": t.name, "coupling": t.coupling, "op": t.op.to_json()} for t in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Hamiltonian":
        h = cls(data["n"])
        for t in data["terms"]:
            h.add_term(t["name"], t["coupling"], PauliOp.from_json(t["op"]))
        return h

    def __repr__(self):
        return f"Hamiltonian(n={self.n}, terms={len(self.terms)})"
