"""Gapped domain walls from transversal CZ, and the SPT construction.

The pipeline: dualise a CSS stabilizer code, tensor it with the dual,
certify that the pairwise transversal CZ is a logical gate, conjugate
the stabilizer Hamiltonian by CZ restricted to a region, replace the
decorated interior generators, then ungauge all Z symmetries.  The bulk
images are single-qubit X paramagnets; the terms straddling the region
boundary become the wall Hamiltonian, with the restricted emergent
symmetries as its protecting group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chains import css_logical_reps
from .codes import CssSubsystemCode, stabilizer_hamiltonian
from .gf2 import BitVec
from .pauli import (
    CliffordCircuit,
    GroupMembership,
    Hamiltonian,
    PauliOp,
    Term,
    conjugate_by_circuit,
    group_rank,
)
from .ungauge import UngaugeSetup, make_setup, strip_identity_terms, ungauge_hamiltonian


def dual_code(code: CssSubsystemCode) -> CssSubsystemCode:
    """Transversal-Hadamard dual: X and Z generator lists swapped."""
    return CssSubsystemCode(
        f"dual-{code.name}", code.n,
        gauge_x=list(code.gauge_z), gauge_z=list(code.gauge_x),
        stabilizer_x=list(code.stabilizer_z), stabilizer_z=list(code.stabilizer_x),
        qubit_labels=[f"~{lab}" for lab in code.qubit_labels],
        lattice=code.lattice, metadata=dict(code.metadata))


def tensor_code(code: CssSubsystemCode, other: CssSubsystemCode) -> CssSubsystemCode:
    """The tensor-product code with qubit i of ``code`` paired with i+n of ``other``."""
    if code.n != other.n:
        raise ValueError(f"unpaired qubit counts: {code.n} vs {other.n}")
    n = 2 * code.n

    def lift(v: BitVec, shift: int) -> BitVec:
        return BitVec(n, v.bits << shift)

    return CssSubsystemCode(
        f"{code.name}(x){other.name}", n,
        gauge_x=[lift(v, 0) for v in code.gauge_x] + [lift(v, code.n) for v in other.gauge_x],
        gauge_z=[lift(v, 0) for v in code.gauge_z] + [lift(v, code.n) for v in other.gauge_z],
        stabilizer_x=[lift(v, 0) for v in code.stabilizer_x]
        + [lift(v, code.n) for v in other.stabilizer_x],
        stabilizer_z=[lift(v, 0) for v in code.stabilizer_z]
        + [lift(v, code.n) for v in other.stabilizer_z],
        qubit_labels=list(code.qubit_labels) + list(other.qubit_labels),
        metadata={"tensor_of": (code.name, other.name), "base_n": code.n,
                  "base_metadata": dict(code.metadata)})


def pairing_circuit(tensor: CssSubsystemCode,
                    sites: Optional[Sequence[int]] = None) -> CliffordCircuit:
    """Transversal CZ between paired qubits, optionally restricted to sites."""
    base_n = tensor.metadata["base_n"]
    if sites is None:
        sites = range(base_n)
    return CliffordCircuit.cz_pairs(tensor.n, [(i, i + base_n) for i in sites])


def transversal_cz_is_logical(tensor: CssSubsystemCode) -> bool:
    """Every stabilizer generator conjugates into the stabilizer group, signs included."""
    circuit = pairing_circuit(tensor)
    gens = tensor.stabilizer_ops()
    membership = GroupMembership(gens)
    for g in gens:
        if not membership.contains(conjugate_by_circuit(g, circuit), track_sign=True):
            return False
    return True


@dataclass(frozen=True)
class Region:
    """A subset of the paired sites (base-code qubit indices)."""

    sites: frozenset[int]
    descriptor: str = "custom"

    @classmethod
    def slab(cls, code: CssSubsystemCode, lo: float, hi: float) -> "Region":
        """All sites whose coordinate along the slab axis lies in [lo, hi)."""
        coords = code.metadata["qubit_coords"]
        a = code.metadata["slab_axis"]
        sites = [i for i, c in enumerate(coords) if lo <= c[a] < hi]
        return cls(frozenset(sites), f"slab[{lo}:{hi})@axis{a}")

    @classmethod
    def everything(cls, code: CssSubsystemCode) -> "Region":
        return cls(frozenset(range(code.n)), "all")

    @classmethod
    def empty(cls) -> "Region":
        return cls(frozenset(), "empty")


@dataclass
class WallDecomposition:
    h_r: Hamiltonian
    h_wall: Hamiltonian
    h_rc: Hamiltonian
    replaced_terms: int
    group_preserved: bool
    region: Region

    def total(self) -> Hamiltonian:
        out = Hamiltonian(self.h_r.n)
        for part in (self.h_r, self.h_wall, self.h_rc):
            for t in part:
                out.add(t)
        return out


def domain_wall(tensor: CssSubsystemCode, region: Region) -> WallDecomposition:
    """Conjugate the tensor stabilizer Hamiltonian by CZ restricted to a region.

    Terms are partitioned by support into inside / wall / outside; the
    decorated interior generators are replaced by their undecorated
    originals, which preserves the generated group because the dropped
    decorations are stabilizer generators themselves (certified by a
    rank + signed-membership check on the result).
    """
    base_n = tensor.metadata["base_n"]
    if not region.sites <= set(range(base_n)):
        raise ValueError("region must be a set of paired sites of the tensor code")
    if "slab" not in region.descriptor and region.descriptor not in ("all", "empty"):
        warnings.warn("region is not a validated slab; wall locality is not guaranteed")

    in_mask = 0
    for s in region.sites:
        in_mask |= (1 << s) | (1 << (s + base_n))
    region_qubits = BitVec(tensor.n, in_mask)
    circuit = pairing_circuit(tensor, sorted(region.sites))

    h = stabilizer_hamiltonian(tensor)
    h_r = Hamiltonian(tensor.n)
    h_wall = Hamiltonian(tensor.n)
    h_rc = Hamiltonian(tensor.n)
    replaced = 0
    conjugated_all: list[PauliOp] = []
    for t in h:
        img = conjugate_by_circuit(t.op, circuit)
        conjugated_all.append(img)
        sup = img.x.bits | img.z.bits
        inside = sup & region_qubits.bits
        outside = sup & ~region_qubits.bits
        if inside and outside:
            h_wall.add(Term(t.name, t.coupling, img, t.meta))
        elif outside:
            h_rc.add(Term(t.name, t.coupling, img, t.meta))
        else:
            if img != t.op:
                # Interior decorated generator: replace by the original.
                replaced += 1
            h_r.add(Term(t.name, t.coupling, t.op, t.meta))

    result = WallDecomposition(h_r, h_wall, h_rc, replaced, False, region)
    new_gens = result.total().operators()
    old_rank = group_rank(conjugated_all)
    same_rank = group_rank(new_gens) == old_rank == group_rank(new_gens + conjugated_all)
    in_new = GroupMembership(new_gens)
    in_old = GroupMembership(conjugated_all)
    both_ways = all(in_new.contains(g, track_sign=True) for g in conjugated_all) and all(
        in_old.contains(g, track_sign=True) for g in new_gens)
    result.group_preserved = same_rank and both_ways
    return result


@dataclass
class SptResult:
    wall_hamiltonian: Hamiltonian
    symmetries: list[PauliOp]
    setup: UngaugeSetup
    wall_qubits: frozenset[int]
    bulk_hamiltonian: Hamiltonian
    report: dict = field(default_factory=dict)


def spt_pipeline(code: CssSubsystemCode, region: Region) -> SptResult:
    """The full construction from a CSS stabilizer code to a wall SPT model.

    Steps: dual code, tensor code, transversal-CZ logicality gate,
    domain wall in the region, ungauging of all Z symmetries of the
    tensor code.  Aborts when the CZ gate fails the logical check.
    """
    if not code.is_stabilizer_code():
        raise ValueError("the construction needs a stabilizer (abelian) code")
    dual = dual_code(code)
    tensor = tensor_code(code, dual)
    if not transversal_cz_is_logical(tensor):
        raise ValueError("transversal CZ is not a logical gate for this code")
    wall = domain_wall(tensor, region)

    z_logicals, _ = css_logical_reps(tensor.css_complex())
    setup = make_setup(tensor.n, list(tensor.stabilizer_z) + z_logicals,
                       x_gens=list(tensor.stabilizer_x))

    image = ungauge_hamiltonian(wall.total(), setup)
    wall_names = {t.name for t in wall.h_wall}
    bulk = Hamiltonian(setup.n_fin)
    wall_h = Hamiltonian(setup.n_fin)
    for t in image:
        if t.op.x.is_zero() and t.op.z.is_zero():
            continue
        (wall_h if t.name in wall_names else bulk).add(t)

    bulk_trivial = all(t.op.weight == 1 and t.op.z.is_zero() for t in bulk)

    wall_mask = 0
    for t in wall_h:
        wall_mask |= t.op.x.bits | t.op.z.bits
    wall_qubits = BitVec(setup.n_fin, wall_mask)

    from .ungauge import emergent_symmetries

    symmetries = []
    seen = set()
    for s in emergent_symmetries(setup):
        restricted = PauliOp(setup.n_fin, s.x.restrict(wall_qubits), BitVec(setup.n_fin))
        if restricted.x.is_zero() or restricted.x.bits in seen:
            continue
        seen.add(restricted.x.bits)
        symmetries.append(restricted)

    stripped, dropped = strip_identity_terms(image)
    report = {
        "cz_logical": True,
        "replaced_terms": wall.replaced_terms,
        "group_preserved": wall.group_preserved,
        "bulk_trivial": bulk_trivial,
        "wall_terms": len(wall_h),
        "wall_qubits": sorted(wall_qubits.support),
        "annihilated_terms": dropped,
        "symmetry_count": len(symmetries),
        "total_image_terms": len(stripped),
    }
    return SptResult(wall_h, symmetries, setup, frozenset(wall_qubits.support), bulk, report)


def find_cz_disentangler(h: Hamiltonian) -> Optional[CliffordCircuit]:
    """A CZ circuit turning X-with-Z-decoration terms into bare X terms.

    Every term must be a single X with a Z decoration (no Y content);
    the decoration adjacency must be symmetric and single-valued per
    qubit.  When it is, conjugating by CZ over the adjacency edges
    cancels every decoration exactly.
    """
    adjacency: dict[int, int] = {}
    for t in h:
        if t.op.x.weight != 1:
            raise ValueError(f"term {t.name} is not a single-X term")
        if t.op.x.bits & t.op.z.bits:
            raise ValueError(f"term {t.name} has Y content")
        v = t.op.x.support[0]
        if v in adjacency and adjacency[v] != t.op.z.bits:
            return None
        adjacency[v] = t.op.z.bits
    # Symmetry: u in N(v) iff v in N(u); undecorated qubits have N = {}.
    for v, nbrs in adjacency.items():
        b = nbrs
        while b:
            u = (b & -b).bit_length() - 1
            b &= b - 1
            if not (adjacency.get(u, 0) >> v) & 1:
                return None
    pairs = sorted({(min(v, u), max(v, u))
                    for v, nbrs in adjacency.items()
                    for u in BitVec(h.n, nbrs).support})
    return CliffordCircuit.cz_pairs(h.n, pairs)
