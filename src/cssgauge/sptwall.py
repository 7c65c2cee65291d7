"""Gapped domain walls from transversal CZ, and the SPT construction.

The pipeline: tensor a CSS stabilizer code with its transversal-Hadamard
dual, certify that the pairwise transversal CZ is a logical gate, conjugate
the stabilizer Hamiltonian by CZ restricted to a region, replace the
decorated interior generators, then ungauge all Z symmetries.  The bulk
images are single-qubit X paramagnets; the terms straddling the region
boundary become the wall Hamiltonian, with the restricted emergent
symmetries as its protecting group.
"""

from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple, Optional, Sequence

from .codes import CssSubsystemCode, stabilizer_hamiltonian
from .gf2 import BitVec
from .pauli import (
    CliffordCircuit,
    GroupMembership,
    Hamiltonian,
    PauliOp,
    Term,
    conjugate_by_circuit,
    product_phase,
)
from .ungauge import (
    UngaugeSetup,
    emergent_symmetries,
    make_setup,
    strip_identity_terms,
    ungauge_hamiltonian,
)


def tensor_code(code: CssSubsystemCode) -> CssSubsystemCode:
    """The code tensored with its transversal-Hadamard dual, qubit i paired with i+n.

    The dual swaps the X and Z generator lists and marks its qubit labels
    with ``~``.  Each generator is lifted once, as a gauge generator, and
    the stabilizers are omitted, so the constructor's one product proves
    the tensor abelian: a subsystem input raises ``ValueError``.
    """
    n, length = code.n, 2 * code.n

    def lift(vs: Sequence[BitVec], shift: int) -> list[BitVec]:
        return [BitVec(length, v.bits << shift) for v in vs]

    return CssSubsystemCode(
        f"{code.name}(x)dual-{code.name}", length,
        gauge_x=lift(code.gauge_x, 0) + lift(code.gauge_z, n),
        gauge_z=lift(code.gauge_z, 0) + lift(code.gauge_x, n),
        qubit_labels=list(code.qubit_labels) + [f"~{lab}" for lab in code.qubit_labels],
        metadata={"base_n": n})


def pairing_circuit(tensor: CssSubsystemCode,
                    sites: Optional[Sequence[int]] = None) -> CliffordCircuit:
    """Transversal CZ between paired qubits, optionally restricted to sites."""
    base_n = tensor.metadata["base_n"]
    if sites is None:
        sites = range(base_n)
    return CliffordCircuit.cz_pairs(tensor.n, [(i, i + base_n) for i in sites])


def _witnessed(p: PauliOp, g: PauliOp, by_support: dict[tuple[int, int], PauliOp]) -> bool:
    """Whether ``p`` is the object ``g``, or ``g`` times the generator that
    ``by_support`` files under their (x, z) difference, phase included.

    The key fixes the supports of that product, so only its phase is
    compared with ``p``'s; no product is built.
    """
    if p is g:
        return True
    h = by_support.get((p.x.bits ^ g.x.bits, p.z.bits ^ g.z.bits))
    return h is not None and product_phase(g, h) == p.phase


def _by_support(gens: Sequence[PauliOp]) -> dict[tuple[int, int], PauliOp]:
    return {(h.x.bits, h.z.bits): h for h in gens}


def _first_outside(pairs: Iterable[tuple[PauliOp, PauliOp]], gens: Sequence[PauliOp],
                   by_support: dict[tuple[int, int], PauliOp]) -> Optional[int]:
    """The index of the first ``p`` of the ``(p, g)`` pairs outside the group
    of ``gens``, signs included, or None; every ``g`` and every entry of
    ``by_support`` must be in that group.

    The signed membership search over ``gens`` is built on the first
    ``p`` without a witness and decides every such ``p`` exactly.
    """
    membership = None
    for i, (p, g) in enumerate(pairs):
        if _witnessed(p, g, by_support):
            continue
        if membership is None:
            membership = GroupMembership(gens)
        if not membership.contains(p, track_sign=True):
            return i
    return None


def _cz_outside(tensor: CssSubsystemCode) -> Optional[int]:
    """The index in ``stabilizer_ops()`` of the first stabilizer generator whose
    image under the transversal CZ is outside the stabilizer group, or None."""
    circuit = pairing_circuit(tensor)
    gens = tensor.stabilizer_ops()
    images = ((conjugate_by_circuit(g, circuit), g) for g in gens)
    return _first_outside(images, gens, _by_support(gens))


def transversal_cz_is_logical(tensor: CssSubsystemCode) -> bool:
    """Every stabilizer generator conjugates into the stabilizer group, signs included.

    A Z generator meets no gate and is its own image.  An X generator's
    image is witnessed by being its generator times its dual Z twin,
    found by one lookup, with only the phase compared.  Only an image
    without a witness is searched for.
    """
    return _cz_outside(tensor) is None


class Region(NamedTuple):
    """A subset of the paired sites (base-code qubit indices)."""

    sites: frozenset[int]
    descriptor: str = "custom"

    @classmethod
    def slab(cls, code: CssSubsystemCode, lo: float, hi: float) -> "Region":
        """All sites whose coordinate along the slab axis lies in [lo, hi)."""
        for key in ("qubit_coords", "slab_axis"):
            if key not in code.metadata:
                raise ValueError(f"code {code.name} has no {key!r} metadata to cut a slab from")
        coords = code.metadata["qubit_coords"]
        a = code.metadata["slab_axis"]
        sites = [i for i, c in enumerate(coords) if lo <= c[a] < hi]
        return cls(frozenset(sites), f"slab[{lo}:{hi})@axis{a}")


class WallDecomposition(NamedTuple):
    h_r: Hamiltonian
    h_wall: Hamiltonian
    h_rc: Hamiltonian
    replaced_terms: int
    group_preserved: bool

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
    decorations are stabilizer generators themselves.  The old and new
    generating sets differ only in the replaced pairs, so ``group_preserved``
    checks just those, both ways: each side must be the other times one
    shared generator, signs included, or else be found by the signed
    membership search over the other side's generators.

    A term whose X support misses the region is its own image, and its
    ``Term`` is kept as is; a new ``Term`` is built only for an image
    that changed.
    """
    base_n = tensor.metadata["base_n"]
    if not region.sites <= set(range(base_n)):
        raise ValueError("region must be a set of paired sites of the tensor code")
    if "slab" not in region.descriptor:
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
    conjugated_all: list[PauliOp] = []
    shared: list[PauliOp] = []
    pairs: list[tuple[PauliOp, PauliOp]] = []    # (image, original)
    for t in h:
        img = conjugate_by_circuit(t.op, circuit)
        conjugated_all.append(img)
        sup = img.x.bits | img.z.bits
        inside = sup & region_qubits.bits
        outside = sup & ~region_qubits.bits
        if outside:
            term = t if img is t.op else Term(t.name, t.coupling, img, x_combo=t.x_combo)
            (h_wall if inside else h_rc).add(term)
        else:
            h_r.add(t)
            if img is not t.op:
                # Interior decorated generator: replaced by the original.
                pairs.append((img, t.op))
                continue
        shared.append(img)

    new_gens = [t.op for part in (h_r, h_wall, h_rc) for t in part]
    by_support = _by_support(shared)
    back = ((original, img) for img, original in pairs)
    preserved = (_first_outside(pairs, new_gens, by_support) is None
                 and _first_outside(back, conjugated_all, by_support) is None)
    return WallDecomposition(h_r, h_wall, h_rc, len(pairs), preserved)


class SptResult(NamedTuple):
    wall_hamiltonian: Hamiltonian
    symmetries: list[PauliOp]
    setup: UngaugeSetup
    wall_qubits: frozenset[int]
    report: dict


def spt_pipeline(code: CssSubsystemCode, region: Region) -> SptResult:
    """The full construction from a CSS stabilizer code to a wall SPT model.

    Steps: tensor with the dual code, transversal-CZ logicality gate,
    domain wall in the region, ungauging of all Z symmetries of the
    tensor code (its Z stabilizers, which ``make_setup`` completes with
    the logical Z classes).  A subsystem code raises ``ValueError`` when
    the tensor is built; the construction aborts when the CZ gate fails
    the logical check.
    """
    tensor = tensor_code(code)
    if not transversal_cz_is_logical(tensor):
        raise ValueError(f"transversal CZ is not a logical gate for this code: the image "
                         f"of stabilizer generator {_cz_outside(tensor)} is outside "
                         f"the stabilizer group")
    wall = domain_wall(tensor, region)

    setup = make_setup(tensor.n, list(tensor.stabilizer_z), x_gens=list(tensor.stabilizer_x))

    image, dropped = strip_identity_terms(ungauge_hamiltonian(wall.total(), setup))
    wall_names = {t.name for t in wall.h_wall}
    bulk = Hamiltonian(setup.n_fin)
    wall_h = Hamiltonian(setup.n_fin)
    for t in image:
        (wall_h if t.name in wall_names else bulk).add(t)

    bulk_trivial = all(t.op.weight == 1 and t.op.z.is_zero() for t in bulk)

    wall_mask = 0
    for t in wall_h:
        wall_mask |= t.op.x.bits | t.op.z.bits
    wall_qubits = BitVec(setup.n_fin, wall_mask)

    symmetries = []
    seen = set()
    for s in emergent_symmetries(setup):
        restricted = PauliOp(setup.n_fin, s.x.restrict(wall_qubits), BitVec(setup.n_fin))
        if restricted.x.is_zero() or restricted.x.bits in seen:
            continue
        seen.add(restricted.x.bits)
        symmetries.append(restricted)

    report = {
        "cz_logical": True,
        "replaced_terms": wall.replaced_terms,
        "group_preserved": wall.group_preserved,
        "bulk_trivial": bulk_trivial,
        "wall_terms": len(wall_h),
        "wall_qubits": sorted(wall_qubits.support),
        "annihilated_terms": dropped,
        "symmetry_count": len(symmetries),
        "total_image_terms": len(bulk) + len(wall_h),
    }
    return SptResult(wall_h, symmetries, setup, frozenset(wall_qubits.support), report)


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
    pairs = set()
    for v, nbrs in adjacency.items():
        for u in BitVec(h.n, nbrs).support:
            if not (adjacency.get(u, 0) >> v) & 1:
                return None
            pairs.add((min(v, u), max(v, u)))
    return CliffordCircuit.cz_pairs(h.n, sorted(pairs))
