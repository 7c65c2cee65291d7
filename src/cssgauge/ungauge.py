"""The gauging/ungauging duality engine.

A setup fixes the four-term complex

    Z-symmetries --d_z--> initial qubits --d_x--> X-generators --d_r--> relations

with column j of d_z the support of the j-th Z symmetry, row k of d_x
the support of the k-th X generator and row l of d_r the l-th relation.
The forward map sends Z(c) to Z(d_x c) and an X operator to the
generator combination producing it; the final system has one qubit per
X generator.  Relations become the emergent X symmetries of the image.

Two ways to map the X side:

* a raw Pauli is solved for canonically (leftmost pivots, free
  variables zero); the solution is unique only up to the relation
  space, which ``setup_report`` surfaces;
* Hamiltonian terms may carry an ``x_combo`` (forward) or ``z_combo``
  (inverse) in their metadata naming the intended preimage, which the
  maps validate and use.  Builders attach these, and the maps attach
  them to their own images, so round trips reproduce terms exactly
  rather than up to a symmetry.

Phases: inputs must be Hermitian with a real sign relative to the
canonical form i^|x&z| X(x) Z(z); that sign survives the map and the
image phase is renormalised to stay Hermitian.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Sequence

from .gf2 import BitMatrix, BitVec, Echelon, is_zero_product, kernel_basis, rank, solve
from .pauli import (
    Hamiltonian,
    PauliOp,
    Term,
    symplectic_product,
    transversal_hadamard,
)


class UngaugeError(ValueError):
    pass


class CommutationError(UngaugeError):
    pass


class CompletenessError(UngaugeError):
    pass


class NotSymmetricError(UngaugeError):
    pass


class UngaugeSetup:
    def __init__(self, d_z: BitMatrix, d_x: BitMatrix, d_r: BitMatrix,
                 preserved_x_ini: Sequence[BitVec] = (),
                 preserved_combos: Optional[Sequence[Optional[BitVec]]] = None,
                 notes: Optional[list[str]] = None):
        self.d_z = d_z
        self.d_x = d_x
        self.d_r = d_r
        self.n_ini = d_z.rows
        self.n_fin = d_x.rows
        self.preserved_x_ini = list(preserved_x_ini)
        self.preserved_combos = list(preserved_combos) if preserved_combos else [None] * len(self.preserved_x_ini)
        self.notes = list(notes) if notes else []
        self._dxt = d_x.transpose()
        self._generator_span = None

    def x_preimage(self, x: BitVec) -> Optional[BitVec]:
        """Canonical generator combination with d_x^T combo = x."""
        if x.is_zero():
            return BitVec(self.n_fin)
        if self._generator_span is None:
            self._generator_span = Echelon(self.d_x.row_bits(k) for k in range(self.n_fin))
        residual, combo = self._generator_span.reduce(x.bits)
        return None if residual else BitVec(self.n_fin, combo)

    def z_preimage(self, z: BitVec) -> Optional[BitVec]:
        """Canonical initial-qubit support with d_x pre = z."""
        if z.is_zero():
            return BitVec(self.n_ini)
        return solve(self.d_x, z)

    def ranks(self) -> dict:
        return {
            "n_ini": self.n_ini,
            "n_fin": self.n_fin,
            "rank_d_z": rank(self.d_z),
            "rank_d_x": rank(self.d_x),
            "rank_d_r": rank(self.d_r),
        }

    def __repr__(self):
        return (f"UngaugeSetup(n_ini={self.n_ini}, n_fin={self.n_fin}, "
                f"z={self.d_z.cols}, relations={self.d_r.rows})")


def make_setup(n: int, z_syms: Sequence[BitVec],
               x_gens: Optional[Sequence[BitVec]] = None,
               relations: Optional[Sequence[BitVec]] = None,
               preserved: Sequence[BitVec] = (),
               preserved_combos: Optional[Sequence[Optional[BitVec]]] = None,
               notes: Optional[list[str]] = None) -> UngaugeSetup:
    """Validate and assemble an ungauging setup.

    When ``x_gens`` is omitted a canonical kernel basis of d_z^T is used;
    a natural (geometric) generating set supplied by a caller is
    validated for commutation and completeness, never replaced.  Same
    for ``relations`` with the left kernel of d_x.
    """
    for v in z_syms:
        if v.length != n:
            raise UngaugeError("Z symmetry support length mismatch")
    d_z = BitMatrix.from_columns(n, list(z_syms))
    rank_dz = rank(d_z)

    if x_gens is None:
        d_x = kernel_basis(d_z.transpose())
    else:
        for v in x_gens:
            if v.length != n:
                raise UngaugeError("X generator support length mismatch")
        d_x = BitMatrix.from_rows(n, list(x_gens))
        if not is_zero_product(d_x, d_z):
            bad = list((d_x @ d_z).entries[:4])
            raise CommutationError(
                f"X generators anticommute with Z symmetries at (generator, symmetry) pairs {bad}")
    rank_dx = rank(d_x)
    needed = n - rank_dz
    if rank_dx != needed:
        raise CompletenessError(
            f"X generators span rank {rank_dx} but the symmetric group needs {needed}; "
            f"deficit {needed - rank_dx}")

    if relations is None:
        d_r = kernel_basis(d_x.transpose())
    else:
        for v in relations:
            if v.length != d_x.rows:
                raise UngaugeError("relation length must equal the X generator count")
        d_r = BitMatrix.from_rows(d_x.rows, list(relations))
        if not is_zero_product(d_r, d_x):
            raise UngaugeError("a supplied relation does not multiply to the identity")
    expected_rel_rank = d_x.rows - rank_dx
    if rank(d_r) != expected_rel_rank:
        raise CompletenessError(
            f"relations span rank {rank(d_r)} but the full relation space has rank "
            f"{expected_rel_rank}")

    setup = UngaugeSetup(d_z, d_x, d_r, preserved, preserved_combos, notes)
    for i, v in enumerate(setup.preserved_x_ini):
        if v.length != n:
            raise UngaugeError("preserved symmetry support length mismatch")
        if setup.x_preimage(v) is None:
            raise NotSymmetricError(f"preserved X symmetry {i} is not in the symmetric group")
    return setup


def _hermitian_sign_or_raise(p: PauliOp, what: str) -> int:
    d = (p.phase - p.x.overlap(p.z)) % 4
    if d == 0:
        return 0
    if d == 2:
        return 2
    raise NotSymmetricError(f"{what} must carry a real (+1/-1) sign; phase is i^{p.phase}")


def ungauge_pauli(p: PauliOp, s: UngaugeSetup,
                  x_combo: Optional[BitVec] = None) -> PauliOp:
    """Apply the forward duality map to a symmetric Pauli operator."""
    if p.n != s.n_ini:
        raise UngaugeError("operator lives on the wrong register")
    sign = _hermitian_sign_or_raise(p, "a symmetric operator")
    if x_combo is not None:
        if x_combo.length != s.n_fin:
            raise UngaugeError("x_combo length must equal the X generator count")
        if s._dxt.mul_vec(x_combo) != p.x:
            raise UngaugeError("x_combo does not reproduce the operator's X support")
        combo = x_combo
    else:
        combo = s.x_preimage(p.x)
        if combo is None:
            raise NotSymmetricError(
                "X support is not a product of the setup's X generators (operator not symmetric)")
    image_z = s.d_x.mul_vec(p.z)
    phase = (sign + combo.overlap(image_z)) % 4
    return PauliOp(s.n_fin, combo, image_z, phase)


def gauge_pauli(p: PauliOp, s: UngaugeSetup,
                z_combo: Optional[BitVec] = None) -> PauliOp:
    """The inverse map: from the final system back to the initial one."""
    if p.n != s.n_fin:
        raise UngaugeError("operator lives on the wrong register")
    sign = _hermitian_sign_or_raise(p, "a symmetric operator")
    if z_combo is not None:
        if z_combo.length != s.n_ini:
            raise UngaugeError("z_combo length must equal the initial qubit count")
        if s.d_x.mul_vec(z_combo) != p.z:
            raise UngaugeError("z_combo does not reproduce the operator's Z support")
        pre_z = z_combo
    else:
        pre_z = s.z_preimage(p.z)
        if pre_z is None:
            raise NotSymmetricError(
                "Z support does not commute with the emergent symmetries (not in the image)")
    image_x = s._dxt.mul_vec(p.x)
    phase = (sign + image_x.overlap(pre_z)) % 4
    return PauliOp(s.n_ini, image_x, pre_z, phase)


def ungauge_hamiltonian(h: Hamiltonian, s: UngaugeSetup) -> Hamiltonian:
    """Termwise forward map; term provenance is used and propagated."""
    if h.n != s.n_ini:
        raise UngaugeError("Hamiltonian lives on the wrong register")
    out = Hamiltonian(s.n_fin)
    for t in h:
        try:
            img = ungauge_pauli(t.op, s, x_combo=t.meta.get("x_combo"))
        except UngaugeError as exc:
            raise type(exc)(f"term {t.name}: {exc}") from None
        out.add(Term(t.name, t.coupling, img, {"z_combo": t.op.z}))
    return out


def gauge_hamiltonian(h: Hamiltonian, s: UngaugeSetup) -> Hamiltonian:
    """Termwise inverse map; term provenance is used and propagated."""
    if h.n != s.n_fin:
        raise UngaugeError("Hamiltonian lives on the wrong register")
    out = Hamiltonian(s.n_ini)
    for t in h:
        try:
            img = gauge_pauli(t.op, s, z_combo=t.meta.get("z_combo"))
        except UngaugeError as exc:
            raise type(exc)(f"term {t.name}: {exc}") from None
        out.add(Term(t.name, t.coupling, img, {"x_combo": t.op.x}))
    return out


def strip_identity_terms(h: Hamiltonian) -> tuple[Hamiltonian, int]:
    """Drop identity terms (annihilated symmetries); returns (rest, dropped)."""
    out = Hamiltonian(h.n)
    dropped = 0
    for t in h:
        if t.op.x.is_zero() and t.op.z.is_zero():
            dropped += 1
        else:
            out.add(t)
    return out, dropped


def emergent_symmetries(s: UngaugeSetup) -> list[PauliOp]:
    """X(r) on the final system for every relation row r."""
    return [PauliOp(s.n_fin, s.d_r.row(l), BitVec(s.n_fin)) for l in range(s.d_r.rows)]


def preserved_symmetries(s: UngaugeSetup) -> list[PauliOp]:
    """Images of the declared X-type initial symmetries."""
    out = []
    for v, combo in zip(s.preserved_x_ini, s.preserved_combos):
        out.append(ungauge_pauli(PauliOp(s.n_ini, v, BitVec(s.n_ini)), s, x_combo=combo))
    return out


def dim_check(s: UngaugeSetup) -> bool:
    """Symmetric-subspace dimensions agree: n_ini - rank d_z = n_fin - rank d_r."""
    r = s.ranks()
    return r["n_ini"] - r["rank_d_z"] == r["n_fin"] - r["rank_d_r"]


def annihilation_check(s: UngaugeSetup) -> bool:
    """Every initial Z symmetry generator maps to the identity operator."""
    z_syms = s.d_z.transpose()
    for j in range(z_syms.rows):
        img = ungauge_pauli(PauliOp(s.n_ini, BitVec(s.n_ini), z_syms.row(j)), s)
        if not img.is_identity():
            return False
    return True


def random_symmetric_pauli(s: UngaugeSetup, rng: random.Random) -> tuple[PauliOp, BitVec]:
    """A random element of the symmetric Pauli group, with its X combo."""
    combo = BitVec(s.n_fin, rng.getrandbits(s.n_fin) if s.n_fin else 0)
    x = s._dxt.mul_vec(combo)
    z = BitVec(s.n_ini, rng.getrandbits(s.n_ini) if s.n_ini else 0)
    sign = 2 * rng.getrandbits(1)
    phase = (sign + x.overlap(z)) % 4
    return PauliOp(s.n_ini, x, z, phase), combo


def commutation_preservation_check(s: UngaugeSetup, pairs: int = 1000,
                                   seed: int = 0) -> bool:
    """Symplectic products of random symmetric pairs survive the map."""
    rng = random.Random(seed)
    for _ in range(pairs):
        p1, c1 = random_symmetric_pauli(s, rng)
        p2, c2 = random_symmetric_pauli(s, rng)
        before = symplectic_product(p1, p2)
        after = symplectic_product(ungauge_pauli(p1, s, x_combo=c1),
                                   ungauge_pauli(p2, s, x_combo=c2))
        if before != after:
            return False
    return True


def full_gauge_hamiltonian(h: Hamiltonian, s_swapped: UngaugeSetup) -> Hamiltonian:
    """Gauge the entire X-type symmetry group of a final system.

    Implemented as transversal-Hadamard conjugation, the forward map in
    the X/Z-swapped setup, then transversal Hadamard back.  Terms may
    carry ``swapped_x_combo`` metadata naming the swapped X preimage.
    """
    if h.n != s_swapped.n_ini:
        raise UngaugeError("Hamiltonian lives on the wrong register")
    out = Hamiltonian(s_swapped.n_fin)
    for t in h:
        swapped = transversal_hadamard(t.op)
        try:
            img = ungauge_pauli(swapped, s_swapped, x_combo=t.meta.get("swapped_x_combo"))
        except UngaugeError as exc:
            raise type(exc)(f"term {t.name}: {exc}") from None
        out.add(Term(t.name, t.coupling, transversal_hadamard(img)))
    return out


def full_gauge_comparison(h_fin: Hamiltonian, s_swapped: UngaugeSetup,
                          reference: Hamiltonian,
                          relabeling: dict[int, int]) -> dict:
    """Certify a full gauging lands on a reference model under a relabeling.

    ``relabeling`` maps the fully gauged system's qubits onto the
    reference register.  Terms are compared as (x, z, phase) support
    multisets; couplings are not required to match by name, the induced
    coupling correspondence is reported instead (gauging all symmetries
    swaps the roles of the two couplings).
    """
    mapped = full_gauge_hamiltonian(h_fin, s_swapped).relabel_qubits(relabeling, reference.n)

    def support_multiset(h):
        return Counter((t.op.x.bits, t.op.z.bits, t.op.phase) for t in h)

    match = support_multiset(mapped) == support_multiset(reference)
    coupling_map: dict[str, set[str]] = {}
    if match:
        ref_by_key: dict[tuple, list[str]] = {}
        for t in reference:
            ref_by_key.setdefault((t.op.x.bits, t.op.z.bits, t.op.phase), []).append(t.coupling)
        for t in mapped:
            partners = ref_by_key.get((t.op.x.bits, t.op.z.bits, t.op.phase), [])
            coupling_map.setdefault(t.coupling, set()).update(partners)
    return {
        "term_count": len(mapped),
        "support_multiset_match": match,
        "coupling_map": {k: sorted(v) for k, v in coupling_map.items()},
    }


def setup_report(s: UngaugeSetup, mapped: Optional[Hamiltonian] = None,
                 commutation_pairs: int = 0, seed: int = 0) -> dict:
    """The CLI-facing JSON report for an ungauging run."""
    report = {
        "setup_ranks": s.ranks(),
        "dim_check": dim_check(s),
        "annihilated_generators": {
            "count": s.d_z.cols,
            "all_identity": annihilation_check(s),
        },
        "emergent": [op.to_json() for op in emergent_symmetries(s)],
        "preserved": [op.to_json() for op in preserved_symmetries(s)],
        "relation_space_dim": rank(s.d_r),
        "notes": list(s.notes),
    }
    if mapped is not None:
        report["mapped_terms"] = mapped.to_json()["terms"]
    if commutation_pairs:
        report["commutation_preserved"] = commutation_preservation_check(
            s, commutation_pairs, seed)
        report["commutation_pairs"] = commutation_pairs
    return report
