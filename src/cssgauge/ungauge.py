"""The gauging/ungauging duality engine.

A setup fixes the four-term complex

    Z-symmetries --d_z--> initial qubits --d_x--> X-generators --d_r--> relations

with column j of d_z the support of the j-th Z symmetry, row k of d_x
the support of the k-th X generator and row l of d_r the l-th relation.
The forward map sends Z(c) to Z(d_x c) and an X operator to the
generator combination producing it; the final system has one qubit per
X generator.  The X generators fix both ends of the complex: the Z
symmetries that map to the identity span ker d_x, and the relations,
which become the emergent X symmetries of the image, span ker d_x^T.
So ``make_setup`` completes the given Z symmetries and the given
relations to those kernels, and ``dim_check`` certifies the completion.

The X side of a raw Pauli is solved for canonically (leftmost pivots,
free variables zero); the solution is unique only up to the relation
space, which ``setup_report`` surfaces.  A Hamiltonian term may instead
name the intended preimage in its ``x_combo`` slot, which the map
validates and uses.  Builders fill that slot, and the map puts the
preimage's Z support in each image's ``z_combo`` slot, so round trips
reproduce terms exactly rather than up to a symmetry.

There is one map: gauging is the forward map of ``UngaugeSetup.dual``
(d_x and d_x^T trade places) between transversal Hadamards.  A final
operator X(c) Z(w) with w = d_x pre becomes Z(c) X(w), maps to
X(pre) Z(d_x^T c) with pre the canonical solution of d_x pre = w (or
the term's ``z_combo``, the dual's ``x_combo``), and comes back as
X(d_x^T c) Z(pre).  The two
Hadamards change the sign by (-1)^(|c & w| + |d_x^T c & pre|), which is
+1 since c^T (d_x pre) = (d_x^T c)^T pre mod 2.

Phases: inputs must be Hermitian with a real sign relative to the
canonical form i^|x&z| X(x) Z(z); that sign survives the map and the
image phase is renormalised to stay Hermitian.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Sequence

from .chains import _coset_representatives
from .gf2 import BitMatrix, BitVec, is_zero_product, kernel_basis, rank, solve
from .pauli import Hamiltonian, PauliOp, Term, transversal_hadamard_hamiltonian


class UngaugeError(ValueError):
    pass


class CommutationError(UngaugeError):
    pass


class NotSymmetricError(UngaugeError):
    pass


class UngaugeSetup:
    def __init__(self, d_z: BitMatrix, d_x: BitMatrix, dxt: BitMatrix, d_r: BitMatrix,
                 ranks: dict, preserved_x_ini: Sequence[BitVec] = (),
                 preserved_combos: Optional[Sequence[Optional[BitVec]]] = None):
        self.d_z = d_z
        self.d_x = d_x
        self.d_r = d_r
        self.n_ini = d_z.rows
        self.n_fin = d_x.rows
        self.preserved_x_ini = list(preserved_x_ini)
        self.preserved_combos = list(preserved_combos) if preserved_combos else [None] * len(self.preserved_x_ini)
        self.notes: list[str] = []
        self._dxt = dxt
        self._ranks = ranks
        self._dual: Optional[UngaugeSetup] = None   # set on a dual: the setup it came from

    def x_preimage(self, x: BitVec) -> Optional[BitVec]:
        """Canonical generator combination with d_x^T combo = x.

        The columns of d_x^T are the X generators in index order, so the
        pivots are the leftmost independent generators and every other
        generator is left out.
        """
        if x.is_zero():
            return BitVec(self.n_fin)
        return solve(self._dxt, x)

    def dual(self) -> "UngaugeSetup":
        """The transposed complex read backwards, relations -> X generators ->
        qubits -> Z symmetries, whose forward map gauges this setup.

        It holds this setup's d_x and d_x^T with their memoised echelons,
        swaps the two ends of the ranks and eliminates nothing.
        """
        if self._dual is not None:
            return self._dual
        r = self._ranks
        dual = UngaugeSetup(self.d_r.transpose(), self._dxt, self.d_x, self.d_z.transpose(),
                            {"n_ini": r["n_fin"], "n_fin": r["n_ini"], "rank_d_z": r["rank_d_r"],
                             "rank_d_x": r["rank_d_x"], "rank_d_r": r["rank_d_z"]})
        dual._dual = self
        return dual

    def ranks(self) -> dict:
        return dict(self._ranks)

    def __repr__(self):
        return (f"UngaugeSetup(n_ini={self.n_ini}, n_fin={self.n_fin}, "
                f"z={self.d_z.cols}, relations={self.d_r.rows})")


def make_setup(n: int, z_syms: Sequence[BitVec],
               x_gens: Sequence[BitVec],
               relations: Sequence[BitVec] = (),
               preserved: Sequence[BitVec] = (),
               preserved_combos: Optional[Sequence[Optional[BitVec]]] = None) -> UngaugeSetup:
    """Validate and assemble an ungauging setup.

    The caller's natural (geometric) generating sets are validated, never
    replaced, and completed.  The given ``z_syms`` must commute with the
    X generators, and d_z is them followed by each row of the canonical
    kernel basis of d_x that extends their span.  The given ``relations``
    must multiply to the identity, and d_r is them followed by each row
    of the canonical kernel basis of d_x^T that extends their span.  Both
    are greedy in order, so with none given each is its kernel basis.
    """
    if preserved_combos is not None and len(preserved_combos) != len(preserved):
        raise UngaugeError(f"{len(preserved)} preserved symmetries but "
                           f"{len(preserved_combos)} preserved combos")
    for v in z_syms:
        if v.length != n:
            raise UngaugeError("Z symmetry support length mismatch")
    for v in x_gens:
        if v.length != n:
            raise UngaugeError("X generator support length mismatch")
    d_x = BitMatrix.from_rows(n, list(x_gens))
    dxt = d_x.transpose()
    given_z = BitMatrix.from_rows(n, list(z_syms))
    if not is_zero_product(given_z, dxt):
        bad = sorted((k, j) for j, k in (given_z @ dxt).entries)[:4]
        raise CommutationError(
            f"X generators anticommute with Z symmetries at (generator, symmetry) pairs {bad}")
    for v in relations:
        if v.length != d_x.rows:
            raise UngaugeError("relation length must equal the X generator count")
    given = BitMatrix.from_rows(d_x.rows, list(relations))
    if relations and not is_zero_product(given, d_x):
        raise UngaugeError("a supplied relation does not multiply to the identity")
    # ker d_x is eliminated on a copy of d_x that shares its rows and is
    # freed before the one echelon of d_x^T is built; that echelon gives the
    # relations, rank d_x, rank d_r (d_r spans the kernel) and x_preimage.
    # d_x's own columns are eliminated only by gauging, as the dual's
    # x_preimage.
    d_z = BitMatrix.from_columns(n, list(z_syms) + _coset_representatives(
        kernel_basis(dxt.transpose()), given_z))
    ker_dxt = kernel_basis(dxt)
    d_r = BitMatrix.from_rows(d_x.rows, list(relations)
                              + _coset_representatives(ker_dxt, given))
    ranks = {"n_ini": n, "n_fin": d_x.rows, "rank_d_z": rank(d_z.transpose()),
             "rank_d_x": d_x.rows - ker_dxt.rows, "rank_d_r": ker_dxt.rows}

    setup = UngaugeSetup(d_z, d_x, dxt, d_r, ranks, preserved, preserved_combos)
    for i, v in enumerate(setup.preserved_x_ini):
        if v.length != n:
            raise UngaugeError("preserved symmetry support length mismatch")
        if setup.x_preimage(v) is None:
            raise NotSymmetricError(f"preserved X symmetry {i} is not in the symmetric group")
    return setup


# A map error names the combination key and the Pauli type that the caller gave:
# the forward map reads a term's x_combo and X support, and gauging, which maps
# the Hadamard image on the dual, the term's z_combo and Z support.
_UNGAUGING = ("x_combo length must equal the X generator count",
              "x_combo does not reproduce the operator's X support",
              "X support is not a product of the setup's X generators (operator not symmetric)")
_GAUGING = ("z_combo length must equal the initial qubit count",
            "z_combo does not reproduce the operator's Z support",
            "Z support is not in the image of d_x (operator does not commute with the "
            "emergent X symmetries)")


def ungauge_pauli(p: PauliOp, s: UngaugeSetup, x_combo: Optional[BitVec] = None, *,
                  words: tuple = _UNGAUGING) -> PauliOp:
    """Apply the forward duality map to a symmetric Pauli operator; ``words``
    are its three combination and support errors."""
    if p.n != s.n_ini:
        raise UngaugeError("operator lives on the wrong register")
    try:
        # The phase 0 or 2 of a real sign +1 or -1 relative to the Hermitian form.
        sign = 1 - p.hermitian_sign()
    except ValueError:
        raise NotSymmetricError(
            f"a symmetric operator must carry a real (+1/-1) sign; phase is i^{p.phase}") from None
    wrong_length, wrong_combo, not_symmetric = words
    if x_combo is not None:
        if x_combo.length != s.n_fin:
            raise UngaugeError(wrong_length)
        if s._dxt.mul_vec(x_combo) != p.x:
            raise UngaugeError(wrong_combo)
        combo = x_combo
    else:
        combo = s.x_preimage(p.x)
        if combo is None:
            raise NotSymmetricError(not_symmetric)
    image_z = s.d_x.mul_vec(p.z)
    phase = (sign + combo.overlap(image_z)) % 4
    return PauliOp(s.n_fin, combo, image_z, phase)


def _map_terms(h: Hamiltonian, s: UngaugeSetup, words: tuple) -> Hamiltonian:
    """Termwise forward map (see ``ungauge_hamiltonian``), with errors worded by ``words``."""
    if h.n != s.n_ini:
        raise UngaugeError("Hamiltonian lives on the wrong register")
    out = Hamiltonian(s.n_fin)
    for t in h:
        try:
            op = ungauge_pauli(t.op, s, x_combo=t.x_combo, words=words)
        except UngaugeError as exc:
            raise type(exc)(f"term {t.name}: {exc}") from None
        out.add(Term(t.name, t.coupling, op, z_combo=t.op.z))
    return out


def ungauge_hamiltonian(h: Hamiltonian, s: UngaugeSetup) -> Hamiltonian:
    """Termwise forward map; term provenance is used and propagated.

    Names and couplings are kept.  An image carries its preimage's Z
    support as ``z_combo`` and no ``x_combo``.  An ``UngaugeError`` is
    re-raised naming the term it met.
    """
    return _map_terms(h, s, _UNGAUGING)


def gauge_hamiltonian(h: Hamiltonian, s: UngaugeSetup) -> Hamiltonian:
    """Termwise gauging: the forward map of ``s.dual()`` between transversal
    Hadamards (see the module docstring); images carry ``x_combo``.  An error
    names the term and what it gave: its ``z_combo`` or its Z support."""
    return transversal_hadamard_hamiltonian(
        _map_terms(transversal_hadamard_hamiltonian(h), s.dual(), _GAUGING))


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
    """Symmetric-subspace dimensions agree: n_ini - rank d_z = n_fin - rank d_r.

    rank d_r is n_fin - rank d_x, so this holds exactly when d_z, ranked
    on its own, spans ker d_x: it certifies ``make_setup``'s completion of
    the Z symmetries.
    """
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


# Pairs per block of ``commutation_preservation_check``.
_PAIR_BLOCK = 1024


def _paired_products(x: BitMatrix, z: BitMatrix, width: int) -> int:
    """Bit k is the symplectic product of pair k's two operators.

    Bit k of a row is the first operator's bit of that qubit, bit
    ``width + k`` the second's.
    """
    acc = 0
    for i in range(x.rows):
        xi, zi = x.row_bits(i), z.row_bits(i)
        acc ^= (xi & (zi >> width)) ^ (zi & (xi >> width))
    return acc


def commutation_preservation_check(s: UngaugeSetup, pairs: int = 1000,
                                   seed: int = 0) -> bool:
    """Symplectic products of random symmetric pairs survive the map: there is
    no ``first_broken_pair``."""
    return first_broken_pair(s, pairs, seed) is None


def first_broken_pair(s: UngaugeSetup, pairs: int = 1000, seed: int = 0) -> Optional[int]:
    """The index of the first random symmetric pair whose symplectic product the
    map changes, or None if it changes none.

    A symmetric operator is X(d_x^T c) Z(z) for a generator combination c
    and any Z support z, and its image is X(c) Z(d_x z).  The products
    before and after the map are two bilinear forms in the pair's (c, z)
    coordinates, and they agree exactly when the ``_dxt`` that builds X
    parts is the transpose of the ``d_x`` that maps Z parts.  Where they
    differ, a random pair tells them apart with probability at least 3/8,
    so ``pairs`` pairs miss the difference with probability at most
    (5/8)^pairs (Freivalds' randomized identity test).

    The pairs are bit-sliced, in blocks of up to ``_PAIR_BLOCK``: a block
    of ``width`` pairs draws from ``random.Random(seed)`` the combos C
    (``n_fin`` rows) and then the Z parts Z (``n_ini`` rows), each row
    ``2 * width`` random bits holding the first operator of pair k at bit
    k and the second at bit ``width + k``.  Each side of the comparison is
    then one sparse matrix product, and memory does not grow with
    ``pairs``.  Bit k of the XOR of the two sides is set where pair
    ``start + k`` of the block that starts at pair ``start`` changed.
    """
    rng = random.Random(seed)
    for start in range(0, pairs, _PAIR_BLOCK):
        width = min(_PAIR_BLOCK, pairs - start)
        c = BitMatrix(s.n_fin, 2 * width, [rng.getrandbits(2 * width) for _ in range(s.n_fin)])
        z = BitMatrix(s.n_ini, 2 * width, [rng.getrandbits(2 * width) for _ in range(s.n_ini)])
        changed = _paired_products(s._dxt @ c, z, width) ^ _paired_products(c, s.d_x @ z, width)
        if changed:
            return start + (changed & -changed).bit_length() - 1
    return None


def full_gauge_hamiltonian(h: Hamiltonian, s_swapped: UngaugeSetup) -> Hamiltonian:
    """Gauge the entire X-type symmetry group of a final system.

    That is gauging the dual of the X/Z-swapped setup ``s_swapped``, whose
    Z symmetries are the gauged X symmetries: transversal Hadamard, the
    forward map of ``s_swapped``, Hadamard back.  A term's ``z_combo``
    names its preimage among the swapped X generators.
    """
    return gauge_hamiltonian(h, s_swapped.dual())


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
    """The CLI-facing JSON report for an ungauging run.  Its symmetries and mapped
    terms are the PauliOps and the Term list themselves, which the CLI's writer
    writes as their ``to_json()``."""
    report = {
        "setup_ranks": s.ranks(),
        "dim_check": dim_check(s),
        "annihilated_generators": {
            "count": s.d_z.cols,
            "all_identity": annihilation_check(s),
        },
        "emergent": emergent_symmetries(s),
        "preserved": preserved_symmetries(s),
        "relation_space_dim": s.ranks()["rank_d_r"],
        "notes": list(s.notes),
    }
    if mapped is not None:
        report["mapped_terms"] = mapped.terms
    if commutation_pairs:
        report["commutation_preserved"] = commutation_preservation_check(
            s, commutation_pairs, seed)
        report["commutation_pairs"] = commutation_pairs
    return report
