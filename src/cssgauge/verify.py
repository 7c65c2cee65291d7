"""The acceptance battery: one check per claimed property, exactly testable.

Every check returns a CheckResult; ``run_all`` executes the whole suite.

The dense-matrix oracle of criterion 12 lives here as an independent
implementation: it reads only a ``PauliOp``'s bits and phase and a
circuit's gate list, and shares no code with the symplectic engine.  It
builds the 2^n x 2^n matrices from the definitions (X, Z, CZ as
matrices, Kronecker products) in exact Python integers, as pairs (k, M)
meaning i^k M, with M real and k mod 4.  Every M it meets is a signed
permutation matrix, held row-sliced in 2^n-bit ints (``_kron``), so a
case costs O(n + gates) operations on 2^n-bit ints.

Two lookups keep the per-qubit 2x2 work off the hot path, and both are
derived from ``_FACTORS`` alone, with the oracle's own integer product,
never the engine's symplectic rule: ``_PRODUCTS`` holds the 16 products
of two qubit factors, built at import with ``_mul2``, and ``_READINGS``
memoises ``_kron``'s reading of each distinct factor (column and sign
index), filled only once a factor has been validated.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import catalog
from .analysis import (
    code_parameters,
    components,
    find_noncommuting_pair,
    is_self_dual,
    match_against_builder,
)
from .builders import build_fractal_code, build_toric, toric_code_from_complex
from .chains import augment_with_logicals, qubit_homology_dim
from .gf2 import BitVec, is_zero_product, rank
from .lattice import color_pair_sublattice
from .pauli import (
    CliffordCircuit,
    Hamiltonian,
    PauliOp,
    conjugate_by_circuit,
    multiply,
    symplectic_product,
)
from .sptwall import (
    Region,
    find_cz_disentangler,
    pairing_circuit,
    spt_pipeline,
    tensor_code,
    transversal_cz_is_logical,
)
from .ungauge import (
    annihilation_check,
    commutation_preservation_check,
    dim_check,
    first_broken_pair,
    strip_identity_terms,
    ungauge_hamiltonian,
)


class CheckResult(NamedTuple):
    criterion: int
    name: str
    passed: bool
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f" ({self.details})" if self.details else ""
        return f"[{status}] criterion {self.criterion}: {self.name}{msg}"


_MODEL_CACHE: dict = {}


def _models() -> dict:
    """The seven worked models, built once per process; checks read their codes here."""
    if "worked" not in _MODEL_CACHE:
        _MODEL_CACHE["worked"] = catalog.worked_models()
    return _MODEL_CACHE["worked"]


def check_chain_validity() -> CheckResult:
    """1: builder complexes and setup complexes compose to zero exactly."""
    codes = [m.code for m in _models().values()] + [build_fractal_code(4, "open_y")]
    bad = []
    for code in codes:
        c = code.css_complex()
        if not is_zero_product(c.d_x, c.d_z):
            bad.append(code.name)
    for name, m in _models().items():
        s = m.setup
        if not (is_zero_product(s.d_x, s.d_z) and is_zero_product(s.d_r, s.d_x)):
            bad.append(name)
    return CheckResult(1, "chain-complex validity", not bad,
                       f"{len(codes)} codes, 7 setups" if not bad else f"failures: {bad}")


def check_annihilation() -> CheckResult:
    """2: every initial Z symmetry generator maps to the identity."""
    bad = [name for name, m in _models().items() if not annihilation_check(m.setup)]
    return CheckResult(2, "symmetry annihilation on 7 setups", not bad,
                       "all Z generators -> identity" if not bad else f"failures: {bad}")


def check_commutation(pairs: int = 1000, seed: int = 20240) -> CheckResult:
    """3: symplectic products of random symmetric pairs survive the map; a
    failure names each model and its first broken pair."""
    models = _models()
    bad = [name for name, m in models.items()
           if not commutation_preservation_check(m.setup, pairs, seed)]
    broken = "; ".join(f"{name} at pair {first_broken_pair(models[name].setup, pairs, seed)}"
                       for name in bad)
    return CheckResult(3, "commutation preservation", not bad,
                       f"failures: {broken}" if bad else f"{pairs} pairs per setup")


def check_dimensions() -> CheckResult:
    """4: n_ini - rank d_z = n_fin - rank d_r on every setup."""
    bad = [name for name, m in _models().items() if not dim_check(m.setup)]
    return CheckResult(4, "dimension matching", not bad,
                       "" if not bad else f"failures: {bad}")


def check_toric_reproductions() -> CheckResult:
    """5: sphere paramagnet, augmented torus exactness, 3D vertex paramagnet."""
    problems = []
    sphere = _models()["toric-sphere"]
    img, _ = strip_identity_terms(ungauge_hamiltonian(sphere.hamiltonian, sphere.setup))
    if not all(t.op.weight == 1 and t.op.z.is_zero() for t in img):
        problems.append("sphere image is not a paramagnet")
    if sphere.setup.ranks()["rank_d_r"] != 1:
        problems.append("sphere relation rank is not 1")

    torus = _models()["toric-torus"]
    code = torus.code
    loops = catalog.axis_loops(code)
    augmented = augment_with_logicals(code.css_complex(), loops)
    if qubit_homology_dim(augmented) != 0:
        problems.append("augmented torus complex is not exact at the qubits")
    if not annihilation_check(torus.setup):
        problems.append("augmented torus ungauging failed")

    t3 = _models()["toric-3d"]
    img3, _ = strip_identity_terms(ungauge_hamiltonian(t3.hamiltonian, t3.setup))
    vertex_images = sorted(t.op.x.support[0] for t in img3)
    if not (all(t.op.weight == 1 and t.op.z.is_zero() for t in img3)
            and vertex_images == list(range(t3.setup.n_fin))):
        problems.append("3D toric image is not the vertex paramagnet")
    if t3.setup.ranks()["rank_d_r"] != 1:
        problems.append("3D toric relation rank is not 1")
    return CheckResult(5, "toric reproductions", not problems, "; ".join(problems))


def check_bacon_shor_xu_moore() -> CheckResult:
    """6: forward map, partial gauge back, and full gauging as Hadamard twist."""
    chk = catalog.xu_moore_check(3)
    problems = []
    if not chk["mapped_matches_xu_moore"]:
        problems.append("mapped Bacon-Shor does not equal Xu-Moore")
    if not chk["regauged_matches_bacon_shor"]:
        problems.append("partial gauge does not return Bacon-Shor")
    if not chk["full_gauge_report"]["support_multiset_match"]:
        problems.append("full gauging does not match the Hadamard conjugate")
    return CheckResult(6, "Bacon-Shor <-> Xu-Moore", not problems, "; ".join(problems))


def _gcc_color_class_qubits(model) -> dict[str, frozenset[int]]:
    classes: dict[str, set[int]] = {}
    for e, cls in enumerate(model.extra["edge_classes"]):
        classes.setdefault(cls, set()).add(e)
    return {k: frozenset(v) for k, v in classes.items()}


def _anticommuting_names(h: Hamiltonian) -> str:
    """The first anticommuting pair of ``h``'s terms, by name; empty when all commute."""
    pair = find_noncommuting_pair(h)
    if pair is None:
        return ""
    i, j = pair
    return f"{h.terms[i].name} anticommutes with {h.terms[j].name}"


def check_gcc_phases() -> CheckResult:
    """7: paramagnet / six toric copies / three RBH copies, terms commuting."""
    model = _models()["gcc"]
    ph = catalog.gcc_phase_hamiltonians(model)
    problems = []
    img_x, _ = strip_identity_terms(ph["image_X"])
    if not all(t.op.weight == 1 and t.op.z.is_zero() for t in img_x):
        problems.append("X image is not a pure paramagnet")

    img_z, _ = strip_identity_terms(ph["image_Z"])
    rep_z = components(img_z)
    class_sets = set(_gcc_color_class_qubits(model).values())
    if rep_z.count != 6:
        problems.append(f"Z image has {rep_z.count} components, expected 6")
    elif set(rep_z.qubit_sets()) != class_sets:
        problems.append("Z components do not match the edge color classes")
    if rep_z.sizes() != [16, 16, 16, 16, 24, 24]:
        problems.append(f"Z component sizes {rep_z.sizes()}")

    img_y, _ = strip_identity_terms(ph["image_Y"])
    rep_y = components(img_y)
    if rep_y.count != 3:
        problems.append(f"Y image has {rep_y.count} components, expected 3")
    witness = _anticommuting_names(img_y)
    if witness:
        problems.append(f"RBH copy terms do not all commute: {witness}")
    return CheckResult(7, "GCC phases (paramagnet / 6 toric / 3 RBH)", not problems,
                       "; ".join(problems))


def check_gcc_relations() -> CheckResult:
    """8: per vertex, exactly two of the three color-pair relations are independent."""
    model = _models()["gcc"]
    d_r = model.setup.d_r
    n_vertex_rel = model.extra["vertex_relation_count"]
    bad = []
    for v in range(n_vertex_rel // 3):
        block = d_r.select_rows([3 * v, 3 * v + 1, 3 * v + 2])
        if rank(block) != 2:
            bad.append(v)
    return CheckResult(8, "GCC per-vertex relation rank", not bad,
                       f"{n_vertex_rel // 3} vertices checked" if not bad else f"bad vertices: {bad}")


def _cz_failure(code) -> str:
    """The error that ``spt_pipeline`` raises, before it reads the region, for a
    code whose transversal CZ is not logical: it names the first generator
    mapped outside the group."""
    try:
        spt_pipeline(code, Region(frozenset()))
    except ValueError as err:
        return str(err)


def check_transversal_cz() -> CheckResult:
    """9: conjugated stabilizer generators pass signed membership."""
    problems = []
    for name in ("fractal", "toric-torus"):
        code = _models()[name].code
        tag = f"{code.name} L={code.metadata['L']}"
        tensor = tensor_code(code)
        if not transversal_cz_is_logical(tensor):
            problems.append(f"{tag}: {_cz_failure(code)}")
            continue
        # X stabilizers pick up exactly the dual code's Z twin as decoration;
        # the twins follow the base code's Z stabilizers in the tensor listing.
        circuit = pairing_circuit(tensor)
        n = tensor.n
        n_sz = len(code.stabilizer_z)
        for i in range(len(code.stabilizer_x)):
            sx = tensor.stabilizer_x[i]
            img = conjugate_by_circuit(PauliOp(n, sx, BitVec(n)), circuit)
            expected = PauliOp(n, sx, tensor.stabilizer_z[n_sz + i])
            if img != expected:
                problems.append(f"{tag}: decoration pattern mismatch at generator {i}")
                break
    return CheckResult(9, "transversal CZ is a logical gate", not problems, "; ".join(problems))


def check_spt_pipeline() -> CheckResult:
    """10: cluster chain on the toric wall; commuting, symmetric, disentanglable fractal wall."""
    problems = []

    toric = build_toric(2, 4, 1)
    res = spt_pipeline(toric, Region.slab(toric, 1, 3))
    if not res.report["bulk_trivial"]:
        problems.append("toric bulk is not a paramagnet")
    x_qubits = []
    for t in res.wall_hamiltonian:
        if not (t.op.x.weight == 1 and t.op.z.weight == 2 and t.op.phase == 0):
            problems.append("toric wall term is not a cluster term")
            break
        x_qubits.append(t.op.x.support[0])
    if sorted(x_qubits) != sorted(res.wall_qubits):
        problems.append("toric wall terms do not cover the wall qubits once each")
    if find_cz_disentangler(res.wall_hamiltonian) is None:
        problems.append("toric wall adjacency is not a symmetric cycle cover")

    frac = build_fractal_code(4, "open_y")
    resf = spt_pipeline(frac, Region.slab(frac, 1, 3))
    witness = _anticommuting_names(resf.wall_hamiltonian)
    if witness:
        problems.append(f"fractal wall terms do not commute: {witness}")
    witness = next((f"symmetry {i} anticommutes with {t.name}"
                    for i, s in enumerate(resf.symmetries) for t in resf.wall_hamiltonian
                    if symplectic_product(s, t.op)), "")
    if witness:
        problems.append(f"fractal wall terms do not commute with restricted symmetries: {witness}")
    if not resf.symmetries:
        problems.append("no restricted fractal symmetries found")
    circ = find_cz_disentangler(resf.wall_hamiltonian)
    if circ is None:
        problems.append("no CZ disentangler for the fractal wall")
    else:
        for t in resf.wall_hamiltonian:
            img = conjugate_by_circuit(t.op, circ)
            if not (img.z.is_zero() and img.x.weight == 1 and img.phase == 0):
                problems.append("disentangled fractal term is not a bare X")
                break
    return CheckResult(10, "SPT pipeline (toric cluster chain, fractal wall)",
                       not problems, "; ".join(problems))


def check_color_code_split() -> CheckResult:
    """11: partial ungauging splits the color code into two exact toric copies."""
    model = _models()["color2d-partial"]
    image, _ = strip_identity_terms(ungauge_hamiltonian(model.hamiltonian, model.setup))
    rep = components(image)
    problems = []
    if rep.count != 2:
        problems.append(f"{rep.count} components, expected 2")
    else:
        lattice = model.code.lattice
        sym_edges = model.extra["sym_edges"]
        others = set(lattice.vertex_colors.values()) - {model.extra["color"]}
        for other in sorted(others):
            pair_lattice = color_pair_sublattice(lattice, {other, model.extra["color"]})
            reference = toric_code_from_complex(pair_lattice, 1, name=f"toric-{other}")
            correspondence = {}
            for q, e in enumerate(sym_edges):
                lab = lattice.cells[1][e]
                if lab in pair_lattice.cells[1]:
                    correspondence[q] = pair_lattice.index(1, lab)
            comp = next((c for c in rep.components if set(correspondence) == set(c.qubits)), None)
            if comp is None:
                problems.append(f"no component matches the {other} sublattice qubits")
            elif not match_against_builder(image, comp, reference, correspondence):
                problems.append(f"{other} component does not match its toric code")
    return CheckResult(11, "color code partial ungauging = two toric codes",
                       not problems, "; ".join(problems))


# -- dense oracle (independent of the symplectic engine) -------------------


# X^x Z^z for each (x, z), as ((m00, m01), (m10, m11)).
_FACTORS = {(0, 0): ((1, 0), (0, 1)), (1, 0): ((0, 1), (1, 0)),
            (0, 1): ((1, 0), (0, -1)), (1, 1): ((0, -1), (1, 0))}
# The four rows of a signed 2x2 permutation matrix -> (column of the nonzero, 1 if it is -1).
_SIGNED_ROWS = {(1, 0): (0, 0), (-1, 0): (0, 1), (0, 1): (1, 0), (0, -1): (1, 1)}
_PLANES: dict = {}  # n -> (all rows, per qubit q (0, rows with q clear, rows with q set, all))
_READINGS: dict = {}  # valid 2x2 factor -> (column index, sign index) into a qubit's planes


def _mul2(a: tuple, b: tuple) -> tuple:
    """The integer product of two 2x2 matrices, from the definition."""
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)) for i in (0, 1))


# (x_p, z_p, x_q, z_q) -> the 2x2 product of the two qubit factors X^x Z^z.
_PRODUCTS = {(*kp, *kq): _mul2(fp, fq)
             for kp, fp in _FACTORS.items() for kq, fq in _FACTORS.items()}


def _pauli_factors(op: PauliOp) -> list:
    """The real 2x2 factor X^x Z^z of each qubit, qubit 0 first."""
    xb, zb = op.x.bits, op.z.bits
    return [_FACTORS[(xb >> q & 1, zb >> q & 1)] for q in range(op.n)]


def _kron(factors: list, lead: int) -> tuple:
    """``lead`` (+1 or -1) times the Kronecker product of 2x2 ``factors``, row-sliced.

    Qubit 0 is leftmost: qubit q is bit n-1-q of a row or column index.
    Returns ``(cols, neg)``, 2^n-bit ints with bit r for row r: ``cols[q]``
    holds qubit q's bit of the column of row r's nonzero entry, ``neg``
    whether that entry is -1.  Factor q writes its row b's column and sign
    over the rows whose qubit-q bit is b.  A factor row with no nonzero,
    two, or one other than +1 or -1 raises ``ValueError``, so all other
    entries are zero.  A factor's reading is memoised in ``_READINGS``
    once it has passed that check, so an invalid one raises every time.
    """
    if lead not in (1, -1):
        raise ValueError(f"lead {lead} is not +1 or -1")
    n = len(factors)
    if n not in _PLANES:
        full = (1 << (1 << n)) - 1
        planes = []
        for q in range(n):
            s = 1 << n - 1 - q  # qubit q's rows: s clear, then s set, repeated
            rows = ((1 << s) - 1 << s) * (full // ((1 << 2 * s) - 1))
            planes.append((0, full ^ rows, rows, full))
        _PLANES[n] = full, planes
    full, planes = _PLANES[n]
    cols, neg = [], 0 if lead == 1 else full
    for rows, factor in zip(planes, factors):
        reading = _READINGS.get(factor)
        if reading is None:
            row0, row1 = factor
            if row0 not in _SIGNED_ROWS or row1 not in _SIGNED_ROWS:
                raise ValueError(f"2x2 factor {factor} is not a signed permutation matrix")
            (c0, s0), (c1, s1) = _SIGNED_ROWS[row0], _SIGNED_ROWS[row1]
            reading = _READINGS[factor] = c0 | c1 << 1, s0 | s1 << 1
        col, sign = reading
        cols.append(rows[col])
        neg ^= rows[sign]
    return tuple(cols), neg


def _dense_pauli(op: PauliOp) -> tuple:
    """``(k, M)`` with i^k M the matrix of ``op``: k its phase mod 4, M = X^x Z^z real."""
    return op.phase % 4, _kron(_pauli_factors(op), 1)


def _dense_product(p: PauliOp, q: PauliOp) -> tuple:
    """``(k, M)`` for P Q by the mixed-product rule (A(x)B)(C(x)D) = AC(x)BD.

    Each qubit's pair of factors is multiplied, read from ``_PRODUCTS``,
    so neither P nor Q is built.  The product of two real factors is
    real, so the phases simply add.
    """
    px, pz, qx, qz = p.x.bits, p.z.bits, q.x.bits, q.z.bits
    factors = [_PRODUCTS[px >> i & 1, pz >> i & 1, qx >> i & 1, qz >> i & 1] for i in range(p.n)]
    return (p.phase + q.phase) % 4, _kron(factors, 1)


def _dense_conjugate(op: PauliOp, circuit: CliffordCircuit) -> tuple:
    """``(k, M)`` with i^k M = U P U^dagger for the CZ circuit U.

    CZ is diagonal, so no nonzero moves, and real, so i^k passes through.
    CZ on qubits a, b negates entry (r, c) exactly when r_a r_b != c_a c_b.
    """
    k, (cols, neg) = _dense_pauli(op)
    rows = [sets[2] for sets in _PLANES[op.n][1]]  # filled by _kron
    for _, a, b in circuit.gates:
        neg ^= (rows[a] & rows[b]) ^ (cols[a] & cols[b])
    return k, (cols, neg)


def _agrees(dense: tuple, op: PauliOp) -> bool:
    """Whether ``dense`` = (k, M), meaning i^k M, is the matrix of ``op``.

    Real nonzero M and R satisfy i^k M = i^k' R exactly when k' - k is
    even and M = (-1)^((k'-k)/2) R; the engine's matrix is built already
    signed, and the two are compared plane for plane.
    """
    k, mat = dense
    d = (op.phase - k) % 4
    if d % 2:
        return False
    return mat == _kron(_pauli_factors(op), 1 - d)


def _random_pauli(n: int, rng: random.Random) -> PauliOp:
    return PauliOp(n, BitVec(n, rng.getrandbits(n)), BitVec(n, rng.getrandbits(n)),
                   rng.randrange(4))


def _random_circuit(n: int, depth: int, rng: random.Random) -> CliffordCircuit:
    """``depth`` CZ gates on random ordered pairs of qubits; none when n = 1."""
    if n < 2:
        return CliffordCircuit(n)
    return CliffordCircuit.cz_pairs(n, [rng.sample(range(n), 2) for _ in range(depth)])


def check_dense_oracles(cases: int = 500, seed: int = 77) -> CheckResult:
    """12: symplectic conjugation and multiplication match 2^n matrices, phases included.

    Each dense operator is a pair (k, M) meaning i^k M, M a real signed
    permutation matrix held row-sliced.  For each case the dense side is
    computed first and independently of the engine (``_dense_product``,
    ``_dense_conjugate``); ``_agrees`` then expands the engine's result:
    the phase difference must be even and M must equal the signed matrix
    plane for plane.  A case costs O(n + gates) operations on 2^n-bit ints.
    """
    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randint(1, 6) if case % 10 else rng.randint(7, 10)
        p = _random_pauli(n, rng)
        q = _random_pauli(n, rng)
        if not _agrees(_dense_product(p, q), multiply(p, q)):
            return CheckResult(12, "dense oracle agreement", False,
                               f"multiplication mismatch at case {case}")
        circ = _random_circuit(n, rng.randint(1, 6), rng)
        if not _agrees(_dense_conjugate(p, circ), conjugate_by_circuit(p, circ)):
            return CheckResult(12, "dense oracle agreement", False,
                               f"conjugation mismatch at case {case}")
    return CheckResult(12, "dense oracle agreement", True, f"{cases} randomized cases, n <= 10")


def check_code_parameters() -> CheckResult:
    """13: Bacon-Shor (9,1,4,4), GCC self-dual, toric torus k=2."""
    problems = []
    models = _models()
    bs = code_parameters(models["bacon-shor"].code)
    if (bs.n, bs.k, bs.stabilizer_rank, bs.gauge_qubits) != (9, 1, 4, 4):
        problems.append(f"Bacon-Shor parameters {bs}")
    gcc = models["gcc"].code
    if not is_self_dual(gcc):
        problems.append("GCC is not self-dual")
    toric = code_parameters(models["toric-torus"].code)
    if toric.k != 2:
        problems.append(f"toric torus k={toric.k}")
    gcc_params = code_parameters(gcc)
    detail = (f"GCC computed k={gcc_params.k} vs claimed 0; stabilizer (center) rank "
              f"{gcc_params.stabilizer_rank} includes the torus membrane classes")
    return CheckResult(13, "code parameters", not problems,
                       "; ".join(problems) if problems else detail)


def run_all(commutation_pairs: int = 1000, oracle_cases: int = 500,
            seed: int = 20240) -> list[CheckResult]:
    return [
        check_chain_validity(),
        check_annihilation(),
        check_commutation(commutation_pairs, seed),
        check_dimensions(),
        check_toric_reproductions(),
        check_bacon_shor_xu_moore(),
        check_gcc_phases(),
        check_gcc_relations(),
        check_transversal_cz(),
        check_spt_pipeline(),
        check_color_code_split(),
        check_dense_oracles(oracle_cases, seed),
        check_code_parameters(),
    ]
