"""The acceptance battery: one check per claimed property, exactly testable.

Every check returns a CheckResult; ``run_all`` executes the whole suite.
The dense-matrix oracle used for Pauli and Clifford conjugation checks
lives here as an independent implementation (numpy tensors, no shared
code with the symplectic engine).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import catalog
from .analysis import (
    code_parameters,
    commuting_check,
    components,
    is_self_dual,
    match_against_builder,
)
from .builders import (
    build_bacon_shor,
    build_color_code_2d,
    build_fractal_code,
    build_gcc,
    build_toric,
    build_toric_sphere,
    toric_code_from_complex,
)
from .chains import augment_with_logicals, homology_dim, validate
from .gf2 import BitVec, is_zero_product, rank
from .lattice import color_pair_sublattice
from .pauli import (
    CliffordCircuit,
    PauliOp,
    conjugate_by_circuit,
    multiply,
    symplectic_product,
)
from .sptwall import (
    Region,
    dual_code,
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
    strip_identity_terms,
    ungauge_hamiltonian,
)


@dataclass
class CheckResult:
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
    if "worked" not in _MODEL_CACHE:
        _MODEL_CACHE["worked"] = catalog.worked_models()
    return _MODEL_CACHE["worked"]


def check_chain_validity() -> CheckResult:
    """1: builder complexes and setup complexes compose to zero exactly."""
    codes = [build_toric(2, 3, 1), build_toric(3, 2, 1), build_toric_sphere(),
             build_bacon_shor(3), build_color_code_2d(3), build_gcc(2),
             build_fractal_code(4), build_fractal_code(4, "open_y")]
    bad = [c.name for c in codes if not validate(c.css_complex())]
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
    """3: symplectic products of random symmetric pairs survive the map."""
    bad = [name for name, m in _models().items()
           if not commutation_preservation_check(m.setup, pairs, seed)]
    return CheckResult(3, "commutation preservation", not bad,
                       f"{pairs} pairs per setup" if not bad else f"failures: {bad}")


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
    if rank(sphere.setup.d_r) != 1:
        problems.append("sphere relation rank is not 1")

    torus = _models()["toric-torus"]
    code = torus.code
    loops = catalog._axis_loops(code)
    augmented = augment_with_logicals(code.css_complex(), loops)
    if homology_dim(augmented, 1) != 0:
        problems.append("augmented torus complex is not exact at the qubits")
    if not annihilation_check(torus.setup):
        problems.append("augmented torus ungauging failed")

    t3 = _models()["toric-3d"]
    img3, _ = strip_identity_terms(ungauge_hamiltonian(t3.hamiltonian, t3.setup))
    vertex_images = sorted(t.op.x.support[0] for t in img3)
    if not (all(t.op.weight == 1 and t.op.z.is_zero() for t in img3)
            and vertex_images == list(range(t3.setup.n_fin))):
        problems.append("3D toric image is not the vertex paramagnet")
    if rank(t3.setup.d_r) != 1:
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


def check_gcc_phases() -> CheckResult:
    """7: paramagnet / six toric copies / three RBH copies, terms commuting."""
    ph = catalog.gcc_phase_hamiltonians(2)
    problems = []
    img_x, _ = strip_identity_terms(ph["image_X"])
    if not all(t.op.weight == 1 and t.op.z.is_zero() for t in img_x):
        problems.append("X image is not a pure paramagnet")

    img_z, _ = strip_identity_terms(ph["image_Z"])
    rep_z = components(img_z)
    class_sets = set(_gcc_color_class_qubits(ph["model"]).values())
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
    if not commuting_check(img_y):
        problems.append("RBH copy terms do not all commute")
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


def check_transversal_cz() -> CheckResult:
    """9: conjugated stabilizer generators pass signed membership."""
    problems = []
    for code, tag in ((build_fractal_code(4), "fractal L=4"),
                      (build_toric(2, 3, 1), "toric L=3")):
        tensor = tensor_code(code, dual_code(code))
        if not transversal_cz_is_logical(tensor):
            problems.append(f"{tag}: CZ not logical")
            continue
        # X stabilizers pick up exactly the dual code's Z twin as decoration.
        circuit = pairing_circuit(tensor)
        n = tensor.n
        n_sx = len(code.stabilizer_x)
        for i in range(n_sx):
            sx = tensor.stabilizer_x[i]
            img = conjugate_by_circuit(PauliOp(n, sx, BitVec(n)), circuit)
            expected = PauliOp(n, sx, tensor.stabilizer_z[n_sx + i])
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
    if not commuting_check(resf.wall_hamiltonian):
        problems.append("fractal wall terms do not commute")
    if not all(symplectic_product(s, t.op) == 0
               for s in resf.symmetries for t in resf.wall_hamiltonian):
        problems.append("fractal wall terms do not commute with restricted symmetries")
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
    model = catalog.color2d_partial_model(3, "c")
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
                if lab in pair_lattice._index[1]:
                    correspondence[q] = pair_lattice.index(1, lab)
            comp = next((c for c in rep.components if set(correspondence) == set(c.qubits)), None)
            if comp is None:
                problems.append(f"no component matches the {other} sublattice qubits")
            elif not match_against_builder(image, comp, reference, correspondence):
                problems.append(f"{other} component does not match its toric code")
    return CheckResult(11, "color code partial ungauging = two toric codes",
                       not problems, "; ".join(problems))


# -- dense oracle (independent of the symplectic engine) -------------------


def _dense_pauli(op: PauliOp):
    import numpy as np

    single = {
        (0, 0): np.eye(2, dtype=complex),
        (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
        (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 1): np.array([[0, 1], [1, 0]], dtype=complex) @ np.array([[1, 0], [0, -1]], dtype=complex),
    }
    out = np.ones((1, 1), dtype=complex)
    for q in range(op.n):
        out = np.kron(out, single[(op.x.get(q), op.z.get(q))])
    return (1j ** op.phase) * out


def _dense_conjugate(op: PauliOp, circuit: CliffordCircuit):
    """U P U^dagger for the dense P of ``op``, built here so that no caller holds P."""
    import numpy as np

    mat = _dense_pauli(op)
    n = circuit.n
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    for g in circuit.gates:
        if g[0] == "H":
            q = g[1]
            mat = np.moveaxis(np.tensordot(h, mat.reshape([2] * (2 * n)), axes=(1, q)), 0, q)
            mat = np.moveaxis(np.tensordot(mat, h, axes=(n + q, 0)), -1, n + q)
            mat = mat.reshape(2 ** n, 2 ** n)
        else:
            a, b = g[1], g[2]
            idx = np.arange(2 ** n)
            bit_a = (idx >> (n - 1 - a)) & 1
            bit_b = (idx >> (n - 1 - b)) & 1
            d = np.where((bit_a & bit_b) == 1, -1.0, 1.0)
            mat = d[:, None] * mat * d[None, :]
    return mat


def _random_pauli(n: int, rng: random.Random) -> PauliOp:
    from .gf2 import BitVec

    return PauliOp(n, BitVec(n, rng.getrandbits(n)), BitVec(n, rng.getrandbits(n)),
                   rng.randrange(4))


def _random_circuit(n: int, depth: int, rng: random.Random) -> CliffordCircuit:
    gates = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(n), 2)
            gates.append(("CZ", a, b))
        else:
            gates.append(("H", rng.randrange(n)))
    return CliffordCircuit(n, gates)


def check_dense_oracles(cases: int = 500, seed: int = 77) -> CheckResult:
    """12: symplectic conjugation and multiplication match 2^n matrices, phases included."""
    import numpy as np

    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randint(1, 6) if case % 10 else rng.randint(7, 10)
        p = _random_pauli(n, rng)
        q = _random_pauli(n, rng)
        # A 2^10 x 2^10 matrix takes 16 MB: the dense side of each comparison
        # is finished before the symplectic side is expanded, so fewer are alive.
        expected = _dense_pauli(p) @ _dense_pauli(q)
        if not np.allclose(_dense_pauli(multiply(p, q)), expected):
            return CheckResult(12, "dense oracle agreement", False,
                               f"multiplication mismatch at case {case}")
        circ = _random_circuit(n, rng.randint(1, 6), rng)
        expected = _dense_conjugate(p, circ)
        if not np.allclose(_dense_pauli(conjugate_by_circuit(p, circ)), expected):
            return CheckResult(12, "dense oracle agreement", False,
                               f"conjugation mismatch at case {case}")
    return CheckResult(12, "dense oracle agreement", True, f"{cases} randomized cases, n <= 10")


def check_code_parameters() -> CheckResult:
    """13: Bacon-Shor (9,1,4,4), GCC self-dual, toric torus k=2."""
    problems = []
    bs = code_parameters(build_bacon_shor(3))
    if (bs.n, bs.k, bs.stabilizer_rank, bs.gauge_qubits) != (9, 1, 4, 4):
        problems.append(f"Bacon-Shor parameters {bs}")
    gcc = build_gcc(2)
    if not is_self_dual(gcc):
        problems.append("GCC is not self-dual")
    toric = code_parameters(build_toric(2, 3, 1))
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
