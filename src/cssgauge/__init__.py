"""Gauging and ungauging duality for CSS stabilizer and subsystem codes.

Exact GF(2) chain-complex computations: code builders for toric,
Bacon-Shor, Xu-Moore, color, gauge-color and fractal codes; the
ungauging map and its inverse, including partial and full gauging; and
the domain-wall construction of SPT Hamiltonians from transversal CZ.
"""

from .gf2 import BitMatrix, BitVec, is_zero_product, kernel_basis, rank, solve
from .pauli import (
    CliffordCircuit,
    Hamiltonian,
    PauliOp,
    Term,
    conjugate_by_circuit,
    multiply,
    symplectic_product,
    transversal_hadamard,
)
from .chains import (
    ChainComplex,
    LabeledBasis,
    augment_with_logicals,
    css_logical_reps,
    homology_dim,
    validate,
)
from .lattice import CellComplex
from .codes import CssSubsystemCode, gauge_hamiltonian, stabilizer_hamiltonian, y_gauge_hamiltonian
from .builders import (
    build_bacon_shor,
    build_color_code_2d,
    build_fractal_code,
    build_gcc,
    build_toric,
    build_toric_sphere,
    build_xu_moore,
    toric_code_from_complex,
)
from .ungauge import (
    UngaugeSetup,
    dim_check,
    emergent_symmetries,
    full_gauge_comparison,
    gauge_pauli,
    make_setup,
    preserved_symmetries,
    ungauge_hamiltonian,
    ungauge_pauli,
)
from .analysis import (
    code_parameters,
    commuting_check,
    components,
    is_self_dual,
    match_against_builder,
)
from .sptwall import (
    Region,
    domain_wall,
    dual_code,
    find_cz_disentangler,
    spt_pipeline,
    tensor_code,
    transversal_cz_is_logical,
)

__version__ = "0.1.0"
