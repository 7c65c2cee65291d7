"""Outside-in span tracer for the cssgauge benchmark.

``Tracer.install`` replaces each boundary function listed in
``BOUNDARIES`` with a timing wrapper, in every ``cssgauge`` module
namespace that bound it (``from .gf2 import rank`` makes a second
binding in the importing module) and, for methods, on the class.
Each call appends one span ``[name, start, end, parent]`` to a list in
memory; ``layer_metrics`` turns the list into the per-layer metrics
after the run.  Nothing under ``src/`` is edited, and per-element
primitives (``symplectic_product``, ``BitVec`` operations) are never
wrapped: their counts are derived from sizes by the count hooks.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _count(key, size):
    """A hook adding ``size(args, kwargs, result)`` to counter ``key``."""
    def hook(counts, args, kwargs, result):
        counts[key] += size(args, kwargs, result)
    return hook


def _gram_pairs(args, kwargs, result):
    code = args[0] if args else kwargs["code"]
    m = len(code.gauge_x) + len(code.gauge_z)
    return m * m


def _preserved(args, kwargs, result):
    return len(result.preserved_x_ini)


def _terms(args, kwargs, result):
    return len(args[0] if args else kwargs["h"])


def _pairs(args, kwargs, result):
    if len(args) > 1:
        return args[1]
    return kwargs.get("pairs", 1000)


def _setup_n_fin(args, kwargs, result):
    return result.n_fin


def _qubits(args, kwargs, result):
    return result.n


_BUILT = (_count("builders.qubits", _qubits),)

# (defining module, attribute or Class.method, count hooks); the span is
# named "module.attribute".
BOUNDARIES = [
    ("gf2", "rank", ()),
    ("gf2", "kernel_basis", ()),
    ("gf2", "solve", ()),
    ("gf2", "row_space_contains", ()),
    ("gf2", "is_zero_product", ()),
    ("gf2", "LinearSolver.__init__", ()),
    ("gf2", "LinearSolver.solve", ()),
    ("gf2", "BitMatrix.transpose", ()),
    ("gf2", "BitMatrix.column", ()),
    ("chains", "css_logical_reps", ()),
    ("chains", "_coset_representatives", ()),
    ("ungauge", "make_setup", (_count("ungauge.preserved", _preserved),
                               _count("ungauge.setup_n_fin", _setup_n_fin))),
    ("ungauge", "ungauge_hamiltonian", (_count("ungauge.map_terms", _terms),)),
    ("ungauge", "gauge_hamiltonian", (_count("ungauge.map_terms", _terms),)),
    ("ungauge", "full_gauge_hamiltonian", ()),
    ("ungauge", "full_gauge_comparison", ()),
    ("ungauge", "setup_report", ()),
    ("ungauge", "commutation_preservation_check", (_count("ungauge.commutation_pairs", _pairs),)),
    ("pauli", "GroupMembership.__init__", ()),
    ("pauli", "GroupMembership.contains", ()),
    ("pauli", "in_group", ()),
    ("pauli", "group_rank", ()),
    ("pauli", "conjugate_by_circuit", ()),
    ("lattice", "CellComplex.generalized_boundary", ()),
    ("lattice", "CellComplex.sublattice", ()),
    ("lattice", "hypercubic_torus", ()),
    ("lattice", "octahedron_sphere", ()),
    ("lattice", "triangular_torus", ()),
    ("lattice", "gcc_lattice", ()),
    ("lattice", "color_pair_sublattice", ()),
    ("builders", "toric_code_from_complex", ()),
    *[("builders", f, _BUILT) for f in ("build_toric", "build_toric_sphere", "build_bacon_shor",
                                         "build_xu_moore", "build_color_code_2d", "build_gcc",
                                         "build_fractal_code")],
    ("codes", "gauge_hamiltonian", ()),
    ("codes", "y_gauge_hamiltonian", ()),
    ("codes", "stabilizer_hamiltonian", ()),
    ("codes", "gauge_group_rank", ()),
    ("codes", "stabilizer_ranks", ()),
    ("analysis", "code_parameters", (_count("analysis.gram_pairs", _gram_pairs),)),
    ("analysis", "components", ()),
    ("analysis", "commuting_check", ()),
    ("analysis", "find_noncommuting_pair", ()),
    ("sptwall", "transversal_cz_is_logical", ()),
    ("sptwall", "domain_wall", ()),
    ("sptwall", "find_cz_disentangler", ()),
    ("sptwall", "spt_pipeline", ()),
    *[("catalog", f, ()) for f in ("toric_setup", "toric_sphere_model", "toric_torus_model",
                                   "toric3d_model", "bacon_shor_model", "xu_moore_check",
                                   "gcc_model", "full_gauge_lgt", "gcc_phase_hamiltonians",
                                   "fractal_model", "color2d_partial_model", "worked_models")],
    ("verify", "check_dense_oracles", ()),
    ("verify", "run_all", ()),
    ("cli", "main", ()),
]


def _spans(module, *prefixes):
    """Span names of ``module``'s boundaries, those starting with a prefix if any are given."""
    return tuple(f"{m}.{a}" for m, a, _ in BOUNDARIES
                 if m == module and a.startswith(prefixes or ("",)))


_ELIM = ("gf2.rank", "gf2.kernel_basis", "gf2.solve", "gf2.row_space_contains",
         "gf2.is_zero_product", "gf2.LinearSolver.__init__")
_MEMBERSHIP = ("pauli.GroupMembership.__init__", "pauli.GroupMembership.contains",
               "pauli.in_group")
_QUERIES = ("pauli.GroupMembership.contains", "pauli.in_group")

# Per-layer metric -> (kind, span names or counter, unit).  "self" sums
# each span's duration minus its child spans; "total" sums the outermost
# spans of the group (recursion is not counted twice); "calls" counts
# spans; "count" reads a counter filled by a hook.
LAYER_METRICS = {
    "gf2.elim_s": ("self", _ELIM, "s"),
    "gf2.elim_calls": ("calls", _ELIM, "count"),
    "gf2.transpose_s": ("self", ("gf2.BitMatrix.transpose",), "s"),
    "gf2.transpose_calls": ("calls", ("gf2.BitMatrix.transpose",), "count"),
    "gf2.column_s": ("self", ("gf2.BitMatrix.column",), "s"),
    "gf2.column_calls": ("calls", ("gf2.BitMatrix.column",), "count"),
    "gf2.query_s": ("self", ("gf2.LinearSolver.solve",), "s"),
    "gf2.query_calls": ("calls", ("gf2.LinearSolver.solve",), "count"),
    "chains.coset_s": ("total", _spans("chains"), "s"),
    "chains.coset_calls": ("calls", ("chains._coset_representatives",), "count"),
    "ungauge.make_setup_s": ("total", ("ungauge.make_setup",), "s"),
    "ungauge.preserved": ("count", "ungauge.preserved", "count"),
    "ungauge.setup_n_fin": ("count", "ungauge.setup_n_fin", "count"),
    "ungauge.map_s": ("self", _spans("ungauge", "ungauge_ham", "gauge_ham", "full_gauge"), "s"),
    "ungauge.map_terms": ("count", "ungauge.map_terms", "count"),
    "ungauge.report_s": ("total", ("ungauge.setup_report",), "s"),
    "ungauge.commutation_pairs": ("count", "ungauge.commutation_pairs", "count"),
    "pauli.membership_s": ("self", _MEMBERSHIP, "s"),
    "pauli.membership_queries": ("calls", _QUERIES, "count"),
    "pauli.group_rank_s": ("self", ("pauli.group_rank",), "s"),
    "pauli.conjugate_s": ("self", ("pauli.conjugate_by_circuit",), "s"),
    "pauli.conjugate_calls": ("calls", ("pauli.conjugate_by_circuit",), "count"),
    "lattice.boundary_s": ("self", ("lattice.CellComplex.generalized_boundary",), "s"),
    "lattice.boundary_calls": ("calls", ("lattice.CellComplex.generalized_boundary",), "count"),
    "lattice.build_s": ("self", _spans("lattice", "CellComplex.sublattice", "hypercubic",
                                       "octahedron", "triangular", "gcc", "color"), "s"),
    "builders.build_s": ("total", _spans("builders"), "s"),
    "builders.qubits": ("count", "builders.qubits", "count"),
    "codes.hamiltonian_s": ("self", _spans("codes", "gauge_ham", "y_gauge", "stabilizer_ham"),
                            "s"),
    "codes.gauge_rank_s": ("self", ("codes.gauge_group_rank", "codes.stabilizer_ranks"), "s"),
    "analysis.code_parameters_s": ("self", ("analysis.code_parameters",), "s"),
    "analysis.gram_pairs": ("count", "analysis.gram_pairs", "count"),
    "analysis.components_s": ("self", ("analysis.components",), "s"),
    "analysis.commuting_s": ("self", ("analysis.commuting_check",
                                      "analysis.find_noncommuting_pair"), "s"),
    "sptwall.cz_logical_s": ("self", ("sptwall.transversal_cz_is_logical",), "s"),
    "sptwall.domain_wall_s": ("self", ("sptwall.domain_wall",), "s"),
    "sptwall.disentangler_s": ("self", ("sptwall.find_cz_disentangler",), "s"),
    "sptwall.pipeline_s": ("total", ("sptwall.spt_pipeline",), "s"),
    "catalog.model_s": ("total", _spans("catalog"), "s"),
    "verify.dense_oracle_s": ("total", ("verify.check_dense_oracles",), "s"),
    "verify.battery_s": ("total", ("verify.run_all",), "s"),
    "cli.self_s": ("self", ("cli.main",), "s"),
}


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, hooks=()):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for hook in hooks:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every boundary; the cssgauge modules must be imported already."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cssgauge" or n.startswith("cssgauge.")]
        for module_name, attr, hooks in BOUNDARIES:
            name = f"{module_name}.{attr}"
            owner = sys.modules[f"cssgauge.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], hooks))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans and counters."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    out = {}
    for metric, (kind, names, _unit) in LAYER_METRICS.items():
        if kind == "count":
            out[metric] = trace["counts"].get(names, 0)
            continue
        group = set(names)
        value = 0.0
        for i in (i for name in names for i in by_name.get(name, ())):
            _name, start, end, parent = spans[i]
            if kind == "calls":
                value += 1
            elif kind == "self":
                value += end - start - child[i]
            elif not _inside(spans, parent, group):
                value += end - start
        out[metric] = value
    return out


def _inside(spans, parent, group) -> bool:
    while parent >= 0:
        if spans[parent][0] in group:
            return True
        parent = spans[parent][3]
    return False
