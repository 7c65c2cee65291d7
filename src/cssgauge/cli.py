"""Command-line front end.

Thin composition of the library: build codes, run the duality maps,
emit JSON reports and exchange files.  Exit codes: 0 ok, 1 a check
failed, 2 usage error.

The flag contract: a command declares only the flags it reads, and
``--code`` offers only the codes it runs.  The code flags (``--D``,
``--k``, ``--boundary``, ``--partial``, ``--hamiltonian``) are read per
code, as ``CODES`` lists; one given to a code that does not read it is
a usage error, raised before anything is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import catalog
from .analysis import code_parameters, commuting_check, components
from .builders import (
    build_bacon_shor,
    build_color_code_2d,
    build_fractal_code,
    build_gcc,
    build_toric,
    build_toric_sphere,
    build_xu_moore,
)
from .codes import gauge_hamiltonian, y_gauge_hamiltonian
from .sptwall import Region, find_cz_disentangler, spt_pipeline
from .ungauge import setup_report, strip_identity_terms, ungauge_hamiltonian
from .verify import run_all


class UsageError(Exception):
    pass


def _toric_model(model: Callable, dim: int) -> Callable:
    """The worked toric model ``model(L)``; --D and --k are accepted only at its values."""
    def run(L, D, k):
        for flag, given, value in (("D", D, dim), ("k", k, 1)):
            if given is not None and given != value:
                raise UsageError(f"ungauge runs this toric code at --{flag} {value} only, "
                                 f"not --{flag} {given}")
        return model(L)
    return run


def _gcc_model(L, hamiltonian):
    """The worked GCC model, mapping the gauge Hamiltonian of the ``hamiltonian`` kinds."""
    model = catalog.gcc_model(L)
    if hamiltonian == "Y":
        model.hamiltonian = y_gauge_hamiltonian(model.code)
    elif hamiltonian != "XZ":
        model.hamiltonian = gauge_hamiltonian(model.code, kinds=hamiltonian)
    return model


class Code(NamedTuple):
    """How the commands run one ``--code``.

    ``build`` (build, export, spt) and ``model`` (ungauge) are called as
    ``f(L, **flags)`` with the code flags the command reads for this
    code, each given or else defaulted as ``reads[command]`` states.
    The entries call through module names, so a wrapper installed on a
    module attribute after import (``perfbench/tracer.py``) sees the call.
    """

    build: Optional[Callable]
    model: Optional[Callable]
    reads: dict[str, dict]


_PINNED = {"D": None, "k": None}
CODES = {
    "toric2d": Code(lambda L: build_toric(2, L, 1),
                    _toric_model(lambda L: catalog.toric_torus_model(L), 2),
                    {"build": {}, "export": {}, "ungauge": _PINNED, "spt": {}}),
    "toric3d": Code(lambda L, k: build_toric(3, L, k),
                    _toric_model(lambda L: catalog.toric3d_model(L), 3),
                    {"build": {"k": 1}, "export": {"k": 1}, "ungauge": _PINNED}),
    "toric": Code(lambda L, D, k: build_toric(D, L, k),
                  _toric_model(lambda L: catalog.toric_torus_model(L), 2),
                  {"build": {"D": 2, "k": 1}, "export": {"D": 2, "k": 1}, "ungauge": _PINNED}),
    "toric-sphere": Code(lambda L: build_toric_sphere(),
                         lambda L: catalog.toric_sphere_model(),
                         {"build": {}, "export": {}, "ungauge": {}}),
    "bacon-shor": Code(lambda L: build_bacon_shor(L), lambda L: catalog.bacon_shor_model(L),
                       {"build": {}, "export": {}, "ungauge": {}}),
    "xu-moore": Code(lambda L: build_xu_moore(L), None, {"build": {}, "gauge": {}}),
    "color2d": Code(lambda L: build_color_code_2d(L),
                    lambda L, partial: catalog.color2d_partial_model(L, partial),
                    {"build": {}, "export": {}, "ungauge": {"partial": "c"}}),
    "gcc": Code(lambda L: build_gcc(L), _gcc_model,
                {"build": {}, "export": {}, "ungauge": {"hamiltonian": "XZ"}}),
    # spt defaults to the open y boundary: the torus admits no fractal symmetries.
    "fractal": Code(lambda L, boundary: build_fractal_code(L, boundary),
                    lambda L, boundary: catalog.fractal_model(L, boundary),
                    {"build": {"boundary": "periodic"}, "export": {"boundary": "periodic"},
                     "ungauge": {"boundary": "periodic"}, "spt": {"boundary": "open_y"}}),
}
# The argparse keywords of each code flag; the defaults are per code, in ``CODES``.
CODE_FLAGS = {
    "D": {"type": int, "help": "spatial dimension (toric)"},
    "k": {"type": int, "help": "toric code type (toric, toric3d)"},
    "boundary": {"choices": ("periodic", "open_y"),
                 "help": "fractal code boundary (default: periodic; spt: open_y)"},
    "partial": {"help": "color whose Z stabilizers are ungauged (color2d; default: c)"},
    "hamiltonian": {"choices": ("X", "Z", "Y", "XZ"),
                    "help": "which gauge Hamiltonian to map (gcc; default: XZ)"},
}


def _construct(args, command: str):
    """The code (for ungauge, the worked model) that ``command`` runs for ``--code``."""
    code = CODES[args.code]
    reads = code.reads[command]
    flags = {}
    for flag in CODE_FLAGS:
        given = getattr(args, flag, None)
        if flag in reads:
            flags[flag] = reads[flag] if given is None else given
        elif given is not None:
            raise UsageError(f"{command} --code {args.code} takes no --{flag}")
    make = code.model if command == "ungauge" else code.build
    return make(args.L, **flags)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_build(args) -> int:
    code = _construct(args, "build")
    if args.code == "xu-moore":
        out = _out_dir(args)
        _write_json(out / "xu-moore.json", {
            "n": code.n,
            "hamiltonian": code.hamiltonian.to_json(),
            "emergent_row_symmetries": [p.to_json() for p in code.emergent],
            "preserved_column_symmetries": [p.to_json() for p in code.preserved],
        })
        print(f"xu-moore L={args.L}: n={code.n}, {len(code.hamiltonian)} terms -> {out}")
        return 0
    params = code_parameters(code)
    out = _out_dir(args)
    data = code.to_json()
    data["parameters"] = {
        "n": params.n, "k": params.k, "stabilizer_rank": params.stabilizer_rank,
        "gauge_rank": params.gauge_rank, "gauge_qubits": params.gauge_qubits,
    }
    data["complex"] = code.css_complex().to_json()
    _write_json(out / f"{code.name}.json", data)
    if code.lattice is not None:
        (out / f"{code.name}.dot").write_text(code.lattice.incidence_dot(1) + "\n")
    print(f"{code.name}: n={params.n}, k={params.k}, "
          f"stabilizer rank {params.stabilizer_rank}, gauge qubits {params.gauge_qubits}"
          f" -> {out}")
    return 0


def cmd_ungauge(args) -> int:
    model = _construct(args, "ungauge")
    mapped = ungauge_hamiltonian(model.hamiltonian, model.setup)
    stripped, dropped = strip_identity_terms(mapped)
    report = setup_report(model.setup, mapped=stripped,
                          commutation_pairs=args.pairs, seed=args.seed)
    rep = components(stripped)
    report["result"] = {
        "n_fin": model.setup.n_fin,
        "emergent_x": [op["x"] for op in report["emergent"]],
        "preserved_x_fin": [op["x"] for op in report["preserved"]],
        "mapped_terms": report["mapped_terms"],
    }
    report["components"] = rep.to_json()
    report["identity_images"] = dropped
    out = _out_dir(args)
    _write_json(out / f"ungauge-{model.name}.json", report)
    ok = (report["dim_check"] and report["annihilated_generators"]["all_identity"]
          and report.get("commutation_preserved", True))
    print(f"{model.name}: {len(stripped)} mapped terms, {rep.count} components, "
          f"dim_check={report['dim_check']}, annihilation="
          f"{report['annihilated_generators']['all_identity']} -> {out}")
    return 0 if ok else 1


def cmd_gauge(args) -> int:
    chk = catalog.xu_moore_check(args.L)
    out = _out_dir(args)
    report = {
        "partial_gauge_matches_bacon_shor": chk["regauged_matches_bacon_shor"],
        "full_gauge": chk["full_gauge_report"],
    }
    _write_json(out / "gauge-xu-moore.json", report)
    ok = chk["regauged_matches_bacon_shor"]
    if args.full:
        ok = ok and chk["full_gauge_report"]["support_multiset_match"]
    print(f"xu-moore L={args.L}: partial gauge -> Bacon-Shor: "
          f"{chk['regauged_matches_bacon_shor']}; full gauge Hadamard twist: "
          f"{chk['full_gauge_report']['support_multiset_match']}")
    return 0 if ok else 1


def _parse_slab(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise UsageError(f"bad slab argument {text!r}; expected lo:hi") from None
    if hi <= lo:
        raise UsageError(f"empty slab {text!r}; expected lo < hi")
    return lo, hi


def cmd_spt(args) -> int:
    code = _construct(args, "spt")
    region = Region.slab(code, *_parse_slab(args.slab))
    if not region.sites:
        raise UsageError(f"slab {args.slab!r} selects no qubits of {code.name} at L={args.L}")
    result = spt_pipeline(code, region)
    circuit = find_cz_disentangler(result.wall_hamiltonian)
    report = dict(result.report)
    report["wall_hamiltonian"] = result.wall_hamiltonian.to_json()
    report["symmetries"] = [p.to_json() for p in result.symmetries]
    report["disentangler"] = circuit.to_json() if circuit is not None else None
    report["wall_commutes"] = commuting_check(result.wall_hamiltonian)
    out = _out_dir(args)
    _write_json(out / f"spt-{code.name}.json", report)
    ok = (report["bulk_trivial"] and report["group_preserved"]
          and report["wall_commutes"] and circuit is not None)
    print(f"{code.name} slab {args.slab}: {report['wall_terms']} wall terms, "
          f"{report['symmetry_count']} wall symmetries, "
          f"disentangler={'yes' if circuit is not None else 'no'} -> {out}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    results = run_all(commutation_pairs=args.pairs, oracle_cases=args.cases,
                      seed=args.seed)
    for r in results:
        print(r.line())
    if args.out:
        _write_json(_out_dir(args) / "verify.json",
                    [{"criterion": r.criterion, "name": r.name,
                      "passed": r.passed, "details": r.details} for r in results])
    return 0 if all(r.passed for r in results) else 1


def cmd_export(args) -> int:
    code = _construct(args, "export")
    out = _out_dir(args)
    what = args.what
    if what == "lattice":
        if code.lattice is None:
            raise UsageError(f"{code.name} has no lattice to export")
        _write_json(out / f"{code.name}-lattice.json", code.lattice.to_json())
        (out / f"{code.name}-incidence.dot").write_text(code.lattice.incidence_dot(1) + "\n")
    elif what == "complex":
        _write_json(out / f"{code.name}-complex.json", code.css_complex().to_json())
    else:
        cx = code.css_complex()
        _write_json(out / f"{code.name}-dz.json", cx.d_z.to_json())
        _write_json(out / f"{code.name}-dx.json", cx.d_x.to_json())
    print(f"exported {what} for {code.name} -> {out}")
    return 0


def _code_command(sub, command: str, help: str, func) -> argparse.ArgumentParser:
    """The subparser of a command that runs a ``--code``: --code offers the codes it runs,
    and the code flags declared are those some code of it reads."""
    p = sub.add_parser(command, help=help)
    codes = [name for name, code in CODES.items() if command in code.reads]
    p.add_argument("--code", required=True, choices=codes)
    p.add_argument("--L", type=int, default=3, help="linear lattice size")
    for flag, spec in CODE_FLAGS.items():
        if any(flag in CODES[code].reads[command] for code in codes):
            p.add_argument(f"--{flag}", **spec)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=func)
    return p


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cssgauge",
        description="gauging/ungauging duality for CSS stabilizer and subsystem codes")
    sub = parser.add_subparsers(dest="command", required=True)

    _code_command(sub, "build", "build a code and write its JSON/DOT files", cmd_build)

    p_un = _code_command(sub, "ungauge", "run the ungauging map and report", cmd_ungauge)
    p_un.add_argument("--pairs", type=int, default=200,
                      help="random pairs for the commutation check")
    p_un.add_argument("--seed", type=int, default=20240)

    p_g = _code_command(sub, "gauge", "gauge X symmetries back (Xu-Moore -> Bacon-Shor)",
                        cmd_gauge)
    p_g.add_argument("--full", action="store_true",
                     help="also require the full-gauging Hadamard twist to match")

    p_spt = _code_command(sub, "spt", "domain-wall SPT pipeline", cmd_spt)
    p_spt.add_argument("--slab", required=True, help="slab extent lo:hi along the slab axis")

    p_v = sub.add_parser("verify", help="run the full acceptance battery")
    p_v.add_argument("--pairs", type=int, default=1000)
    p_v.add_argument("--cases", type=int, default=500)
    p_v.add_argument("--seed", type=int, default=20240)
    p_v.add_argument("--out", default=None)
    p_v.set_defaults(func=cmd_verify)

    p_e = _code_command(sub, "export", "export lattices, complexes or matrices", cmd_export)
    p_e.add_argument("--what", required=True, choices=("lattice", "complex", "matrices"))
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
