"""Command-line front end.

Thin composition of the library: build codes, run the duality maps,
emit JSON reports and exchange files.  Exit codes: 0 ok, 1 a check
failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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

BUILDERS = ("toric2d", "toric3d", "toric", "toric-sphere", "bacon-shor",
            "xu-moore", "color2d", "gcc", "fractal")


class UsageError(Exception):
    pass


def _build_code(args):
    code = args.code
    if code == "toric2d":
        return build_toric(2, args.L, 1)
    if code == "toric3d":
        return build_toric(3, args.L, args.k or 1)
    if code == "toric":
        return build_toric(args.D or 2, args.L, args.k or 1)
    if code == "toric-sphere":
        return build_toric_sphere()
    if code == "bacon-shor":
        return build_bacon_shor(args.L)
    if code == "color2d":
        return build_color_code_2d(args.L)
    if code == "gcc":
        return build_gcc(args.L)
    if code == "fractal":
        return build_fractal_code(args.L, args.boundary or "periodic")
    raise UsageError(f"no builder for {code!r}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_build(args) -> int:
    if args.code == "xu-moore":
        xm = build_xu_moore(args.L)
        out = _out_dir(args)
        _write_json(out / "xu-moore.json", {
            "n": xm.n,
            "hamiltonian": xm.hamiltonian.to_json(),
            "emergent_row_symmetries": [p.to_json() for p in xm.emergent],
            "preserved_column_symmetries": [p.to_json() for p in xm.preserved],
        })
        print(f"xu-moore L={args.L}: n={xm.n}, {len(xm.hamiltonian)} terms -> {out}")
        return 0
    code = _build_code(args)
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


# (--D, --k) of the model that ``ungauge`` runs for each toric code name;
# the other codes take neither flag.
_WORKED_TORIC = {"toric2d": (2, 1), "toric": (2, 1), "toric3d": (3, 1)}


def _worked_model(args):
    code = args.code
    runs = _WORKED_TORIC.get(code, (None, None))
    for flag, given, value in zip(("--D", "--k"), (args.D, args.k), runs):
        if given is not None and given != value:
            raise UsageError(f"ungauge --code {code} takes no {flag}" if value is None else
                             f"ungauge --code {code} runs {flag} {value} only, not {flag} {given}")
    if code in ("toric2d", "toric"):
        return catalog.toric_torus_model(args.L)
    if code == "toric3d":
        return catalog.toric3d_model(args.L)
    if code == "toric-sphere":
        return catalog.toric_sphere_model()
    if code == "bacon-shor":
        return catalog.bacon_shor_model(args.L)
    if code == "gcc":
        return catalog.gcc_model(args.L)
    if code == "fractal":
        return catalog.fractal_model(args.L, args.boundary or "periodic")
    if code == "color2d":
        return catalog.color2d_partial_model(args.L, args.partial or "c")
    raise UsageError(f"no ungauging setup for {code!r}")


def cmd_ungauge(args) -> int:
    model = _worked_model(args)
    h = model.hamiltonian
    if args.code == "gcc" and args.hamiltonian != "XZ":
        kind = args.hamiltonian
        if kind == "Y":
            h = y_gauge_hamiltonian(model.code)
        else:
            h = gauge_hamiltonian(model.code, kinds=kind)
    mapped = ungauge_hamiltonian(h, model.setup)
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
    if args.code != "xu-moore":
        raise UsageError("gauging is wired for --code xu-moore (back to Bacon-Shor)")
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
    if args.code not in ("toric2d", "fractal"):
        raise UsageError("spt pipeline is wired for --code toric2d or fractal")
    if args.code == "toric2d":
        code = build_toric(2, args.L, 1)
    else:
        # Open y boundary by default: the torus admits no fractal symmetries.
        boundary = args.boundary or "open_y"
        code = build_fractal_code(args.L, boundary)
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
    code = _build_code(args)
    out = _out_dir(args)
    what = args.what
    if what == "lattice":
        if code.lattice is None:
            raise UsageError(f"{code.name} has no lattice to export")
        _write_json(out / f"{code.name}-lattice.json", code.lattice.to_json())
        (out / f"{code.name}-incidence.dot").write_text(code.lattice.incidence_dot(1) + "\n")
    elif what == "complex":
        _write_json(out / f"{code.name}-complex.json", code.css_complex().to_json())
    elif what == "matrices":
        cx = code.css_complex()
        _write_json(out / f"{code.name}-dz.json", cx.d_z.to_json())
        _write_json(out / f"{code.name}-dx.json", cx.d_x.to_json())
    else:
        raise UsageError(f"unknown export target {what!r}")
    print(f"exported {what} for {code.name} -> {out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cssgauge",
        description="gauging/ungauging duality for CSS stabilizer and subsystem codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, code=True):
        if code:
            p.add_argument("--code", required=True, choices=BUILDERS)
        p.add_argument("--L", type=int, default=3, help="linear lattice size")
        p.add_argument("--D", type=int, default=None, help="spatial dimension (toric)")
        p.add_argument("--k", type=int, default=None, help="toric code type")
        p.add_argument("--boundary", default=None,
                       choices=("periodic", "open_y"),
                       help="fractal code boundary (default: periodic; spt defaults to open_y)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=20240)

    p_build = sub.add_parser("build", help="build a code and write its JSON/DOT files")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_un = sub.add_parser("ungauge", help="run the ungauging map and report")
    common(p_un)
    p_un.add_argument("--hamiltonian", default="XZ", choices=("X", "Z", "Y", "XZ"),
                      help="which gauge Hamiltonian to map (gcc)")
    p_un.add_argument("--partial", default=None,
                      help="color whose Z stabilizers are ungauged (color2d)")
    p_un.add_argument("--pairs", type=int, default=200,
                      help="random pairs for the commutation check")
    p_un.set_defaults(func=cmd_ungauge)

    p_g = sub.add_parser("gauge", help="gauge X symmetries back (Xu-Moore -> Bacon-Shor)")
    common(p_g)
    p_g.add_argument("--full", action="store_true",
                     help="also require the full-gauging Hadamard twist to match")
    p_g.set_defaults(func=cmd_gauge)

    p_spt = sub.add_parser("spt", help="domain-wall SPT pipeline")
    common(p_spt)
    p_spt.add_argument("--slab", required=True, help="slab extent lo:hi along the slab axis")
    p_spt.set_defaults(func=cmd_spt)

    p_v = sub.add_parser("verify", help="run the full acceptance battery")
    p_v.add_argument("--all", action="store_true", help="run every check (default)")
    p_v.add_argument("--L", type=int, default=2, help="accepted for symmetry with other commands")
    p_v.add_argument("--pairs", type=int, default=1000)
    p_v.add_argument("--cases", type=int, default=500)
    p_v.add_argument("--seed", type=int, default=20240)
    p_v.add_argument("--out", default=None)
    p_v.set_defaults(func=cmd_verify)

    p_e = sub.add_parser("export", help="export lattices, complexes or matrices")
    common(p_e)
    p_e.add_argument("--what", required=True, choices=("lattice", "complex", "matrices"))
    p_e.set_defaults(func=cmd_export)
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
