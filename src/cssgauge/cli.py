"""Command-line front end.

Thin composition of the library: build codes, run the duality maps,
emit JSON reports and exchange files.  Exit codes: 0 ok, 1 a check
failed or the maps met an internal inconsistency (an ``UngaugeError``,
reported without a traceback), 2 usage error or a report file that could
not be written (an ``OSError``, reported as one ``error:`` line).

The flag contract: a command declares only the flags it reads, and
``--code`` offers only the codes it runs.  The code flags (``--D``,
``--k``, ``--boundary``, ``--partial``, ``--hamiltonian``) are read per
code, as ``CODES`` lists; one given to a code that does not read it is
a usage error, raised before anything is written.  So is ``--L`` given
to a code of one size (``toric-sphere``), a negative count (``--pairs``,
``--cases``), and an ``--out`` that names, or lies under, an existing
file that is not a directory; that one is raised before any work.

A report holds dicts (keyed by str, int, bool or None), lists, tuples,
strings, ints, bools, None, ``Term``s and ``PauliOp``s, and its file
holds exactly the bytes of ``json.dumps(data, indent=2, sort_keys=True)``
and a newline, each Term and PauliOp written as its ``to_json()``.  So
the commands put the engine's terms and symmetries in their reports and
build no dict for them.  One renderer, ``_pieces``, walks the value and
streams its text to the file (the stdlib falls back to pure Python
whenever ``indent`` is set).  It raises ``TypeError`` on any other
value, a float included, and ``ValueError`` on a cycle.  A dict is
written key by key.  A list that holds a dict, a Term or a PauliOp goes
``CHUNK`` elements a piece, so memory follows the largest piece, not the
report; any other list is one piece.  One template rule (``_filled``)
renders a list, or a chunk, at C speed: strs and ints are joined, a list
of int lists takes one ``%d`` template per length, and a list of Terms
or of PauliOps one template per (x weight, z weight), filled from the
slots and supports (``_operators``); each by one ``%``.  A list that
does not fit (a dict, mixed kinds, a bool or None among ints, a foreign
value, a name that is not a str) is written element by element.  A
write that fails part way removes the file.

The parser: each command's flags are one declaration, ``_flags``, from
which ``make_parser`` builds each subparser (``_define``).  A plain
command line (``_plain`` states which) is read from that declaration
into a ``types.SimpleNamespace`` with no parser built and argparse not
imported, since a fresh process's first argparse parser costs about
2 ms (``gettext`` imports ``locale``, patterns compile), a fifth of
``ungauge --code gcc --L 2``, and ``import argparse`` alone another
1.6 ms.  Anything else (help, an
abbreviation, ``--flag=value``, a repeated flag, a refused value) goes to
argparse, so help, errors and exit codes are its own: ``main`` builds
only the parser of the command that ``argv[0]`` names, the subparser
``make_parser`` would run, and any other input, and arguments left over
after the command's own (which the full parser reports under its own
prog), go to the full parser.
"""

from __future__ import annotations

import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

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
from .pauli import PauliOp, Term
from .sptwall import Region, find_cz_disentangler, spt_pipeline
from .ungauge import UngaugeError, setup_report, strip_identity_terms, ungauge_hamiltonian
from .verify import run_all

if TYPE_CHECKING:
    import argparse


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


DEFAULT_L = 3      # the --L of a sized code that states no other


class Code(NamedTuple):
    """How the commands run one ``--code``.

    ``build`` (build, export, spt) and ``model`` (ungauge: the worked
    model; gauge: the gauging check) are called as ``f(L, **flags)``
    with the code flags the command reads for this code, each given or
    else defaulted as ``reads[command]`` states.  ``L`` is ``--L`` or
    else ``default_L``; a code of one size (``default_L`` None) is
    called without it.
    The entries call through module names, so a wrapper installed on a
    module attribute after import (``perfbench/tracer.py``) sees the call.
    """

    build: Callable
    model: Callable
    reads: dict[str, dict]
    default_L: Optional[int] = DEFAULT_L


_PINNED = {"D": None, "k": None}
CODES = {
    "toric2d": Code(lambda L: build_toric(2, L, 1),
                    _toric_model(lambda L: catalog.toric_torus_model(L), 2),
                    {"build": {}, "export": {}, "ungauge": _PINNED, "spt": {}}),
    "toric3d": Code(lambda L, k: build_toric(3, L, k),
                    _toric_model(lambda L: catalog.toric3d_model(L), 3),
                    {"build": {"k": 1}, "export": {"k": 1}, "ungauge": _PINNED, "spt": {"k": 1}}),
    "toric": Code(lambda L, D, k: build_toric(D, L, k),
                  _toric_model(lambda L: catalog.toric_torus_model(L), 2),
                  {"build": {"D": 2, "k": 1}, "export": {"D": 2, "k": 1}, "ungauge": _PINNED,
                   "spt": {"D": 2, "k": 1}}),
    "toric-sphere": Code(lambda: build_toric_sphere(), lambda: catalog.toric_sphere_model(),
                         {"build": {}, "export": {}, "ungauge": {}}, default_L=None),
    "bacon-shor": Code(lambda L: build_bacon_shor(L), lambda L: catalog.bacon_shor_model(L),
                       {"build": {}, "export": {}, "ungauge": {}}),
    "xu-moore": Code(lambda L: build_xu_moore(L), lambda L: catalog.xu_moore_check(L),
                     {"build": {}, "gauge": {}}),
    "color2d": Code(lambda L: build_color_code_2d(L),
                    lambda L, partial: catalog.color2d_partial_model(L, partial),
                    {"build": {}, "export": {}, "ungauge": {"partial": "c"}}),
    # The gcc lattice coloring needs an even length.
    "gcc": Code(lambda L: build_gcc(L), _gcc_model,
                {"build": {}, "export": {}, "ungauge": {"hamiltonian": "XZ"}}, default_L=2),
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
    """The code (ungauge: the worked model; gauge: the gauging check) that
    ``command`` runs for ``--code``."""
    code = CODES[args.code]
    reads = code.reads[command]
    flags = {}
    for flag in CODE_FLAGS:
        given = getattr(args, flag, None)
        if flag in reads:
            flags[flag] = reads[flag] if given is None else given
        elif given is not None:
            raise UsageError(f"{command} --code {args.code} takes no --{flag}")
    make = code.model if command in ("ungauge", "gauge") else code.build
    if code.default_L is None:
        if args.L is not None:
            raise UsageError(f"{args.code} has one size; {command} takes no --L for it")
        return make(**flags)
    if args.L is None:
        args.L = code.default_L     # the commands' messages print the length too
    return make(args.L, **flags)


def _check_out(out: str) -> None:
    """``--out`` must name a directory or a path that can become one."""
    path = Path(out)
    for place in (path, *path.parents):
        if place.exists():
            if not place.is_dir():
                raise UsageError(f"--out {out!r}: {place} exists and is not a directory")
            return


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scalar(o):
    """The JSON text of None, a bool or an int; None for any other value."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return None


def _key(k) -> str:
    """A dict key, stringified as ``json.dumps`` does, then quoted."""
    text = k if isinstance(k, str) else _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, bool or None, not {k.__class__.__name__}")
    return _quote(text)


def _int_list(k: int, nl: str) -> str:
    """The template of a list of ``k`` ints written where ``nl`` starts its lines."""
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(["%d"] * k) + nl + "]" if k else "[]"


def _op_template(nl: str, wx: int, wz: int) -> str:
    """The template of ``PauliOp.to_json()`` for supports of weights ``wx`` and ``wz``:
    slots for n, the phase and the two supports."""
    inner = nl + "  "
    return ("{" + inner + '"n": %d,' + inner + '"phase": %d,' + inner + '"x": '
            + _int_list(wx, inner) + "," + inner + '"z": ' + _int_list(wz, inner) + nl + "}")


def _operators(col, nl: str):
    """The template rule (see ``_filled``) for Terms or PauliOps, all of one type: a
    shape per (x weight, z weight), with the ``%`` arguments read from the slots and
    the supports, as ``to_json()`` would hold them; None if a name or coupling is not
    a str."""
    named = type(col[0]) is Term
    shapes, values = [], []
    try:
        for t in col:
            op = t.op if named else t
            x, z = op.x.support, op.z.support
            shapes.append((len(x), len(z)))
            values.append((_quote(t.coupling), _quote(t.name), op.n, op.phase, *x, *z) if named
                          else (op.n, op.phase, *x, *z))
    except TypeError:       # _quote takes only a str
        return None
    if not named:
        return shapes, lambda shape: _op_template(nl, *shape), values
    inner = nl + "  "
    return (shapes, lambda shape: "{" + inner + '"coupling": %s,' + inner + '"name": %s,' + inner
            + '"op": ' + _op_template(inner, *shape) + nl + "}", values)


def _filled(o, nl: str, head: str, tail: str) -> Optional[str]:
    """``head``, the values ``o`` (not empty) each written where ``nl`` starts its
    lines and joined by ``","`` and ``nl``, and ``tail``, at C speed; None if ``o``
    does not fit the template rule.  Strs and ints are joined.  A list of int lists
    takes one template per length, with a ``%d`` slot per item; a list of Terms or
    of PauliOps one per (x weight, z weight) (``_operators``).  The templates are
    joined and filled with every argument by one ``%``.  Anything else does not
    fit: mixed kinds, a bool or None among ints, a foreign value.
    """
    kinds = set(map(type, o))
    if kinds == {int} or kinds == {str}:
        return head + ("," + nl).join(map(_quote if str in kinds else int.__repr__, o)) + tail
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is Term or kind is PauliOp:
        rule = _operators(o, nl)
    # The first item turns away lists of lists or of strs before any template is built.
    elif kind in (list, tuple) and type(next(chain.from_iterable(o), 0)) is int:
        rule = map(len, o), lambda k: _int_list(k, nl), o
    else:
        rule = None
    if rule is None:
        return None
    # Each step drops what the next no longer reads, so the peak is the template,
    # the arguments and the text.
    shapes, template, values = rule
    del rule
    shapes = list(shapes)
    texts = {shape: template(shape) for shape in set(shapes)}
    body = list(map(texts.__getitem__, shapes))
    del shapes, texts
    # The head and tail go on the end items, so the one join builds the template, uncopied.
    body[0] = head + body[0]
    body[-1] += tail
    text = ("," + nl).join(body)
    del body
    args = tuple(chain.from_iterable(values))
    del values
    # The items of int lists are checked here, in one pass: a bool, None, a float or
    # a container among the arguments, or a str in a %d slot (a TypeError), does not fit.
    if not set(map(type, args)) <= {int, str}:
        return None
    try:
        return text % args
    except TypeError:
        return None


# The elements of a list of dicts, Terms or PauliOps that one piece holds (see
# _pieces).  Larger chunks fill faster but peak higher: the gcc L=2 write peaks
# at 0.43x its file with 32, and at 0.56x with 48, over the 0.5x its memory
# test allows.
CHUNK = 32
_CHUNKED = {dict, Term, PauliOp}


def _pieces(o, nl: str, path: set):
    """``o`` as ``json.dumps(o, indent=2, sort_keys=True)`` writes it, nested where
    ``nl`` (a newline and the indent) starts its lines, yielded in pieces; ``path``
    holds the ids of the containers around ``o``.  A dict is written key by key, a
    list that holds a dict, a Term or a PauliOp ``CHUNK`` elements at a time, so
    that no piece is much larger than a chunk; a chunk that fits the template rule
    (``_filled``) is one piece, and one that does not is written element by
    element.  Any other list is one piece, filled whole or joined from its
    elements, and a Term or PauliOp met alone is written as its ``to_json()``.
    """
    if isinstance(o, str):
        yield _quote(o)
        return
    text = _scalar(o)
    if text is not None:
        yield text
        return
    if not isinstance(o, (list, tuple, dict)):
        if not isinstance(o, (Term, PauliOp)):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        yield from _pieces(o.to_json(), nl, path)
        return
    is_dict = isinstance(o, dict)
    if not o:
        yield "{}" if is_dict else "[]"
        return
    if id(o) in path:
        raise ValueError("Circular reference detected")
    inner = nl + "  "
    sep = ("{" if is_dict else "[") + inner
    path.add(id(o))
    if not is_dict and _CHUNKED.isdisjoint(map(type, o)):
        # The list itself, not a slice of it, so that no copy adds to the peak.
        text = _filled(o, inner, sep, nl + "]")
        if text is None:
            text = sep + ("," + inner).join(
                ["".join(_pieces(v, inner, path)) for v in o]) + nl + "]"
        path.discard(id(o))
        yield text
        return
    if is_dict:
        for k, v in sorted(o.items()):
            yield sep + _key(k) + ": "
            yield from _pieces(v, inner, path)
            sep = "," + inner
    else:
        for start in range(0, len(o), CHUNK):
            chunk = o[start:start + CHUNK]
            text = _filled(chunk, inner, sep, "")
            if text is not None:
                yield text
                sep = "," + inner
                continue
            for v in chunk:
                yield sep + "".join(_pieces(v, inner, path))
                sep = "," + inner
    path.discard(id(o))
    yield nl + ("}" if is_dict else "]")


def _write_json(path: Path, data) -> None:
    """Write ``json.dumps(data, indent=2, sort_keys=True)`` and a newline to ``path``
    piece by piece, never holding the whole text; if any piece fails, remove the
    file and raise."""
    file = path.open("w", encoding="utf-8")   # a failed open leaves nothing to remove
    try:
        with file:
            file.writelines(_pieces(data, "\n", set()))
            file.write("\n")
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def cmd_build(args) -> int:
    code = _construct(args, "build")
    if args.code == "xu-moore":
        out = _out_dir(args)
        h = code.hamiltonian
        _write_json(out / "xu-moore.json", {
            "n": code.n,
            "hamiltonian": {"n": h.n, "terms": h.terms},
            "emergent_row_symmetries": code.emergent,
            "preserved_column_symmetries": code.preserved,
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
        "emergent_x": [op.x.support for op in report["emergent"]],
        "preserved_x_fin": [op.x.support for op in report["preserved"]],
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
    chk = _construct(args, "gauge")
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


def _count(text: str) -> int:
    """The value of a count flag (--pairs, --cases): an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is not None and value >= 0:
        return value
    from argparse import ArgumentTypeError     # the error argparse reports as a bad value
    raise ArgumentTypeError(f"expected an integer count, not {text!r}" if value is None
                            else f"expected a count >= 0, not {value}")


def _parse_slab(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
        well_formed = lo < hi       # false for a NaN bound too
    except ValueError:
        well_formed = False
    if not well_formed:
        raise UsageError(f"bad slab argument {text!r}; expected lo:hi with lo < hi")
    return lo, hi


def cmd_spt(args) -> int:
    lo, hi = _parse_slab(args.slab)
    code = _construct(args, "spt")
    region = Region.slab(code, lo, hi)
    if not region.sites:
        raise UsageError(f"slab {args.slab!r} selects no qubits of {code.name} at L={args.L}")
    result = spt_pipeline(code, region)
    circuit = find_cz_disentangler(result.wall_hamiltonian)
    report = dict(result.report)
    report["wall_hamiltonian"] = {"n": result.wall_hamiltonian.n,
                                  "terms": result.wall_hamiltonian.terms}
    report["symmetries"] = result.symmetries
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
    what = args.what
    if what == "lattice" and code.lattice is None:
        raise UsageError(f"{code.name} has no lattice to export")
    out = _out_dir(args)
    if what == "lattice":
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


# Each command's help line and function; ``_define`` declares its flags.
COMMANDS = {
    "build": ("build a code and write its JSON/DOT files", cmd_build),
    "ungauge": ("run the ungauging map and report", cmd_ungauge),
    "gauge": ("gauge X symmetries back (Xu-Moore -> Bacon-Shor)", cmd_gauge),
    "spt": ("domain-wall SPT pipeline", cmd_spt),
    "verify": ("run the full acceptance battery", cmd_verify),
    "export": ("export lattices, complexes or matrices", cmd_export),
}


def _flags(command: str) -> dict:
    """The flags of ``command``, in order, each with its argparse keywords.  A command
    that runs a ``--code`` offers the codes it runs, and declares the code flags that
    some code of it reads."""
    if command == "verify":
        flags = {"pairs": {"type": _count, "default": 1000},
                 "cases": {"type": _count, "default": 500},
                 "seed": {"type": int, "default": 20240}, "out": {"default": None}}
    else:
        codes = [name for name, code in CODES.items() if command in code.reads]
        own = "".join(f", {CODES[c].default_L} for {c}" for c in codes
                      if CODES[c].default_L not in (None, DEFAULT_L))
        flags = {"code": {"required": True, "choices": codes},
                 "L": {"type": int, "help": f"linear lattice size (default: {DEFAULT_L}{own}; "
                                            "a code of one size takes none)"}}
        flags.update((flag, spec) for flag, spec in CODE_FLAGS.items()
                     if any(flag in CODES[code].reads[command] for code in codes))
        flags["out"] = {"default": "out", "help": "output directory"}
    if command == "ungauge":
        flags["pairs"] = {"type": _count, "default": 200,
                          "help": "random pairs for the commutation check (0 skips it)"}
        flags["seed"] = {"type": int, "default": 20240}
    elif command == "gauge":
        flags["full"] = {"action": "store_true", "default": False,
                         "help": "also require the full-gauging Hadamard twist to match"}
    elif command == "spt":
        flags["slab"] = {"required": True, "help": "slab extent lo:hi along the slab axis; "
                                                   "a negative lo may follow as --slab -1:3"}
    elif command == "export":
        flags["what"] = {"required": True, "choices": ("lattice", "complex", "matrices")}
    return flags


def _define(p: argparse.ArgumentParser, command: str) -> None:
    """Declare the flags of ``command`` (``_flags``) on its parser ``p``."""
    for flag, spec in _flags(command).items():
        p.add_argument(f"--{flag}", **spec)
    p.set_defaults(func=COMMANDS[command][1])


def make_parser() -> argparse.ArgumentParser:
    """The parser of every command (``cssgauge --help`` and the errors of no command)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cssgauge",
        description="gauging/ungauging duality for CSS stabilizer and subsystem codes")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, _) in COMMANDS.items():
        _define(sub.add_parser(command, help=help), command)
    return parser


def _plain(argv: list) -> Optional[SimpleNamespace]:
    """A namespace with the attributes of the Namespace that
    ``make_parser().parse_args(argv)`` returns for a plain command line, read from
    ``_flags`` with argparse not even imported; None for any other input.  Plain is
    a command, then each of its flags at most once, by its exact name, with one
    value that is not empty, does not start with "-" and passes the flag's
    ``type`` and ``choices`` (a ``store_true`` flag takes none), and every required
    flag given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = _flags(argv[0])
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token[2:] if token.startswith("--") else None
        spec = flags.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "")
        if not text or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:   # argparse reports it as a bad value, or raises it again
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in flags.items()):
        return None
    values = {flag: given.get(flag, spec.get("default")) for flag, spec in flags.items()}
    return SimpleNamespace(command=argv[0], **values, func=COMMANDS[argv[0]][1])


def _parse(argv: list):
    """``make_parser().parse_args(argv)``.  A plain command line (``_plain``) builds
    no parser.  Any other input that ``argv[0]`` names a command of builds only that
    command's parser, the subparser ``make_parser`` would run, so its help and errors
    are the same; the rest, and leftover arguments (which the full parser reports
    under its own prog), go to the full parser."""
    args = _plain(argv)
    if args is not None:
        return args
    import argparse

    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"cssgauge {argv[0]}")
        _define(parser, argv[0])
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return make_parser().parse_args(argv)


# The starts of a negative number (-inf included), which no flag shares.
_NEGATIVE = tuple("-" + c for c in "0123456789.iI")


def _attach_negative_slab(argv: list) -> list:
    """``argv`` with each ``--slab`` followed by a negative bound attached to it
    (argparse takes the -1:3 of "--slab -1:3" for a flag)."""
    argv = list(argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--slab" and argv[i + 1].startswith(_NEGATIVE):
            argv[i:i + 2] = [f"--slab={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    args = _parse(_attach_negative_slab(sys.argv[1:] if argv is None else argv))
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UngaugeError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:     # OSError: a report file could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
