import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cssgauge import cli
from cssgauge.cli import main
from cssgauge.ungauge import NotSymmetricError


ROOT = Path(__file__).resolve().parent.parent


def run(args):
    return main(args)


def test_build_gcc(tmp_path):
    out = tmp_path / "o"
    assert run(["build", "--code", "gcc", "--L", "2", "--out", str(out)]) == 0
    data = json.loads((out / "gcc.json").read_text())
    assert data["n"] == 96
    assert data["parameters"]["k"] == 0
    assert (out / "gcc.dot").exists()


def test_build_bacon_shor_metadata(tmp_path):
    out = tmp_path / "o"
    assert run(["build", "--code", "bacon-shor", "--L", "3", "--out", str(out)]) == 0
    data = json.loads((out / "bacon-shor.json").read_text())
    assert data["parameters"]["k"] == 1


def test_build_invalid_length(tmp_path):
    assert run(["build", "--code", "gcc", "--L", "3", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("code", [name for name, c in cli.CODES.items() if c.default_L])
def test_build_without_length_uses_the_code_default(tmp_path, code):
    # gcc's coloring needs an even length, so its default is 2, not 3.
    assert run(["build", "--code", code, "--out", str(tmp_path)]) == 0
    assert list(tmp_path.iterdir())


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["build", "--code", "nonsense", "--L", "2"])
    assert exc.value.code == 2


def test_build_toric_beyond_axis_names_is_usage_error(tmp_path):
    assert run(["build", "--code", "toric", "--D", "5", "--L", "2", "--k", "2",
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags", [
    ["--code", "toric", "--D", "4"],
    ["--code", "toric3d", "--k", "2", "--L", "2"],
], ids=["toric-D4", "toric3d-k2"])
def test_ungauge_rejects_flags_naming_another_model(tmp_path, capsys, flags):
    assert run(["ungauge", *flags, "--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _exit_code(args):
    """main's return value, or the code of an argparse rejection."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", [
    "build --code toric2d --L 2 --D 3 --k 2",
    "build --code gcc --L 2 --seed 5 --boundary open_y",
    "export --code bacon-shor --L 3 --what complex --k 3",
    "spt --code toric2d --L 4 --slab 1:3 --D 9 --k 4 --seed 1 --boundary periodic",
    "gauge --code xu-moore --L 3 --D 7 --boundary open_y --seed 3",
    "ungauge --code gcc --L 2 --partial z --boundary open_y",
    "ungauge --code toric2d --L 3 --hamiltonian Y",
    "verify --L 7 --all",
], ids=["build-toric2d", "build-gcc", "export-bacon-shor", "spt-toric2d", "gauge-xu-moore",
        "ungauge-gcc", "ungauge-toric2d", "verify"])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, command):
    assert _exit_code([*command.split(), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    "ungauge --code gcc --L 2 --pairs -5",
    "verify --pairs -1",
    "verify --cases -3",
    "verify --cases many",
], ids=["ungauge-pairs", "verify-pairs", "verify-cases", "verify-cases-not-int"])
def test_negative_count_is_usage_error(tmp_path, capsys, command):
    assert _exit_code([*command.split(), "--out", str(tmp_path / "o")]) == 2
    assert "count" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_ungauge_zero_pairs_skips_the_check(tmp_path):
    assert run(["ungauge", "--code", "toric2d", "--L", "3", "--pairs", "0",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ungauge-toric-torus.json").read_text())
    assert "commutation_pairs" not in report and "commutation_preserved" not in report


@pytest.mark.parametrize("command", [
    "build --code toric-sphere",
    "ungauge --code toric-sphere --pairs 10",
    "export --code toric-sphere --what complex",
], ids=["build", "ungauge", "export"])
def test_toric_sphere_has_one_size(tmp_path, command):
    assert run([*command.split(), "--L", "9", "--out", str(tmp_path / "sized")]) == 2
    assert not (tmp_path / "sized").exists()
    assert run([*command.split(), "--out", str(tmp_path / "o")]) == 0
    assert list((tmp_path / "o").iterdir())


def test_internal_inconsistency_exits_1(tmp_path, capsys, monkeypatch):
    def inconsistent(h, setup):
        raise NotSymmetricError("term t: X support is not a product of the setup's X generators")
    monkeypatch.setattr(cli, "ungauge_hamiltonian", inconsistent)
    assert run(["ungauge", "--code", "toric-sphere", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "NotSymmetricError: term t: X support is not a product" in err
    assert "Traceback" not in err


def test_ungauge_gcc_z(tmp_path):
    out = tmp_path / "o"
    assert run(["ungauge", "--code", "gcc", "--hamiltonian", "Z", "--L", "2",
                "--pairs", "20", "--out", str(out)]) == 0
    report = json.loads((out / "ungauge-gcc.json").read_text())
    assert report["components"]["count"] == 6
    assert report["dim_check"] is True
    assert report["annihilated_generators"]["all_identity"] is True


def test_ungauge_gcc_y(tmp_path):
    out = tmp_path / "o"
    assert run(["ungauge", "--code", "gcc", "--hamiltonian", "Y", "--L", "2",
                "--pairs", "10", "--out", str(out)]) == 0
    report = json.loads((out / "ungauge-gcc.json").read_text())
    assert report["components"]["count"] == 3


def test_ungauge_color_partial(tmp_path):
    out = tmp_path / "o"
    assert run(["ungauge", "--code", "color2d", "--partial", "c", "--L", "3",
                "--pairs", "10", "--out", str(out)]) == 0
    report = json.loads((out / "ungauge-color2d-partial.json").read_text())
    assert report["components"]["count"] == 2


def test_gauge_xu_moore(tmp_path):
    out = tmp_path / "o"
    assert run(["gauge", "--code", "xu-moore", "--L", "3", "--full",
                "--out", str(out)]) == 0
    report = json.loads((out / "gauge-xu-moore.json").read_text())
    assert report["partial_gauge_matches_bacon_shor"] is True
    assert report["full_gauge"]["support_multiset_match"] is True


def test_spt_toric(tmp_path):
    out = tmp_path / "o"
    assert run(["spt", "--code", "toric2d", "--L", "4", "--slab", "1:3",
                "--out", str(out)]) == 0
    report = json.loads((out / "spt-toric2d.json").read_text())
    assert report["wall_terms"] == 16
    assert report["disentangler"] is not None
    assert report["wall_commutes"] is True


@pytest.mark.parametrize("argv,name,wall_terms,symmetries", [
    (["--code", "toric3d", "--L", "3"], "toric3d", 54, 19),
    (["--code", "toric3d", "--L", "4"], "toric3d", 96, 33),
    (["--code", "toric3d", "--L", "3", "--k", "2"], "toric3d", 54, 29),
    (["--code", "toric", "--D", "4", "--k", "2", "--L", "3"], "toric4d", 324, 121),
], ids=["toric3d-L3", "toric3d-L4", "toric3d-k2-L3", "toric4d-k2-L3"])
def test_spt_toric_one_and_two_dimensions_up(tmp_path, argv, name, wall_terms, symmetries):
    # Slab 1:3 cuts two walls; each wall of the 4D type-2 code has 6L^3
    # terms on the edges and faces of the cubic lattice.
    out = tmp_path / "o"
    assert run(["spt", *argv, "--slab", "1:3", "--out", str(out)]) == 0
    report = json.loads((out / f"spt-{name}.json").read_text())
    assert (report["wall_terms"], report["symmetry_count"]) == (wall_terms, symmetries)
    assert report["disentangler"] is not None and report["bulk_trivial"] is True


def test_spt_bad_slab(tmp_path):
    # Unparsable, inverted, empty, and selecting no qubit of the L=4 torus.
    for slab in ("oops", "3:1", "2:2", "100:101"):
        assert run(["spt", "--code", "toric2d", "--L", "4", "--slab", slab,
                    "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("slab", ["0:nan", "nan:3"])
def test_spt_nan_slab_is_malformed(tmp_path, capsys, monkeypatch, slab):
    def unbuilt(*args):
        raise AssertionError("the code was built before the slab was checked")
    monkeypatch.setattr(cli, "build_toric", unbuilt)
    assert run(["spt", "--code", "toric2d", "--L", "4", "--slab", slab,
                "--out", str(tmp_path)]) == 2
    assert f"bad slab argument '{slab}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_spt_unbounded_slab_is_valid(tmp_path):
    assert run(["spt", "--code", "toric2d", "--L", "4", "--slab", "1:inf",
                "--out", str(tmp_path)]) == 0


def test_spt_negative_slab_bound_is_written_with_an_equals_sign(tmp_path):
    # "--slab=-1:1" is the slab [-1, 1).
    out = tmp_path / "o"
    assert run(["spt", "--code", "toric2d", "--L", "3", "--slab=-1:1", "--out", str(out)]) == 0
    assert json.loads((out / "spt-toric2d.json").read_text())["wall_terms"] == 12


def test_spt_negative_slab_bound_may_be_the_next_token(tmp_path, capsys):
    # argparse reads a value that starts with "-" as a flag; main attaches
    # one that starts like a negative number to --slab, so "--slab -1:1"
    # writes the same report as "--slab=-1:1".  A flag after --slab still
    # leaves it with no value.
    for argv, out in ((["--slab", "-1:1"], tmp_path / "a"), (["--slab=-1:1"], tmp_path / "b")):
        assert run(["spt", "--code", "toric2d", "--L", "3", *argv, "--out", str(out)]) == 0
    assert (tmp_path / "a" / "spt-toric2d.json").read_bytes() == \
        (tmp_path / "b" / "spt-toric2d.json").read_bytes()
    assert json.loads((tmp_path / "a" / "spt-toric2d.json").read_text())["wall_terms"] == 12
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        run(["spt", "--code", "toric2d", "--L", "3", "--slab", "--out", str(tmp_path / "c")])
    assert exit_.value.code == 2
    assert "--slab: expected one argument" in capsys.readouterr().err


def _readme_commands() -> list:
    """The argv of each ``cssgauge ...`` line of the README's CLI block."""
    block = (ROOT / "README.md").read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
            if line.startswith("cssgauge ")]


README_COMMANDS = _readme_commands()


# Inputs to main's parser: help, no arguments, and each error path, with the
# valid commands beside them.  main reads a plain command line with no parser
# and otherwise builds only the parser of the command that argv[0] names; the
# full parser must give the same result on each.
PARSER_BATTERY = [
    ["--help"], [], *([command, "--help"] for command in cli.COMMANDS),
    ["frobnicate"], ["frobnicate", "--code", "gcc"],
    ["build", "--code", "gcc", "--nonsense"], ["build"], ["build", "--L", "2"],
    ["build", "--code", "nope"], ["gauge", "--code", "gcc"],
    ["spt", "--code", "toric2d", "--slab"], ["spt", "--code", "toric2d", "--slab", "-1:3"],
    ["ungauge", "--code", "gcc", "--pairs", "-1"], ["verify", "--pairs", "-1"],
    ["--", "ungauge", "--code", "gcc"], ["ungauge", "--", "--code", "gcc"],
    ["ungauge", "--cod", "gcc"], ["ungauge", "--what", "complex"],
    ["ungauge", "--code", "gcc", "--what", "complex"], ["ungauge", "--code", "gcc", "extra"],
    ["ungauge", "--code=gcc", "--L=2", "--pairs", "0", "--seed", "3"],
    ["export", "--code", "gcc", "--what", "complex"], ["verify", "--cases", "7", "--out", "o"],
    ["gauge", "--code", "xu-moore", "--full"], ["ungauge", "-h", "--code"],
    # The argv shapes of the four benchmark workloads (perfbench/run.py), --out included.
    ["ungauge", "--code", "gcc", "--L", "2", "--seed", "20240", "--out", "o"],
    ["spt", "--code", "toric2d", "--L", "10", "--slab", "0:2", "--out", "o"],
    ["build", "--code", "gcc", "--L", "4", "--out", "o"], ["verify", "--out", "o"],
    *README_COMMANDS,
]


def _outcome(parse, argv):
    """(stdout, stderr, exit code, the namespace's attributes) of ``parse(argv)``.

    The attributes, as ``Namespace.__eq__`` compares them: a plain command
    line is read into a ``SimpleNamespace``, which equals no ``Namespace``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = vars(parse(argv)), None
        except SystemExit as exc:
            args, code = None, exc.code
    return out.getvalue(), err.getvalue(), code, args


@pytest.mark.parametrize("argv", PARSER_BATTERY, ids=" ".join)
def test_parser_matches_the_full_parser(argv):
    argv = cli._attach_negative_slab(argv)
    assert _outcome(cli._parse, argv) == _outcome(cli.make_parser().parse_args, argv)


def _parsers_built(monkeypatch) -> list:
    """The progs of the ``ArgumentParser``s built from now on, as they are built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_a_plain_command_line_builds_no_parser(monkeypatch):
    built = _parsers_built(monkeypatch)
    args = cli._parse(["ungauge", "--code", "gcc", "--L", "2", "--out", "o"])
    assert built == []
    assert (args.command, args.code, args.L, args.pairs, args.func) == \
        ("ungauge", "gcc", 2, 200, cli.cmd_ungauge)


def test_a_command_builds_only_its_parser(monkeypatch):
    # A command line that the plain reader leaves to argparse builds only
    # the parser of its command.
    built = _parsers_built(monkeypatch)
    for argv in (["ungauge", "--code=gcc"], ["ungauge", "--code", "gcc", "--code", "gcc"]):
        args = cli._parse(argv)
        assert built == ["cssgauge ungauge"]
        assert (args.command, args.code, args.func) == ("ungauge", "gcc", cli.cmd_ungauge)
        built.clear()


def _values(spec, accepted: bool):
    """Values for a flag of ``spec`` that the plain reader accepts (a choice, an
    integer, any text) or refuses (one outside the choices; a non-integer or a
    negative number; text that starts with "-" or is empty)."""
    if "choices" in spec:
        return st.sampled_from(list(spec["choices"]) if accepted else ["nope", "XY"])
    if "type" in spec:
        return st.integers(0, 12).map(str) if accepted else st.sampled_from(["2.5", "-1", ""])
    return st.sampled_from(["o", "1:3", "a b"] if accepted else ["-1", "--L", "-h", ""])


# What may be wrong with a drawn command line.
_FAULTS = ("left out", "repeated", "abbreviated", "equals", "bare", "refused value", "token")


@st.composite
def _command_lines(draw):
    """An argv drawn from the ``_flags`` of one command: its required flags and
    some others, once each, in any order, with accepted values.  About half the
    lines have one fault: a flag left out or repeated, one flag abbreviated, in an
    ``=`` form, with a refused value or with none (a ``store_true`` flag: a stray
    value), or an unknown token."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    flags = cli._flags(command)
    chosen = draw(st.permutations([flag for flag, spec in flags.items()
                                   if spec.get("required") or draw(st.booleans())]))
    faults = draw(st.lists(st.sampled_from(_FAULTS), max_size=1))
    if chosen and "left out" in faults:
        chosen.pop(draw(st.integers(0, len(chosen) - 1)))
    if chosen and "repeated" in faults:
        chosen.append(draw(st.sampled_from(chosen)))
    faulty = draw(st.sampled_from(chosen)) if chosen else None
    argv = [command]
    for flag in chosen:
        spec, name, hit = flags[flag], f"--{flag}", faults if flag == faulty else ()
        if "abbreviated" in hit:
            name = name[:max(3, len(name) - 1)]
        if spec.get("action") == "store_true":
            argv += [name, "x"] if "bare" in hit else [name]
            continue
        value = draw(_values(spec, "refused value" not in hit))
        if "equals" in hit:
            argv.append(f"{name}={value}")
        else:
            argv += [name] if "bare" in hit else [name, value]
    if "token" in faults:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--", "-h", "x"])))
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_command_lines())
def test_drawn_command_lines_match_the_full_parser(argv):
    argv = cli._attach_negative_slab(argv)
    assert _outcome(cli._parse, argv) == _outcome(cli.make_parser().parse_args, argv)


def test_ungauge_leaves_locale_unimported(tmp_path):
    # argparse imports locale (through gettext) when it builds a parser; the
    # benchmark's ungauge command line is read without one.  Only the modules
    # the command adds count, as in test_cli_import_leaves_numpy_unloaded.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import cssgauge.cli\n"
            "rc = cssgauge.cli.main(['ungauge', '--code', 'gcc', '--L', '2', '--seed', '20240',"
            " '--out', sys.argv[1]])\n"
            "print(rc, sorted({'locale'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    ran = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")], env=env,
                         capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.splitlines()[-1] == "0 []"


def test_argparse_is_imported_only_for_help(tmp_path):
    # A plain command line is read without argparse; help (and any error)
    # goes to argparse, which is imported then.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys\n"
            "import cssgauge.cli\n"
            "rc = cssgauge.cli.main(['ungauge', '--code', 'gcc', '--L', '2', '--out', sys.argv[1]])\n"
            "plain = 'argparse' in sys.modules\n"
            "try:\n"
            "    cssgauge.cli.main(['ungauge', '--help'])\n"
            "except SystemExit as exc:\n"
            "    print(rc, plain, exc.code, 'argparse' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    ran = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")], env=env,
                         capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.splitlines()[-1] == "0 False 0 True"


def test_export_matrices(tmp_path):
    out = tmp_path / "o"
    assert run(["export", "--code", "toric2d", "--L", "3", "--what", "matrices",
                "--out", str(out)]) == 0
    dz = json.loads((out / "toric2d-dz.json").read_text())
    assert dz["rows"] == 18 and dz["cols"] == 9
    assert run(["export", "--code", "toric2d", "--L", "3", "--what", "lattice",
                "--out", str(out)]) == 0
    assert (out / "toric2d-lattice.json").exists()


def test_export_without_lattice_writes_nothing(tmp_path, capsys):
    out = tmp_path / "D"
    assert run(["export", "--code", "bacon-shor", "--L", "3", "--what", "lattice",
                "--out", str(out)]) == 2
    assert "has no lattice" in capsys.readouterr().err
    assert not out.exists()


def test_verify_fast(tmp_path):
    out = tmp_path / "o"
    assert run(["verify", "--pairs", "25", "--cases", "25",
                "--out", str(out)]) == 0
    results = json.loads((out / "verify.json").read_text())
    assert len(results) == 13
    assert all(r["passed"] for r in results)


def test_cli_import_leaves_numpy_unloaded():
    # The package runs on the standard library alone; numpy, which takes
    # about 0.1 s to import, is a test dependency and must not join any
    # command's start-up.  Nor may dataclasses, which pulls in inspect,
    # ast, dis and tokenize.  Only the modules the import adds count, so
    # a site hook that loads one of them at start-up cannot fail this.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import cssgauge.cli\n"
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    ran = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == "[]\n"


def test_verify_leaves_numpy_unloaded():
    # The dense oracle builds its matrices from Python integers.  Case 0
    # draws n in [7, 10], so a large case runs.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, cssgauge.cli\n"
            "rc = cssgauge.cli.main(['verify', '--pairs', '10', '--cases', '20'])\n"
            "sys.exit(rc or 3 * ('numpy' in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    ran = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert ran.returncode == 0, ran.stdout + ran.stderr
    assert ran.stdout.count("[PASS]") == 13


def _module_run(*args, cwd=None, **env):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **env}
    return subprocess.run([sys.executable, "-m", "cssgauge", *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_python_dash_m_runs_the_cli():
    helped = _module_run("--help")
    assert helped.returncode == 0
    assert "usage: cssgauge" in helped.stdout
    rejected = _module_run("build", "--code", "gcc", "--nonsense")
    assert rejected.returncode == 2
    assert "unrecognized arguments: --nonsense" in rejected.stderr


@pytest.mark.parametrize("command", [
    "spt --code toric2d --L 4 --slab 1:3",
    "ungauge --code color2d --L 3",
], ids=["spt", "ungauge-color2d"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, command):
    # Iterating a set or dict of strings follows PYTHONHASHSEED; a report
    # or a printed line built that way would differ between the two runs.
    runs = []
    for seed in ("1", "2"):
        cwd = tmp_path / seed
        cwd.mkdir()
        ran = _module_run(*command.split(), "--out", "o", cwd=cwd, PYTHONHASHSEED=seed)
        assert ran.returncode == 0, ran.stderr
        runs.append((ran.stdout, {p.name: p.read_bytes() for p in (cwd / "o").iterdir()}))
    assert runs[0][1]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", [
    "build --code gcc --L 2",
    "ungauge --code toric2d --L 3 --pairs 1",
    "gauge --code xu-moore --L 3",
    "spt --code toric2d --L 4 --slab 1:3",
    "verify --pairs 1 --cases 1",
    "export --code toric2d --L 3 --what complex",
], ids=["build", "ungauge", "gauge", "spt", "verify", "export"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, command, under):
    existing = tmp_path / "report.json"
    existing.write_text("keep\n")
    out = existing / "o" if under else existing
    assert run([*command.split(), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""       # refused before any work
    assert existing.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("taken,written", [("gcc.json", []), ("gcc.dot", ["gcc.json"])],
                         ids=["json", "dot"])
def test_report_path_that_is_a_directory_is_an_error(tmp_path, capsys, taken, written):
    out = tmp_path / "o"
    (out / taken).mkdir(parents=True)
    assert run(["build", "--code", "gcc", "--L", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(out / taken) in err
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == written
