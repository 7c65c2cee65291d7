import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cssgauge import cli, gf2, lattice, pauli, verify

ROOT = Path(__file__).resolve().parent.parent

# perfbench/tracer.py wraps each function of its BOUNDARIES by name and fails
# on the first one that is missing; this catches a rename or deletion in src/
# without a traced benchmark run.
INSTALL = "import cssgauge.cli, tracer; tracer.Tracer().install()"


def test_tracer_installs_every_boundary():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


COMMANDS = [
    ["spt", "--code", "toric2d", "--L", "10", "--slab", "0:2"],
    ["ungauge", "--code", "gcc", "--L", "2"],
    ["ungauge", "--code", "toric-sphere"],
    ["verify", "--pairs", "0", "--cases", "0"],
]


def _run(tmp_path, monkeypatch, argv):
    # verify reuses the worked models of an earlier run in this process.
    monkeypatch.setattr(verify, "_MODEL_CACHE", {})
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0


def _calls_in_command(tmp_path, monkeypatch, owner, name, argv) -> int:
    """Calls of ``owner.name``, patched on the class or module, while ``argv`` runs."""
    calls = []
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    _run(tmp_path, monkeypatch, argv)
    return len(calls)


def _words(v: int) -> int:
    return (v.bit_length() + 63) >> 6


def _elimination_work(tmp_path, monkeypatch, argv) -> tuple[int, int]:
    """Row XORs, and 64-bit words of rows and combinations XORed, by ``Echelon.reduce``.

    A counting copy of ``reduce`` stands in for it while ``argv`` runs;
    each call's result is checked against the original's.
    """
    original = gf2.Echelon.reduce
    work = [0, 0]

    def counted(self, v):
        rows, combo, start = self.rows, 0, v
        while v:
            hit = rows.get(v.bit_length())
            if hit is None:
                break
            v ^= hit[0]
            combo ^= hit[1]
            work[0] += 1
            work[1] += _words(hit[0]) + _words(hit[1])
        assert (v, combo) == original(self, start)
        return v, combo

    monkeypatch.setattr(gf2.Echelon, "reduce", counted)
    _run(tmp_path, monkeypatch, argv)
    return work[0], work[1]


# Echelon constructions per command: a guard against a repeated
# elimination coming back.  The spt wall certifies its CZ gate and group
# by witness, and make_setup is the one place that eliminates ker d_x and
# ker d_x^T: it completes the Z symmetries and the relations from one
# echelon each (no caller computes a logical class, a topological class or
# a relation).  Every setup eliminates its ker d_x, even one given a
# complete set of Z symmetries.
@pytest.mark.parametrize("argv,echelons", zip(COMMANDS, (5, 5, 5, 81)))
def test_echelons_built_per_command(tmp_path, monkeypatch, capsys, argv, echelons):
    assert _calls_in_command(tmp_path, monkeypatch, gf2.Echelon, "__init__", argv) == echelons


# Matrix products per command: a guard against a repeated commutation
# check coming back.  A stabilizer code's constructor forms G_X·G_Zᵀ only,
# so does a self-dual subsystem listing (gcc), the spt tensor is checked
# once, not again as a dual and a gate, make_setup checks relations
# only when some are given, and no caller checks a complex of its own
# before computing logical classes.
@pytest.mark.parametrize("argv,products", zip(COMMANDS, (5, 5, 4, 63)))
def test_products_per_command(tmp_path, monkeypatch, capsys, argv, products):
    assert _calls_in_command(tmp_path, monkeypatch, gf2.BitMatrix, "__matmul__", argv) == products


def test_transposes_in_the_gcc_build(tmp_path, monkeypatch, capsys):
    # S_X for the one commutation product, which the self-dual listing
    # keeps as the complex's stabilizer columns, G_Z for the overlaps of
    # code_parameters, and the lattice incidence of the DOT file.
    argv = ["build", "--code", "gcc", "--L", "4"]
    assert _calls_in_command(tmp_path, monkeypatch, gf2.BitMatrix, "transpose", argv) == 3


def test_gcc_lattice_forms_its_rows_from_the_faces(tmp_path, monkeypatch, capsys):
    # One popcount check per boundary, and no BitVec built for a row, an
    # entry or a composite while the lattice and the composites the gcc
    # builder reads are formed.
    argv = ["build", "--code", "gcc", "--L", "4"]
    assert _calls_in_command(tmp_path, monkeypatch, lattice, "_incidence", argv) == 3
    calls = []
    init = gf2.BitVec.__init__

    def counted(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(gf2.BitVec, "__init__", counted)
    lat = lattice.gcc_lattice(4)
    lat.generalized_boundary(3, 1), lat.generalized_boundary(3, 0)
    assert calls == []


# Renderer calls while the ungauge gcc L=2 report is written: a guard
# against per-element encoding coming back.  Each list of Terms or of
# PauliOps is filled as one template a chunk at a time, so only the dicts,
# their values and the elements of the components list (dicts, which no
# template fills) are rendered one by one.  The two encoders this renderer
# replaced made 80 calls (27 streamed, 53 whole); element by element they
# made 4002.
def test_encodings_in_the_gcc_report(tmp_path, monkeypatch, capsys):
    argv = ["ungauge", "--code", "gcc", "--L", "2"]
    assert _calls_in_command(tmp_path, monkeypatch, cli, "_pieces", argv) == 63


# No command builds a dict for a term or a symmetry: the writer reads each
# Term and PauliOp of a report from its slots.
@pytest.mark.parametrize("argv", [*COMMANDS[:2], ["build", "--code", "xu-moore", "--L", "3"]],
                         ids=["spt", "ungauge-gcc", "build-xu-moore"])
@pytest.mark.parametrize("owner", [pauli.PauliOp, pauli.Term], ids=["PauliOp", "Term"])
def test_reports_build_no_term_dicts(tmp_path, monkeypatch, capsys, owner, argv):
    assert _calls_in_command(tmp_path, monkeypatch, owner, "to_json", argv) == 0


# Elimination work on two rungs of each family (n is the base code's qubit
# count).  The counts are exact on every host, so a change in the work
# shows here and is re-pinned.  Between the rungs, row XORs grow as
# n^1.42 (toric2d) and n^1.43 (gcc), words XORed as n^2.24 and n^2.19.
@pytest.mark.parametrize("argv,row_xors,words", [
    (["spt", "--code", "toric2d", "--L", "8", "--slab", "1:3"], 1978, 6590),
    (["spt", "--code", "toric2d", "--L", "16", "--slab", "1:3"], 14074, 146711),
    (["ungauge", "--code", "gcc", "--L", "2"], 1747, 4352),
    (["ungauge", "--code", "gcc", "--L", "4"], 33826, 414201),
], ids=["toric2d-n128", "toric2d-n512", "gcc-n96", "gcc-n768"])
def test_elimination_work_per_command(tmp_path, monkeypatch, capsys, argv, row_xors, words):
    assert _elimination_work(tmp_path, monkeypatch, argv) == (row_xors, words)


def _retained_at_report(tmp_path, monkeypatch, argv) -> tuple[int, int]:
    """Live echelons, and the bits of their rows and combinations, when the first report is written.

    A memory proxy that no allocator moves: ``gc`` finds every ``Echelon``
    still alive as ``cli._write_json`` is first called.  Echelons alive
    before the command, such as those of models cached by earlier tests,
    are left out.
    """
    def live():
        gc.collect()
        return [e for e in gc.get_objects() if isinstance(e, gf2.Echelon)]

    before = live()                   # held, so that no id is reused
    earlier = {id(e) for e in before}
    original = cli._write_json
    seen = []

    def counted(path, data):
        if not seen:
            new = [e for e in live() if id(e) not in earlier]
            seen.append((len(new), sum(row.bit_length() + combo.bit_length()
                                       for e in new for row, combo in e.rows.values())))
        original(path, data)

    monkeypatch.setattr(cli, "_write_json", counted)
    _run(tmp_path, monkeypatch, argv)
    return seen[0]


# Echelons and bits still held when the report is written, on the rungs
# above: what a command's memoised eliminations keep alive.  The one left
# is the setup's echelon of d_x^T, which x_preimage reads; its bits grow
# as n^2.01 (toric2d) and n^2.04 (gcc).
@pytest.mark.parametrize("argv,live,bits", [
    (["spt", "--code", "toric2d", "--L", "8", "--slab", "1:3"], 1, 27895),
    (["spt", "--code", "toric2d", "--L", "16", "--slab", "1:3"], 1, 453615),
    (["ungauge", "--code", "gcc", "--L", "2"], 1, 7094),
    (["ungauge", "--code", "gcc", "--L", "4"], 1, 494818),
], ids=["toric2d-n128", "toric2d-n512", "gcc-n96", "gcc-n768"])
def test_echelon_bits_retained_at_report(tmp_path, monkeypatch, capsys, argv, live, bits):
    assert _retained_at_report(tmp_path, monkeypatch, argv) == (live, bits)
