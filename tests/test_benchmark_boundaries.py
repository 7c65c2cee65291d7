import os
import subprocess
import sys
from pathlib import Path

import pytest

from cssgauge import cli, gf2, verify

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


# Echelon constructions per command: a guard against a repeated
# elimination coming back.  The spt wall certifies its CZ gate and group
# by witness, make_setup eliminates d_x on one side only, and the logical
# representatives are computed on the Z side only.
@pytest.mark.parametrize("argv,echelons", [
    (["spt", "--code", "toric2d", "--L", "10", "--slab", "0:2"], 5),
    (["ungauge", "--code", "gcc", "--L", "2"], 7),
    (["ungauge", "--code", "toric-sphere"], 5),
    (["verify", "--pairs", "0", "--cases", "0"], 71),
])
def test_echelons_built_per_command(tmp_path, monkeypatch, capsys, argv, echelons):
    # verify reuses the worked models of an earlier run in this process.
    monkeypatch.setattr(verify, "_MODEL_CACHE", {})
    built = []
    init = gf2.Echelon.__init__

    def counted(self, vectors=()):
        built.append(1)
        init(self, vectors)

    monkeypatch.setattr(gf2.Echelon, "__init__", counted)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(built) == echelons
