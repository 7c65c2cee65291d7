import os
import subprocess
import sys
from pathlib import Path

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
