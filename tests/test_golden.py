"""Golden-output gate: the benchmark's recorded reports, replayed in process.

Every seed variant of the report-producing workloads is run through
``cssgauge.cli.main`` and hashed with the benchmark's own normaliser
against ``perfbench/digests.json``, so a change to a canonical choice (a
kernel basis, a coset representative, a wall term) fails tier-1 and not
only a benchmark run.  ``perfbench/run.py`` is imported read-only:
there is one digest file and one normaliser, and ``run.py --record``
updates both.  The ``verify`` workload is left out: its report is the
criterion lines that ``test_acceptance`` already asserts at full budget.

The normalised digest cannot see whitespace, so each run also renders
every report it writes with ``json.dumps(indent=2, sort_keys=True)`` and
requires the report writer's bytes to equal them.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cssgauge import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GATED = ("ungauge-gcc", "spt-toric2d", "build-gcc")


def _load_benchmark():
    # run.py imports its sibling tracer.py as a top-level module.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


BENCH = _load_benchmark()
RECORDED = json.loads(BENCH.DIGESTS.read_text())
CASES = [(name, variant) for name in GATED for variant in range(BENCH.WORKLOADS[name][1])]


@pytest.mark.parametrize("name,variant", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_report_matches_recorded_digest(tmp_path, monkeypatch, name, variant):
    written = []

    def write_json(path, data):
        written.append(path.name)
        assert cli._dumps(data) == json.dumps(data, indent=2, sort_keys=True), path.name
        write(path, data)

    write = cli._write_json
    monkeypatch.setattr(cli, "_write_json", write_json)
    build, _variants = BENCH.WORKLOADS[name]
    out = tmp_path / "out"
    assert cli.main(build(variant) + ["--out", str(out)]) == 0
    assert written
    digest, _bytes, _sizes = BENCH._digest(out)
    assert digest == RECORDED[name][str(variant)]


# No benchmark workload runs the gauging direction, so its report is pinned here:
# the SHA-256 of the file bytes that `gauge --code xu-moore --L 3 --full` writes.
GAUGE_XU_MOORE_L3_SHA256 = "6a5c97e08849fdb7692482d7f6cd1e20e0a3bff7800b475f496e59433bff11c6"


def test_gauge_report_matches_pinned_sha256(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["gauge", "--code", "xu-moore", "--L", "3", "--full", "--out", str(out)]) == 0
    data = (out / "gauge-xu-moore.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GAUGE_XU_MOORE_L3_SHA256
