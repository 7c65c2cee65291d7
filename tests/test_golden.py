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
every report it writes with ``json.dumps(indent=2, sort_keys=True)``
(each ``Term`` and ``PauliOp`` of a report in its ``to_json()`` form) and
requires the bytes of the written file to equal them and a newline.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cssgauge import catalog, cli, ungauge

from tests.oracles import stdlib_json

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
        write(path, data)
        expected = stdlib_json(data) + "\n"
        assert path.read_bytes() == expected.encode(), path.name

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


# Reports no benchmark digest covers, pinned the same way: the SHA-256 of
# each file's bytes.  They run the setup validation of every code family,
# the fractal wall's slab region, the chain-complex export and the
# builders of the periodic families (Bacon-Shor, Xu-Moore, the 2D color
# code and both fractal boundaries) at sizes the worked models do not use.
PINNED_REPORTS = [
    (["ungauge", "--code", "toric-sphere"], {
        "ungauge-toric-sphere.json": "a2ea7e8fcedf316273df10168f1e3468b9064664b845ab4b7bae2304ff3f0713"}),
    (["ungauge", "--code", "toric2d", "--L", "3"], {
        "ungauge-toric-torus.json": "9435eb2e590f64f8e01b3b9ca1809cbe3536591ae58721f73ef93a46c4e380a5"}),
    (["ungauge", "--code", "toric3d", "--L", "2"], {
        "ungauge-toric-3d.json": "7f881aef98c7d06f316b682aafeef52924def5ea0ba90480ae9023355631398c"}),
    (["ungauge", "--code", "bacon-shor", "--L", "3"], {
        "ungauge-bacon-shor.json": "73be10e93cb3715178768b685c2d9e3546ca4de941a66be0bc8474f27c2c086f"}),
    (["ungauge", "--code", "color2d", "--L", "3"], {
        "ungauge-color2d-partial.json": "5ae2fe0000de5f6714cd217a1a7bbdbd5e90ed1899682cf2450ed399ffcda475"}),
    (["ungauge", "--code", "fractal", "--L", "4"], {
        "ungauge-fractal.json": "a05a0dc734a5ca6933247f694205d972cb47873eb236ea0df7d99a2a97833146"}),
    (["ungauge", "--code", "gcc", "--L", "2", "--hamiltonian", "X"], {
        "ungauge-gcc.json": "9968fdb78b423d9837db2d27a92cdf908e17e6ee5192fd82d9c03850ec415eee"}),
    (["ungauge", "--code", "gcc", "--L", "2", "--hamiltonian", "Z"], {
        "ungauge-gcc.json": "43a23479def49ff92b6477c0e276b69560955166965981283f033aabe77e0d08"}),
    (["ungauge", "--code", "gcc", "--L", "2", "--hamiltonian", "Y"], {
        "ungauge-gcc.json": "00513c166ebe6da302bf20be5821376ba7929164217da0dbd8022155be954870"}),
    (["spt", "--code", "fractal", "--L", "4", "--slab", "1:3"], {
        "spt-fractal3d.json": "d40e269a12e9bb7533b917e5924462663a84a6a91556cc8836181a3df8bd960c"}),
    (["export", "--code", "toric2d", "--L", "3", "--what", "matrices"], {
        "toric2d-dx.json": "9f4fcf0ff091bca0e53419756d3047d61d942e3d7784cb524a3623bf07b8e8a1",
        "toric2d-dz.json": "5b8eeba729b70c921f45a3b8c1b6d6f2f37279d7ab4b5f64f3a20f0dac80b75e"}),
    (["export", "--code", "gcc", "--L", "2", "--what", "complex"], {
        "gcc-complex.json": "453f20a98e1a60d924d50aa2cc17851bec9df3754cf70f30eb9108de2d391b95"}),
    # The sphere has 8 Z checks and 6 X checks, so a swapped label range shows.
    (["export", "--code", "toric-sphere", "--what", "complex"], {
        "toric-sphere-complex.json": "199278db0a33d44ebb6e9f086ffa16f7677e93290ebe9c2cafea87a944820872"}),
    (["build", "--code", "bacon-shor", "--L", "4"], {
        "bacon-shor.json": "424914910eb861a6c1dfee69f4c07dd6280606db30fe3b02d1ff6402521e7e23"}),
    (["build", "--code", "xu-moore", "--L", "5"], {
        "xu-moore.json": "01ec57366d1579d5181324f9c3f66986ca1456a57f71cadc465b6bd0fafc4a0b"}),
    (["build", "--code", "color2d", "--L", "6"], {
        "color2d.dot": "71379eecf7cb750b143623ba6bbc7aec5c3ff44f1e4883ac4b9cebee484b7b34",
        "color2d.json": "c47f36fb3371f9b056f88f77e7abef23dacec2798b8226f21544f267c35c625e"}),
    (["export", "--code", "color2d", "--L", "3", "--what", "lattice"], {
        "color2d-incidence.dot": "b1045673cd77927379c9bd67dd76bcf867de7fbbaafc4f4aa1b8e24b855ba0df",
        "color2d-lattice.json": "c19c8b25ffda86f46b88b84e507a97cb44f69bf2fe1bdadfcb42f83cfd8aaa6f"}),
    (["build", "--code", "fractal", "--L", "4"], {
        "fractal3d.json": "f0bb94f8588c91497d0ac006a7c4df521583493a443c59a630ae6eb3691b8fd5"}),
    (["build", "--code", "fractal", "--L", "4", "--boundary", "open_y"], {
        "fractal3d.json": "49864ebb2bb8c6a2e49d0bcb738a6b502353d5742f1c163a53aa04451622f06c"}),
    (["spt", "--code", "fractal", "--L", "5", "--slab", "0:2"], {
        "spt-fractal3d.json": "698052dd04e40a7eb30f22b62072c200265c9704fedaf641efbd072a165f7614"}),
    # The SPT walls one and two dimensions up: the 3D toric code of either
    # type, and the 4D toric code of type 2.
    (["spt", "--code", "toric3d", "--L", "3", "--slab", "1:3"], {
        "spt-toric3d.json": "3240baccd9e768d978e9dbc50e7f6faa78aa75a6d6ff1d289a517bf685da8acd"}),
    (["spt", "--code", "toric3d", "--L", "4", "--slab", "1:3"], {
        "spt-toric3d.json": "ab2e6c5fa7c185a9acf5c3bb6e67d3f5c22ea4b9f7fa32563ad89a423203da7d"}),
    (["spt", "--code", "toric3d", "--L", "3", "--k", "2", "--slab", "1:3"], {
        "spt-toric3d.json": "b274c9acd2a1c522ef2f2f16eb4043daa116fdc38809017fb46ae674177a9075"}),
    (["spt", "--code", "toric", "--D", "4", "--k", "2", "--L", "3", "--slab", "1:3"], {
        "spt-toric4d.json": "9290106de98954b83c61f8a04bcc4c956f7be1ce5984e00d455d322ab5340c39"}),
]


@pytest.mark.parametrize("argv,pinned", PINNED_REPORTS,
                         ids=[" ".join(a).replace("--", "") for a, _ in PINNED_REPORTS])
def test_report_matches_pinned_sha256(tmp_path, argv, pinned):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == pinned


# The gauge report above holds only booleans, so the gauged terms
# themselves are pinned: the SHA-256 of ``{"n", "terms"}`` with each term
# in its ``to_json`` form (sorted keys), for the Xu-Moore -> Bacon-Shor
# partial gauge at L=3 and for the ``full_gauge_hamiltonian`` image inside
# ``xu_moore_check(3)`` and ``full_gauge_lgt(2)``, before the comparison
# relabels it.
GAUGED_TERMS_SHA256 = {
    "xu-moore-partial-L3": "bd299645971278e9d7f9a1fbd1bf0ac27169dee7147356e7f09d14622bdf170e",
    "xu-moore-full-L3": "d1dac0594aa9a4bfffe08f847877380cf3fffbb9fcf0b35c963086b8905cd318",
    "gcc-lgt-full-L2": "45e3fc47849572b8090adcdc0b826b051574914f7fae4ceb9b839174edfdfdbc",
}


def _terms_sha256(h) -> str:
    terms = {"n": h.n, "terms": [t.to_json() for t in h]}
    return hashlib.sha256(json.dumps(terms, sort_keys=True).encode()).hexdigest()


def _full_gauge_image(monkeypatch, run):
    images = []
    full = ungauge.full_gauge_hamiltonian

    def recording(h, s):
        images.append(full(h, s))
        return images[-1]

    monkeypatch.setattr(ungauge, "full_gauge_hamiltonian", recording)
    run()
    (image,) = images
    return image


def test_gauged_terms_match_pinned_sha256(monkeypatch):
    found = {
        "xu-moore-partial-L3": _terms_sha256(catalog.xu_moore_check(3)["regauged"]),
        "xu-moore-full-L3": _terms_sha256(
            _full_gauge_image(monkeypatch, lambda: catalog.xu_moore_check(3))),
        "gcc-lgt-full-L2": _terms_sha256(
            _full_gauge_image(monkeypatch, lambda: catalog.full_gauge_lgt(2))),
    }
    assert found == GAUGED_TERMS_SHA256
