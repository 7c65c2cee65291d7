"""Benchmark of the cssgauge CLI: end-to-end cost per command, per-layer cost when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spt-toric2d --seed 3 --seconds 20 --trace 0

Each timed command runs ``cssgauge.cli.main([...])`` in a fresh
interpreter (``child.py``), one after another, for ``--seconds``
seconds; its report files are hashed and compared with the digest
recorded in ``digests.json`` for that workload and seed.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` alternates untraced and
traced commands and reports the per-layer metrics of ``tracer.py``.
The last line of standard output is one JSON object.
``--workload all`` runs every workload; ``--record`` rewrites
``digests.json`` from the current source, for a change that alters the
reports on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROGRAM_SEED = 20240
# Seconds of child.reference() on the host the benchmark was defined on (2-vCPU
# Intel Xeon, CPython 3.11).  Timed values are reported at this reference speed.
REFERENCE_S = 0.2


def _ungauge_gcc(variant):
    return ["ungauge", "--code", "gcc", "--L", "2", "--seed", str(PROGRAM_SEED + variant)]


def _spt_toric2d(variant):
    # Every offset lo in [0, L-2] gives 40 wall terms and 2 symmetries at L=10.
    return ["spt", "--code", "toric2d", "--L", "10", "--slab", f"{variant}:{variant + 2}"]


def _build_gcc(variant):
    return ["build", "--code", "gcc", "--L", "4"]


def _verify(variant):
    # The default seed: another seed draws other dense-oracle sizes (2^n x 2^n
    # matrices, n <= 10), which changes the work by up to 15%.
    return ["verify"]


# name -> (CLI arguments for a seed variant, number of seed variants).  The
# workload seed reaches the program only through these arguments; why each
# workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "ungauge-gcc": (_ungauge_gcc, 8),
    "spt-toric2d": (_spt_toric2d, 9),
    "build-gcc": (_build_gcc, 1),
    "verify": (_verify, 1),
}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _nominal(results, key):
    """Each child's ``key`` seconds at the reference speed: times REFERENCE_S / its reference_s."""
    return [r[key] * REFERENCE_S / r["reference_s"] for r in results if r]


def _tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return round(100 * (len(values) - 10) / len(values), 1), ordered[-11]


def _sizes(report) -> dict:
    """The size counts a CLI report states: n, n_fin, ranks, terms."""
    if isinstance(report, list):  # verify: one entry per criterion
        return {"criteria": len(report)}
    sizes = {**report.get("setup_ranks", {}), **report.get("parameters", {})}
    if "mapped_terms" in report:
        sizes["mapped_terms"] = len(report["mapped_terms"])
    for key in ("wall_terms", "total_image_terms", "symmetry_count"):
        if key in report:
            sizes[key] = report[key]
    return sizes


def _digest(out_dir: Path) -> tuple[str, int, dict]:
    """SHA-256 over the report files with JSON normalised (sorted keys), their bytes, sizes."""
    h = hashlib.sha256()
    size = 0
    sizes = {}
    for path in sorted(out_dir.iterdir()):
        raw = path.read_bytes()
        size += len(raw)
        if path.suffix == ".json":
            report = json.loads(raw)
            sizes.update(_sizes(report))
            raw = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
        h.update(path.name.encode() + b"\0" + raw + b"\0")
    return h.hexdigest(), size, sizes


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
        self.runs = 0

    def spawn(self, argv, trace=False) -> dict:
        """One fresh interpreter; its measurements, or {} if it did not finish."""
        self.runs += 1
        result = self.work / f"result-{self.runs}.json"
        spec = {"src": str(SRC), "argv": argv, "trace": trace, "result": str(result)}
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter()))
        spec["t0"] = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"timed out after {timeout:.0f} s: {argv}", file=sys.stderr)
            return {}
        if proc.returncode != 0 or not result.exists():
            print(f"child exited {proc.returncode}: {argv}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return {}
        return json.loads(result.read_text())

    def command(self, argv, trace=False) -> dict:
        """Run one CLI command; add the ``digest`` and ``report_bytes`` of its reports."""
        out_dir = self.work / f"out-{self.runs + 1}"
        out_dir.mkdir()
        res = self.spawn(argv + ["--out", str(out_dir)], trace)
        if res:
            res["digest"], res["report_bytes"], res["sizes"] = _digest(out_dir)
        shutil.rmtree(out_dir)
        return res

    def checked(self, argv, expected, trace=False) -> dict:
        """``command`` plus ``ok``: exit code 0 and the expected report digest."""
        res = self.command(argv, trace)
        res["ok"] = bool(res) and res["rc"] == 0 and res["digest"] == expected
        if res and not res["ok"]:
            print(f"failed: rc={res['rc']} digest={res['digest']} expected={expected}",
                  file=sys.stderr)
        return res


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "cssgauge").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "threads": THREAD_ENV, "pythonhashseed": "0", "commit": commit,
            "src_sha256": src.hexdigest()[:16]}


def run_workload(name, seed, seconds, trace, work, digests) -> dict:
    build, variants = WORKLOADS[name]
    variant = seed % variants
    argv = build(variant)
    expected = digests.get(name, {}).get(str(variant))
    start = time.perf_counter()
    runner = Runner(work, start + seconds + 120)
    print(f"== {name} seed={seed} variant={variant}: cssgauge {' '.join(argv)}")
    runner.spawn(None)  # warm-up: byte-code and file caches, not recorded
    imports = [runner.spawn(None) for _ in range(SETUP_SAMPLES)]
    plain, traced, rounds = [], [], []
    while True:
        round_start = time.perf_counter()
        plain.append(runner.checked(argv, expected))
        if trace:
            traced.append(runner.checked(argv, expected, trace=True))
        rounds.append(time.perf_counter() - round_start)
        # Stop where the next round would end nearer past the budget than before it.
        if time.perf_counter() - start + _median(rounds) / 2 > seconds:
            break
    done = plain + traced
    failed = sum(not r.get("ok") for r in done)
    times = [r["command_s"] for r in plain if r]
    if not times or (trace and not any(traced)):
        raise SystemExit(f"{name}: no command finished")
    report_bytes = [r["report_bytes"] for r in done if r]
    print(f"commands: {len(done)} attempted, {failed} failed, fail_frac {failed / len(done):.4f}")
    print(f"sizes: report_bytes {sorted(set(report_bytes))}, "
          + json.dumps(next((r["sizes"] for r in done if r), {}), sort_keys=True))
    if trace:
        layers = [layer_metrics(r["trace"]) for r in traced if r]
        metrics = {m: _median([lm[m] for lm in layers]) for m in LAYER_METRICS}
        metrics["cli.report_bytes"] = _median(report_bytes)
        metrics["trace.overhead_frac"] = (_median(_nominal(traced, "command_s"))
                                          / _median(_nominal(plain, "command_s")) - 1)
        units = {m: u for m, (_k, _n, u) in LAYER_METRICS.items()}
        units.update({"cli.report_bytes": "bytes", "trace.overhead_frac": "ratio"})
    else:
        command = _nominal(plain, "command_s")
        setup = [r["setup_s"] for r in imports + done if r]
        metrics = {"command_s": _median(command),
                   "setup_s": _median(_nominal(imports + done, "setup_s")),
                   "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain if r])}
        units = {"command_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        tail = _tail(command)
        print(f"command_s: {len(command)} samples, "
              + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile with 10 samples beyond it")
              + f"; wall medians: command {_median(times):.4f} s, setup {_median(setup):.4f} s, "
              f"reference {_median([r['reference_s'] for r in imports + done if r]):.4f} s")
    for m, v in metrics.items():
        print(f"  {m:32s} {v:14.6f} {units[m]}")
    return {"correct": failed == 0, "attempted": len(done), "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def record(work) -> None:
    """Run every workload variant once and store its report digest."""
    digests = {}
    for name, (build, variants) in WORKLOADS.items():
        runner = Runner(work, time.perf_counter() + 3600)
        for variant in range(variants):
            res = runner.command(build(variant))
            if not res or res["rc"] != 0:
                raise SystemExit(f"{name} variant {variant} failed; nothing recorded")
            digests.setdefault(name, {})[str(variant)] = res["digest"]
            print(f"{name} {variant} {res['digest']}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (SRC / "cssgauge" / "cli.py").is_file():
        print(f"no cssgauge source under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record:
            record(work)
            return 0
        print("environment: " + json.dumps(_environment(), sort_keys=True))
        digests = json.loads(DIGESTS.read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, work, digests)
                   for n in names}
    finally:
        shutil.rmtree(work)
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}/{m}": v for n, r in results.items()
                               for m, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
