"""Run one cssgauge CLI command in this fresh interpreter and report its cost.

Usage: ``python3 perfbench/child.py SPEC`` with SPEC a JSON object:
``src`` (the directory holding the ``cssgauge`` package), ``t0`` (the
parent's ``time.perf_counter()`` just before it started this process),
``argv`` (CLI arguments, or null to only import), ``trace`` (wrap the
boundary functions, see ``tracer.py``) and ``result`` (a file that
receives the measurements as JSON).

``perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for all
processes, so ``setup_s`` spans process start, interpreter start-up and
``import cssgauge.cli``: what every CLI call pays before it does work.

After the import and again after the command the child times
``reference()``, a fixed GF(2) elimination in pure Python.  On a shared
host the speed of the machine drifts by 10-20% over minutes; the ratio
of a measured time to the reference time cancels that drift, because
both run in the same process within seconds of each other.
"""

import gc
import json
import random
import sys
import time
from pathlib import Path

REFERENCE_REPS = 20


def reference() -> float:
    """Seconds for a fixed elimination of 300 random 400-bit rows, REFERENCE_REPS times.

    The cyclic collector is off so that the command's heap does not
    change the cost; the work is identical on every call.
    """
    rng = random.Random(1)
    gc.disable()
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        rows = [rng.getrandbits(400) for _ in range(300)]
        pivot_row = 0
        for col in range(400):
            mask = 1 << col
            sel = next((r for r in range(pivot_row, len(rows)) if rows[r] & mask), None)
            if sel is None:
                continue
            rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
            pivot = rows[pivot_row]
            for r in range(len(rows)):
                if r != pivot_row and rows[r] & mask:
                    rows[r] ^= pivot
            pivot_row += 1
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def peak_rss_mb() -> float:
    """This process's resident high-water mark.

    ``getrusage`` keeps ``ru_maxrss`` across fork and exec, so in a child
    it reports the parent's peak when that is larger; ``VmHWM`` belongs
    to this process image alone.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import cssgauge.cli

    setup_s = time.perf_counter() - spec["t0"]
    if not Path(cssgauge.cli.__file__).resolve().is_relative_to(src):
        print(f"cssgauge imported from {cssgauge.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "reference_s": reference()}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        out["rc"] = cssgauge.cli.main(spec["argv"])
        out["command_s"] = time.perf_counter() - start
        out["reference_s"] = (out["reference_s"] + reference()) / 2
        if tracer is not None:
            out["trace"] = tracer.dump()
    out["peak_rss_mb"] = peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
