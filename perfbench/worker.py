"""One timed pass of a workload, in a fresh process.

Run by run.py as `python3 perfbench/worker.py --workload W --seed N
--trace 0|1 --t0 T`, with the checkout's src/ on PYTHONPATH.  A fresh
process starts every module-level cache of qcenters cold, as each
`qcenters` command-line call does.  The pass prints one JSON object on
stdout: per-operation times (with the calibration kernel's time around each)
and failures, set-up time, peak RSS and, when traced, per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OP_DEADLINE_S = 30.0  # per operation and per output check; the largest op takes about 4 s
DIGESTS = BENCH_DIR / "digests.json"
GOLDEN_DIR = ROOT / "tests" / "golden"


def clock() -> float:
    """System-wide monotonic clock, comparable between run.py and its workers."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler in the program
    under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def bounded(fn, *args):
    """fn(*args) under the deadline; returns (value, error text or None)."""
    try:
        with deadline(OP_DEADLINE_S):
            return fn(*args), None
    except DeadlineExceeded:
        return None, f"deadline of {OP_DEADLINE_S:g} s exceeded"
    except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
        return None, f"{type(exc).__name__}: {exc}"


_CAL_A = [Fraction(i + 1, 7 + i) for i in range(12)]
_CAL_B = [Fraction(3 * i - 5, 11) for i in range(12)]


def calibrate() -> float:
    """Seconds taken by a fixed calibration kernel (about 25 ms) that uses only
    the standard library: exact rational polynomial products, the kind of work
    qcenters does.  The speed of a shared host swings by up to 2x within
    minutes; timing this kernel around every operation lets run.py
    express operation times at a fixed reference speed."""
    start = time.perf_counter()
    for _ in range(30):
        out = [Fraction(0)] * 23
        for i, x in enumerate(_CAL_A):
            for j, y in enumerate(_CAL_B):
                out[i + j] += x * y
    return time.perf_counter() - start


def run_pass(workload: str, seed: int, traced: bool, t0: float, spans_path: Path | None = None) -> dict:
    import qcenters
    import qcenters.cyclo

    if not Path(qcenters.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qcenters imported from {qcenters.__file__}, not from this checkout's src/")
    import checks
    import ops
    import workloads

    cases = workloads.generate(workload, seed)
    prepared = [ops.prepare(workload, case) for case in cases]
    poly_cache = qcenters.cyclo.cyclotomic_poly
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    call = tracer.call if tracer else (lambda _name, fn, *args: fn(*args))

    signal.signal(signal.SIGALRM, _on_alarm)
    rows, outputs = [], []
    setup_s = clock() - t0
    before = calibrate()
    for prep in prepared:
        start = time.perf_counter()
        if tracer:
            with tracer.operation(prep.case.label):
                out, error = bounded(ops.run, workload, prep, call)
        else:
            out, error = bounded(ops.run, workload, prep, call)
        seconds = time.perf_counter() - start
        after = calibrate()
        rows.append({"label": prep.case.label, "seconds": seconds, "kernel_s": (before + after) / 2,
                     "items": out.items if out else 0, "error": error})
        before = after
        outputs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops": rows}
    if tracer:
        tracer.uninstall()
        info = poly_cache.cache_info()
        result["layers"] = {name: {"calls": calls, "self_s": ns / 1e9}
                            for name, (calls, ns) in tracer.layer_totals().items()}
        result["supports_materialized"] = tracer.supports_materialized
        result["terms_returned"] = tracer.terms_returned
        result["poly_cache_hit_ratio"] = info.hits / max(1, info.hits + info.misses)
        if spans_path is not None:
            tracer.write(spans_path)

    digests = json.loads(DIGESTS.read_text())[workload] if seed == workloads.DEFAULT_SEED else None
    for row, prep, out in zip(rows, prepared, outputs):
        if out is None:
            continue
        golden = None
        if prep.case.preset is not None:
            golden = (GOLDEN_DIR / f"{prep.case.preset}.json").read_text()
        expected = None
        if digests is not None:
            expected = digests.get(prep.case.label, "no digest recorded for this case")
        rng = random.Random(f"{seed}:{prep.case.label}")
        found, error = bounded(checks.problems, workload, prep, out, golden, expected, rng)
        if error or found:
            row["error"] = "; ".join(found or [f"output check failed: {error}"])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="run.py clock() just before this process started")
    parser.add_argument("--spans", type=Path, help="file for the spans of a traced pass")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.t0, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
