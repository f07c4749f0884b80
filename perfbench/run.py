"""qcenters benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload report-sweep --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass runs every case of the
workload once, one operation at a time, in a fresh worker process, so the
module-level caches of qcenters start cold as they do for every command-line
call.  Passes repeat until the next one would end after --seconds.  Each
operation is timed next to a fixed calibration kernel, and its time is also
expressed at a reference speed (see REF_KERNEL_S).  With --trace 0 the
end-to-end metrics come from untraced passes; with --trace 1
untraced and traced passes alternate, and the traced ones give the per-layer
metrics and the tracing overhead.  Outputs are checked after every pass; a
failed check, an exception or a missed deadline counts the operation as
failed, and any failure makes the run exit 1.  The last line of stdout is a
JSON object with keys correct, attempted, failed and metrics; a record with
run metadata goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
HARD_LIMIT_S = 150.0  # no run lasts longer, whatever the program under test does

sys.path.insert(0, str(BENCH_DIR))
from tracer import LAYER_FUNCTIONS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

ITEMS = {"report-sweep": "reports_per_s", "rmatrix-box": "terms_per_s", "cyclo-wide": "pairs_per_s"}


def clock() -> float:
    """System-wide monotonic clock, comparable between run.py and its workers."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_pass(workload: str, seed: int, traced: bool, spans: Path | None, budget: float) -> tuple[dict | None, str]:
    """Run one pass in a fresh worker; returns (result, error text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = clock()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--t0", repr(t0)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"pass killed after {budget:.0f} s"
        except BaseException:
            proc.kill()  # interrupted: leave no worker behind
            raise
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        return None, f"worker exited with code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "worker printed no result"


# Time of worker.calibrate() at reference speed.  Operation times are also
# reported at reference speed: each is scaled by REF_KERNEL_S over the
# kernel's time measured around it, which cancels the swings in a shared
# host's speed that make raw times of identical work differ by up to 2x
# between runs a few minutes apart.
REF_KERNEL_S = 0.025


def wall_s(row: dict) -> float:
    return row["seconds"]


def ref_s(row: dict) -> float:
    return row["seconds"] * REF_KERNEL_S / row["kernel_s"]


def pass_seconds(p: dict, seconds_of) -> float:
    return sum(seconds_of(row) for row in p["ops"])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def timing(plain: list[dict], seconds_of, prefix: str) -> dict[str, tuple[float, str, int]]:
    """Throughput and latency percentiles of the successful operations.

    Throughput is the items over the whole operation time of the run.
    Latency percentiles are over the case mix, each case represented by its
    median over the passes, so that no single noisy call sets a percentile.
    """
    by_case: dict[str, list[float]] = {}
    for p in plain:
        for row in p["ops"]:
            if row["error"] is None:
                by_case.setdefault(row["label"], []).append(seconds_of(row) * 1000)
    typical = [statistics.median(v) for v in by_case.values()]
    n_ok = sum(len(v) for v in by_case.values())
    items = sum(row["items"] for p in plain for row in p["ops"] if row["error"] is None)
    nan = float("nan")
    return {
        f"items_per_{prefix}s": (items / sum(pass_seconds(p, seconds_of) for p in plain), "1/s", n_ok),
        f"op_{prefix}ms_p50": (statistics.median(typical) if typical else nan, "ms", n_ok),
        f"op_{prefix}ms_p90": (nearest_rank(typical, 0.9) if typical else nan, "ms", n_ok),
    }


def end_to_end(plain: list[dict]) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) per end-to-end metric, from untraced passes."""
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s", len(plain)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB", len(plain)),
        **timing(plain, ref_s, "ref_"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) per per-layer metric: medians over traced
    passes of per-pass totals, so call counts do not depend on pass count."""
    n = len(traced)
    out: dict[str, tuple[float, str, int]] = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (statistics.median(p["layers"][name]["calls"] for p in traced), "count", n)
        out[f"{name}.self_s"] = (statistics.median(p["layers"][name]["self_s"] for p in traced), "s", n)
    out["rmatrix.support_size.materialized"] = (
        statistics.median(p["supports_materialized"] for p in traced), "count", n)
    out["rmatrix.useful_ratio"] = (statistics.median(
        p["terms_returned"] / p["supports_materialized"] if p["supports_materialized"] else 0.0 for p in traced),
        "ratio", n)
    out["cyclo.cyclotomic_poly.hit_ratio"] = (statistics.median(p["poly_cache_hit_ratio"] for p in traced), "ratio", n)
    overhead = [pass_seconds(t, ref_s) / pass_seconds(p, ref_s) for p, t in zip(plain, traced)]
    out["trace.overhead_ratio"] = (statistics.median(overhead), "ratio", len(overhead))
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qcenters benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))  # unwind, so the worker is killed
    if not (SRC / "qcenters" / "__init__.py").is_file():
        print(f"error: {SRC / 'qcenters'} not found; run from a qcenters checkout", file=sys.stderr)
        return 2

    n_ops = len(generate(args.workload, args.seed))
    kinds = [False, True] if args.trace else [False]
    spans_prefix = f"spans-{args.workload}-seed{args.seed}"
    if args.trace:
        for old in OUT_DIR.glob(f"spans-{args.workload}-*.csv.gz"):
            old.unlink()
    passes: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    failures: list[str] = []
    start = clock()
    while True:
        round_start = clock()
        for traced in kinds:
            spans = OUT_DIR / f"{spans_prefix}-pass{len(passes[True])}.csv.gz" if traced else None
            result, error = spawn_pass(args.workload, args.seed, traced, spans, HARD_LIMIT_S - (clock() - start))
            attempted += n_ops
            if result is None:
                failed += n_ops
                failures.append(f"{'traced' if traced else 'untraced'} pass: {error}")
                continue
            passes[traced].append(result)
            for row in result["ops"]:
                if row["error"] is not None:
                    failed += 1
                    failures.append(f"{row['label']}: {row['error']}")
        now = clock()
        if failures or now - start + (now - round_start) > args.seconds:
            break

    plain, traced = passes[False], passes[True]
    if not plain or (args.trace and not traced):
        for f in failures:
            print(f"FAILED {f}", file=sys.stderr)
        return 1
    shown = end_to_end(plain)
    wall = timing(plain, wall_s, "")  # printed and recorded, not compared
    layers = per_layer(plain, traced) if args.trace else {}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "passes": len(plain),
        "traced_passes": len(traced),
    }
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    ratio = failed / attempted
    print(f"  {'ops_failed_ratio':<50} {ratio:<14.6g} {'ratio':<6} n={attempted} ({failed} failed of {attempted} attempted)")
    aliases = {"items_per_s": ITEMS[args.workload], "items_per_ref_s": ITEMS[args.workload] + " at reference speed"}
    if args.workload == "report-sweep":
        aliases.update(op_ms_p50="report_ms_p50", op_ms_p90="report_ms_p90",
                       op_ref_ms_p50="report_ms_p50 at reference speed", op_ref_ms_p90="report_ms_p90 at reference speed")
    for name, (value, unit, n) in list(shown.items()) + list(wall.items()) + list(layers.items()):
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name + alias:<50} {value:<14.6g} {unit:<6} n={n}")
    for f in failures:
        print(f"FAILED {f}")

    metrics = layers if args.trace else shown
    record = {
        "meta": meta,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": ratio,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in {**shown, **wall, **layers}.items()},
        "passes": {"untraced": plain, "traced": [{k: v for k, v in p.items() if k != "layers"} for p in traced]},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
