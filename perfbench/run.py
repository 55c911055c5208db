"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload prove_safety --seed 42 --seconds 20 --trace 0

Run from the repository root. The workload runs in this process, single
threaded, pass after pass until `--seconds` would be exceeded (at least
three passes untraced; with `--trace 1`, untraced and traced passes
alternate, at least one of each). Untraced pass times are converted to
reference seconds by `speed.SpeedSampler`; the summary keeps the raw wall
times too. Set-up time is the median of several fresh child processes,
each timed from its spawn until the workload's set-up is done.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer ones with `--trace 1`. The
line before it is a JSON summary: pass times, `fail_ratio`, the tail pass
time where the run has enough passes, the deterministic counts and the
first failures.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
TAIL_BEYOND = 10  # passes that must lie beyond the tail percentile


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes for the self-test")
    ap.add_argument("--pinned", type=Path, default=HERE / "pinned.json",
                    help="table of expected outcomes")
    ap.add_argument("--spans", type=Path,
                    help="with --trace 1, also write every span to this TSV file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _toolchain_source() -> Path:
    src = ROOT / "src"
    if not (src / "asp" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        raise SystemExit(f"error: no toolchain source (src/asp) or corpus "
                         f"under {ROOT}; run from a checkout of the repository")
    return src


def _setup_seconds(args) -> float:
    """Median, over fresh processes, of spawn-to-set-up-done in reference
    seconds. Each child samples its own speed while it sets up; the spawn
    is scaled by the same factor."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--profile", args.profile, "--pinned", str(args.pinned)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        ready, sampled, factor = map(float, done.stdout.split()[-3:])
        samples.append((ready - t0 - sampled) * factor)
    return statistics.median(samples)


def _tail(times: list[float]):
    """Highest percentile of pass time with TAIL_BEYOND passes beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return {"value": sorted(times)[k], "unit": "s",
            "percentile": round(100 * (k + 1) / n, 1), "samples": n}


def main(argv=None) -> int:
    args = _args(argv)
    sys.path[:0] = [str(_toolchain_source()), str(HERE)]
    from speed import SETUP_PERIOD_S, SpeedSampler, speed_factor
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    if args.setup_probe:
        with SpeedSampler(SETUP_PERIOD_S) as sampler:
            make(ROOT / "corpus", args.profile, args.seed,
                 json.loads(args.pinned.read_text(encoding="utf-8")))
            ready = time.perf_counter()
        print(ready, sum(sampler.dur), speed_factor(sampler.dur))
        return 0
    pinned = json.loads(args.pinned.read_text(encoding="utf-8"))

    setup_s = None if args.trace else _setup_seconds(args)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        work = make(ROOT / "corpus", args.profile, args.seed, pinned)
    finally:
        if tracer:
            tracer.uninstall()

    min_passes = 2 if args.trace else 3
    wall: list[float] = []  # work seconds per pass
    times: list[float] = []  # reference seconds per pass (untraced runs)
    traced: list[int] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    items = attempted = 0
    failures: list[str] = []
    first_counts = None
    sampler = None if tracer else SpeedSampler()
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        while True:
            n = len(wall)
            tracing = tracer is not None and n % 2 == 1
            if tracing:
                tracer.begin_pass(n)
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = work.run_pass()
            finally:
                t1 = time.perf_counter()
                if tracing:
                    tracer.uninstall()
            if sampler:
                work_s, ref_s = sampler.measure(t0, t1)
                wall.append(work_s)
                times.append(ref_s)
            else:
                wall.append(t1 - t0)
                (traced_s if tracing else untraced_s).append(t1 - t0)
                if tracing:
                    traced.append(n)
            items += out.items
            attempted += out.attempted + 1  # +1: the counts-repeat check
            failures += out.failures
            if first_counts is None:
                first_counts = out.counts
            elif out.counts != first_counts:
                failures.append(f"pass {n}: counts {out.counts} differ from "
                                f"pass 0 {first_counts}")
            elapsed = time.perf_counter() - start
            if len(wall) >= min_passes and \
                    elapsed + statistics.median(wall) > args.seconds:
                break

    # reference counts: per seed, or "*" where the seed does not matter
    refs = work.pinned["counts"]
    ref = refs.get(str(args.seed), refs.get("*"))
    summary = {
        "workload": args.workload, "seed": args.seed, "profile": args.profile,
        "passes": len(wall), "wall_pass_s": wall, "ref_pass_s": times,
        "fail_ratio": len(failures) / attempted,
        "verdict_s.tail": _tail(times or wall),
        "counts": first_counts,
        "counts_match_reference": None if ref is None else ref == first_counts,
        "failures": failures[:5],
    }
    if tracer:
        from asp.interp import REASONS
        from tracing import layer_metrics
        metrics = layer_metrics(tracer, traced, traced_s, untraced_s, REASONS)
        if args.spans:
            tracer.write_tsv(args.spans)
    else:
        busy = sum(times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "verdict_s.p50": (statistics.median(times), "s"),
            "items_per_s": (items / busy, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "emitted_bytes": (work.emitted_bytes(), "bytes"),
        }
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
