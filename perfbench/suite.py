"""Run every workload several times, each in its own process, and report
every metric with its run-to-run spread.

    python3 perfbench/suite.py --runs 10                 # end-to-end metrics
    python3 perfbench/suite.py --runs 3 --trace 1        # per-layer metrics
    python3 perfbench/suite.py --runs 10 --out perfbench/provenance.json

Run i of a workload uses seed `--seed + i`. Runs go round-robin over the
workloads so that a change in machine load reaches all of them alike. The
spread of a metric is the distance between the first and third quartiles
of its runs (`statistics.quantiles(values, n=4)`) as a share of the median;
it is compared with the metric's bound from BENCHMARK.json. With `--out`,
the machine, the seed, the workload reasons, the spreads and the counts are
written to that file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = json.loads(lines[-2])["summary"]
    result["wall_s"] = time.monotonic() - t0
    return result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def _roadmap_note(report: dict) -> str:
    """How the ROADMAP's one-off baselines compare with this benchmark."""
    parts = []
    safety = report.get("prove_safety")
    if safety and "verdict_s.p50" in safety["metrics"]:
        p50 = safety["metrics"]["verdict_s.p50"]["median"]
        leaves = safety["counts_at_seed"]["leaves"]
        parts.append(
            f"prove_safety: {p50:.2f} reference s per pass for the refund proof "
            f"and its mutant together, {leaves:,} leaves (106,911 + 16,911); the "
            f"ROADMAP's refund proof alone took 5.2-7.1 s wall with 107k leaves.")
    parts.append("The ROADMAP's Tier-1 time (340 s) and vending-storm cascade "
                 "rate (~56k steps/s) are not workloads here; cascade.steps_per_s "
                 "in the traced diff_fuzz run measures the cascade on the "
                 "criterion-7 mix instead.")
    return " ".join(parts)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs: dict[str, list] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = _run(w, args.seed + i, args.seconds, args.trace)
            runs[w].append(r)
            s = r["summary"]
            print(f"{w} seed={s['seed']} passes={s['passes']} wall={r['wall_s']:.1f}s "
                  f"correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                             if args.trace == 0), flush=True)

    report: dict = {}
    ok = True
    for w in workloads:
        rs = runs[w]
        stats = {}
        print(f"\n{w}: {len(rs)} runs")
        for name in rs[0]["metrics"]:
            unit = rs[0]["metrics"][name]["unit"]
            st = spread([r["metrics"][name]["value"] for r in rs])
            st["unit"] = unit
            stats[name] = st
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and st["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            print(f"  {name:30s} {st['median']:12.6g} {unit:6s} "
                  f"q1={st['q1']:.6g} q3={st['q3']:.6g} spread={st['spread']:.3f}"
                  + (f" bound={bound}" if bound is not None else "") + flag)
        fails = sum(r["failed"] for r in rs)
        off_reference = [r["summary"]["seed"] for r in rs
                         if r["summary"]["counts_match_reference"] is False]
        tails = [r["summary"]["verdict_s.tail"] for r in rs if r["summary"]["verdict_s.tail"]]
        print(f"  fail_ratio: {fails}/{sum(r['attempted'] for r in rs)}; counts differ "
              f"from the pinned reference at seeds {off_reference or 'none'}")
        if tails:
            t = spread([x["value"] for x in tails])
            print(f"  verdict_s.tail: median {t['median']:.6g} s at "
                  f"p{tails[0]['percentile']} of {tails[0]['samples']} passes")
        ok = ok and fails == 0 and not off_reference
        report[w] = {"metrics": stats, "failed": fails,
                     "attempted": sum(r["attempted"] for r in rs),
                     "counts_at_seed": rs[0]["summary"]["counts"],
                     "passes": [r["summary"]["passes"] for r in rs],
                     "tail": tails[0] if tails else None}

    if args.out:
        prov = {
            "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                        "python": platform.python_version()},
            "measured": time.strftime("%Y-%m-%d", time.gmtime()),
            "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
            "trace": args.trace,
            "workloads": {w["name"]: w["why"] for w in bench["workloads"]
                          if w["name"] in workloads},
            "results": report,
            "roadmap_note": _roadmap_note(report),
        }
        args.out.write_text(json.dumps(prov, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
