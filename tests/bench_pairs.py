"""Alternating pairs of benchmark runs on two checkouts.

    python tests/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

byte-compiles both checkouts first (`compileall` over `src` and
`perfbench`), so that neither side's set-up probes time compilation. Then
it runs each checkout's own `perfbench/run.py` N times per side, in that
checkout, alternating which side runs first; run.py keeps its default
seed, and the run length defaults to `run_seconds` of PARENT's
BENCHMARK.json. It prints each run's `correct` and `failed`, and for each
metric on the last line of run.py's output every run, each side's median
and quartiles, and the pairs each side won (a tie counts for neither). A
metric shows a gain when the change won at least nine tenths of the pairs,
the medians lie further apart than the parent's quartiles, every change
run was correct and the change failed no more operations than the parent.
Whether lower or higher is better is read from PARENT's BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.suite import spread  # noqa: E402

WIN_SHARE = 0.9  # the share of pairs a gain must win


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _compile(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(checkout / "src"), str(checkout / "perfbench")],
                   check=True, stdout=subprocess.DEVNULL)


def _run(checkout: Path, args) -> dict:
    """The last line of one run.py run in checkout: `correct`, `failed`
    and the metrics, name -> value."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: run.py in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": out["correct"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, wins and whether the metric moved far enough
    in the better direction to count as a gain."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    moved = sign * (c["median"] - p["median"])
    gain = (wins >= WIN_SHARE * len(parent) and moved > 0
            and abs(moved) > p["q3"] - p["q1"])
    return {"parent": p, "change": c, "wins": (losses, wins), "gain": gain}


def main(argv=None) -> int:
    args = _args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    directions = {m["name"]: m["better"]
                  for key in ("end_to_end", "per_layer") for m in bench[key]}
    for checkout in sides.values():
        _compile(checkout)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(sides[side], args))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    sound = all(r["correct"] for r in runs["change"]) and failed["change"] <= failed["parent"]
    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds} "
          f"--trace {args.trace}")
    for side, rs in runs.items():
        print(f"{side} correct {' '.join(str(r['correct']).lower() for r in rs)}; "
              f"failed {' '.join(str(r['failed']) for r in rs)}")
    for name in runs["parent"][0]["metrics"]:
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        better = directions[name]
        v = verdict(parent, change, better)
        p, c = v["parent"], v["change"]
        print(f"{name} ({better} is better)")
        print(f"  parent {' '.join(f'{x:.6g}' for x in parent)}")
        print(f"  change {' '.join(f'{x:.6g}' for x in change)}")
        print(f"  median {p['median']:.6g} -> {c['median']:.6g}; quartiles "
              f"{p['q1']:.6g}-{p['q3']:.6g} -> {c['q1']:.6g}-{c['q3']:.6g}; pairs won "
              f"parent {v['wins'][0]}, change {v['wins'][1]}; "
              f"gain: {'yes' if v['gain'] and sound else 'no'}")
    if not sound:
        print("no gain counts: a change run was not correct, or the change "
              f"failed more operations ({failed['change']}) than the parent "
              f"({failed['parent']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
