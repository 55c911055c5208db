"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

For every workload it runs `run.py --profile smoke` (tiny bounds, 20+5
trials per system) and checks that:
  - the last line has exactly `correct`, `attempted`, `failed`, `metrics`,
    with every end-to-end metric of BENCHMARK.json (`--trace 0`) or every
    per-layer metric (`--trace 1`), each with its unit;
  - the summary line carries `fail_ratio` and `verdict_s.tail`;
  - the run is correct, and two runs at the same seed give the same
    deterministic counts, equal to the smoke reference in pinned.json;
  - every span the traced run writes lies inside its parent span;
  - one deliberately wrong entry in a copy of the pinned table raises
    `fail_ratio` above 0 without aborting the run.
It also checks that the benchmark exits non-zero, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark files.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINNED = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
SEED = 42


def check(cond: bool, what: str):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def run(workload: str, trace: int = 0, pinned: Path | None = None,
        spans: Path | None = None, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--profile", "smoke"]
    if pinned:
        cmd += ["--pinned", str(pinned)]
    if spans:
        cmd += ["--spans", str(spans)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(done, label: str):
    check(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{label}: attempted/failed")
    return result, json.loads(lines[-2])["summary"]


def check_metrics(result, spec: list, label: str, nonzero: bool):
    got = result["metrics"]
    check(list(got) == [m["name"] for m in spec],
          f"{label}: metrics {sorted(set(got) ^ {m['name'] for m in spec})} differ")
    for m in spec:
        v = got[m["name"]]
        check(v["unit"] == m["unit"], f"{label}: {m['name']} unit {v['unit']}")
        check(isinstance(v["value"], (int, float)), f"{label}: {m['name']} value")
        if nonzero:
            check(v["value"] > 0, f"{label}: {m['name']} is {v['value']}")


def check_spans(path: Path, label: str):
    """Every span lies inside its parent, which was opened before it."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    check(bool(rows), f"{label}: no spans written")
    spans = {int(r[0]): (int(r[2]), float(r[4]), float(r[5])) for r in rows}
    for i, (parent, start, end) in spans.items():
        check(start <= end, f"{label}: span {i} ends before it starts")
        if parent >= 0:
            _, pstart, pend = spans[parent]
            check(parent < i and pstart <= start and end <= pend,
                  f"{label}: span {i} is not inside its parent {parent}")


def wrong_entry(pinned: dict, workload: str) -> dict:
    """A copy of the table with one expected outcome of `workload` changed."""
    bad = copy.deepcopy(pinned)
    table = bad["smoke"][workload]
    if "jobs" in table:
        job = next(iter(table["jobs"].values()))
        vc = next(iter(job["vcs"]))
        job["vcs"][vc] = "counterexample" if job["vcs"][vc] == "valid" else "valid"
    elif "vcs" in table:
        vc = next(iter(table["vcs"].values()))
        vc["exportable"] = not vc["exportable"]
    else:
        table["golden"] = {"SimpleAuction": "golden/etherstore_attack.trace.jsonl"}
    return bad


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for w in (w["name"] for w in BENCH["workloads"]):
            result, summary = parse(run(w), w)
            check(result["correct"] and result["failed"] == 0,
                  f"{w}: failures {summary['failures']}")
            check_metrics(result, BENCH["end_to_end"], w, nonzero=True)
            check(summary["fail_ratio"] == 0.0 and "verdict_s.tail" in summary,
                  f"{w}: summary {summary}")
            check(summary["counts_match_reference"] is True,
                  f"{w}: counts {summary['counts']} differ from the smoke reference")

            spans = tmp / f"spans_{w}.tsv"
            traced, tsummary = parse(run(w, trace=1, spans=spans), f"{w} traced")
            check_spans(spans, w)
            check(traced["correct"], f"{w} traced: failures {tsummary['failures']}")
            check_metrics(traced, BENCH["per_layer"], f"{w} traced", nonzero=False)
            check(tsummary["counts"] == summary["counts"],
                  f"{w}: counts differ between two runs at seed {SEED}")

            bad = tmp / f"pinned_{w}.json"
            bad.write_text(json.dumps(wrong_entry(PINNED, w)), encoding="utf-8")
            broken, bsummary = parse(run(w, pinned=bad), f"{w} wrong entry")
            check(not broken["correct"] and bsummary["fail_ratio"] > 0,
                  f"{w}: a wrong pinned entry left fail_ratio at {bsummary['fail_ratio']}")
            print(f"ok {w}: {len(result['metrics'])} end-to-end and "
                  f"{len(traced['metrics'])} per-layer metrics; wrong entry -> "
                  f"fail_ratio {bsummary['fail_ratio']:.4f}", flush=True)

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(BENCH["workloads"][0]["name"], cwd=bare,
                   script=bare / HERE.name / "run.py")
        last = done.stdout.strip().splitlines()[-1:] or [""]
        check(done.returncode != 0 and not last[0].startswith("{"),
              f"without the toolchain: exit {done.returncode}, output {last}")
        print("ok: exits non-zero without the toolchain source")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
