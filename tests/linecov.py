"""Line coverage of src/asp by the Tier-1 tests, run in-process under a
`sys.settrace` line tracer (threads too, through `threading.settrace`).

    PYTHONPATH=src python tests/linecov.py [--max N] [pytest arguments]

run from the repository root, runs pytest on `tests/` (or on the given
arguments) and prints, per module of src/asp, the executable lines that
no test ran, grouped by the innermost function that holds them. A line
is executable where the compiled module has an instruction for it. With
`--max N` it exits 1 when more than N lines are unexecuted. Hypothesis
draws from seed 0, so the report is the same on every run.

`differential_check` runs on one share (`asp.diff.MAX_SHARES` is 1), so
the lines that only its forked children would reach are traced; a test
that sets its own share count still forks. Not traced: the CLI tests that
start `asp` as a subprocess, and those children. The tracer's frames hold
references, so `test_discharge_leaves_no_cycles`, which counts the cycles
that discharge leaves, fails under it; it is deselected.
"""
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "asp"
DESELECTED = "tests/test_proofs.py::test_discharge_leaves_no_cycles"

hits: dict[str, set[int]] = defaultdict(set)
_ours: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = Path(name).resolve().parent == SRC
    return _local if ours else None


def code_lines(path: Path) -> dict[int, str]:
    """Executable line -> qualified name of the innermost function that
    holds it ("<module>" at top level)."""
    owner: dict[int, tuple[int, str]] = {}

    def visit(code, depth):
        for _, _, line in code.co_lines():
            if line and owner.get(line, (-1,))[0] < depth:
                owner[line] = (depth, code.co_qualname)
        for c in code.co_consts:
            if hasattr(c, "co_lines"):
                visit(c, depth + 1)

    visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), 0)
    return {line: name for line, (_, name) in owner.items()}


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def report() -> int:
    """Print the unexecuted lines per module; their total."""
    ran_in: dict[Path, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        ran_in[Path(name).resolve()] |= lines
    missed: dict[str, dict[str, list[int]]] = {}
    for path in sorted(SRC.glob("*.py")):
        ran = ran_in[path.resolve()]
        by_fn: dict[str, list[int]] = defaultdict(list)
        for line, fn in sorted(code_lines(path).items()):
            if line not in ran:
                by_fn[fn].append(line)
        missed[path.stem] = by_fn
    total = 0
    for module, by_fn in sorted(missed.items(), key=lambda kv: -sum(map(len, kv[1].values()))):
        count = sum(map(len, by_fn.values()))
        total += count
        if count:
            print(f"{module}: {count} unexecuted")
            for fn, lines in sorted(by_fn.items(), key=lambda kv: kv[1][0]):
                print(f"  {fn}: {_ranges(lines)}")
    return total


def main(args: list[str]) -> int:
    import pytest
    limit = None
    if "--max" in args:
        i = args.index("--max")
        limit = int(args[i + 1])
        del args[i:i + 2]
    start = time.perf_counter()
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import asp.diff  # under the tracer, so its module lines count as run
        asp.diff.MAX_SHARES = 1
        status = pytest.main([*(args or ["tests"]), "-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0", "--deselect", DESELECTED])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start
    print()
    total = report()
    print(f"{total} unexecuted lines in src/asp; pytest exit {int(status)}, {elapsed:.0f} s traced")
    print(f"deselected: {DESELECTED} (the tracer's frames hold references, so it "
          f"fails under the tracer)")
    print("not traced: CLI subprocesses, and the children of a test that sets its own "
          "share count")
    if limit is not None and total > limit:
        print(f"more than --max {limit} unexecuted lines")
        return 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
