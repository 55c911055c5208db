"""Per-VC results of the criterion-9 pairs, the answers of the
benchmark's state searches and the benchmark's differential reports,
pinned in engine_pins.json.

The file holds, per route ("engine", "oracle"), bounds and criterion-9
pair, the route's result on each VC in VC order: status, the `checked`
count of a valid VC, and a counterexample's valuation as (key, value)
pairs in the order the route assigned them, with its message. Under
"searches" it holds, per bounds, the report of each search in `SEARCHES`:
`ok`, the number of states explored, and the reason and witness state of
a failed reachability search or the losing state and player of a game.
Under "diffs" it holds, per system of the benchmark's `DIFF_SYSTEMS`, the
`DiffReport` of each run in `DIFF_RUNS` (the criterion-7 runs): its
counts and the sha256 of its `to_json()`.

    python tests/pins.py

run from the repository root, recomputes every pin, rewrites
engine_pins.json and prints each entry that changed as `old -> new`.
"""
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent))

from conftest import CRITERION_9_PAIRS, load, typed  # noqa: E402
from perfbench.workloads import COIN_MAX_8BIT, DIFF_SYSTEMS, R, SCRIPT_LENGTH  # noqa: E402

from asp.diff import differential_check  # noqa: E402
from asp.discharge import (  # noqa: E402
    Counterexample, DomainBounds, Valid, discharge_bounded, discharge_naive,
)
from asp.prove import game_solve, reach_search  # noqa: E402
from asp.sketch import parse_proof_sketch  # noqa: E402
from asp.vcgen import generate_vcs  # noqa: E402

PINS_FILE = HERE / "engine_pins.json"
ROUTES = {"engine": discharge_bounded, "oracle": discharge_naive}
# the bounds each route is pinned at
PINNED = {"engine": ("addr=2,nat=1,timer=2", "addr=2,nat=2,timer=2",
                      "addr=3,nat=4,timer=4"),
          "oracle": ("addr=2,nat=1,timer=2", "addr=2,nat=2,timer=2")}
# the state searches the benchmark runs: label -> (search, contract, proof,
# parameters, creator)
SEARCHES = {
    "reach.auction_closed": (reach_search, "auction.asp", "auction_closed.aspproof",
                             {"beneficiary": "P0", "bidding_time": 3}, "P1"),
    "game.vending_fixed": (game_solve, "vending_fixed.asp", "vending_lockout.aspproof",
                           {}, "P0"),
    "game.vending_machine": (game_solve, "vending_machine.asp",
                             "vending_lockout_original.aspproof", {}, "P0"),
}
SEARCH_BOUNDS = ("addr=2,nat=2,timer=2", "addr=3,nat=4,timer=4")
# the differential runs of each system: word bits, trials, seed, coin_max
DIFF_RUNS = ((256, 1000, 42, 9), (8, 250, 43, COIN_MAX_8BIT))


def pinned_form(r) -> dict:
    """A discharge result in the pinned form."""
    cex = isinstance(r, Counterexample)
    return {"vc": r.vc, "status": r.status,
            "checked": r.checked if isinstance(r, Valid) else None,
            "counterexample": [list(kv) for kv in r.valuation.items()]
            if cex else None,
            "message": r.message if cex else None}


def results(route: str, contract: str, proof: str, bounds: str) -> list[dict]:
    """The route's result on each VC of the pair, in the pinned form."""
    prog = typed(contract)
    return [pinned_form(ROUTES[route](vc, DomainBounds.parse(bounds)))
            for vc in generate_vcs(prog, parse_proof_sketch(load(proof), prog))]


def search_results(bounds: str) -> list[dict]:
    """Each search's report at the bounds, in the pinned form."""
    out = []
    for label, (search, contract, proof, params, creator) in SEARCHES.items():
        prog = typed(contract)
        rep = search(prog, parse_proof_sketch(load(proof), prog),
                     DomainBounds.parse(bounds), params, creator)
        out.append({"search": label, **asdict(rep)})
    return out


def diff_pinned_form(run: tuple, rep) -> dict:
    """The DiffReport of a run of DIFF_RUNS in the pinned form."""
    bits, trials, seed, _ = run
    return {"word_bits": bits, "trials": trials, "seed": seed, "items": rep.items,
            "committed": rep.committed, "reverted": rep.reverted,
            "overflow_gaps": rep.overflow_gaps, "divergences": len(rep.divergences),
            "sha256": hashlib.sha256(rep.to_json().encode()).hexdigest()}


def diff_results(contract: str) -> list[dict]:
    """The system's report of each run in DIFF_RUNS, in the pinned form."""
    prog, news = typed(contract), list(dict(DIFF_SYSTEMS)[contract])
    out = []
    for run in DIFF_RUNS:
        bits, trials, seed, coin_max = run
        rep = differential_check(prog, news, R=R, word_bits=bits, trials=trials,
                                 seed=seed, length=SCRIPT_LENGTH, coin_max=coin_max)
        out.append(diff_pinned_form(run, rep))
    return out


def _dump(obj, depth: int = 0) -> str:
    """JSON with one VC entry per line."""
    pad = " " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    return "[\n" + ",\n".join(pad + json.dumps(e) for e in obj) + "\n" + " " * depth + "]"


def regenerate() -> list[str]:
    """Rewrite the pins file; the changed entries as `old -> new` lines."""
    old = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}
    new: dict = {}
    changes = []
    for route, all_bounds in PINNED.items():
        for bounds in all_bounds:
            for contract, proof in CRITERION_9_PAIRS:
                pair = f"{contract} {proof}"
                got = results(route, contract, proof, bounds)
                new.setdefault(route, {}).setdefault(bounds, {})[pair] = got
                was = {e["vc"]: e for e in
                       old.get(route, {}).get(bounds, {}).get(pair, [])}
                for e in got:
                    before = was.pop(e["vc"], None)
                    if before != e:
                        changes.append(f"{route} {bounds} {pair} {e['vc']}: "
                                       f"{_fields(before, e)}")
                changes.extend(f"{route} {bounds} {pair} {vc}: {json.dumps(e)} -> none"
                               for vc, e in was.items())
    for bounds in SEARCH_BOUNDS:
        got = new.setdefault("searches", {})[bounds] = search_results(bounds)
        was = {e["search"]: e for e in old.get("searches", {}).get(bounds, [])}
        for e in got:
            before = was.pop(e["search"], None)
            if before != e:
                changes.append(f"searches {bounds} {e['search']}: {_fields(before, e)}")
        changes.extend(f"searches {bounds} {label}: {json.dumps(e)} -> none"
                       for label, e in was.items())
    for contract, _ in DIFF_SYSTEMS:
        got = new.setdefault("diffs", {})[contract] = diff_results(contract)
        was = old.get("diffs", {}).get(contract, [])
        for i, e in enumerate(got):
            before = was[i] if i < len(was) else None
            if before != e:
                changes.append(f"diffs {contract} word_bits={e['word_bits']}: "
                               f"{_fields(before, e)}")
    PINS_FILE.write_text(_dump(new) + "\n")
    return changes


def _fields(before, after) -> str:
    if before is None:
        return f"none -> {json.dumps(after)}"
    return ", ".join(f"{k} {json.dumps(before.get(k))} -> {json.dumps(v)}"
                     for k, v in after.items() if before.get(k) != v)


if __name__ == "__main__":
    for line in regenerate():
        print(line)
