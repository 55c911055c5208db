"""Both proof routes on the refund proof's VCs at the proof bounds.

    python tests/oracle_bounds.py [SECONDS]

run from the repository root, discharges each of the 14 VCs of
`auction_refunds.aspproof` on `auction.asp` and on `auction_norefund.asp`
at addr=3,nat=4,timer=4, first with the engine (discharge_bounded), then
with the raw-enumeration oracle (discharge_naive). Each VC runs under an
alarm of SECONDS (default 60). Per route, it prints each VC's wall time,
status, `checked` count and valuations per second, or `timeout` when the
alarm fired. Then it prints each VC whose two results disagree, in status
or in a counterexample's valuation or message, and the number of VCs that
both routes finished. The oracle takes minutes here, so this is not part
of Tier-1.
"""
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import load, typed  # noqa: E402

from asp.discharge import (  # noqa: E402
    Counterexample, DomainBounds, Valid, discharge_bounded, discharge_naive,
)
from asp.sketch import parse_proof_sketch  # noqa: E402
from asp.vcgen import generate_vcs  # noqa: E402

BOUNDS = DomainBounds.parse("addr=3,nat=4,timer=4")
PAIRS = (("auction.asp", "auction_refunds.aspproof"),
         ("auction_norefund.asp", "auction_refunds.aspproof"))
ROUTES = {"engine": discharge_bounded, "oracle": discharge_naive}


class Timeout(Exception):
    pass


def _expire(signum, frame):
    raise Timeout


def timed(route: str, vc, seconds: int):
    """(result or None on timeout, wall seconds) of the route on vc."""
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    t0 = time.perf_counter()
    try:
        r = ROUTES[route](vc, BOUNDS)
    except Timeout:
        r = None
    finally:
        signal.alarm(0)
    return r, time.perf_counter() - t0


def _answer(r):
    return (r.status, r.valuation, r.message) if isinstance(r, Counterexample) else r.status


def main(seconds: int) -> None:
    vcs = []
    for contract, proof in PAIRS:
        prog = typed(contract)
        vcs.extend((contract, vc) for vc in generate_vcs(prog, parse_proof_sketch(load(proof), prog)))
    got: dict = {}
    for route in ROUTES:
        print(f"== {route}, {seconds} s per VC")
        for contract, vc in vcs:
            r, wall = timed(route, vc, seconds)
            got[route, contract, vc.name] = r
            if r is None:
                print(f"{wall:8.2f} s  timeout  {contract} {vc.name}", flush=True)
                continue
            checked = r.checked if isinstance(r, Valid) else "-"
            rate = f"{r.checked / wall:,.0f}/s" if isinstance(r, Valid) else "-"
            print(f"{wall:8.2f} s  {r.status:14} checked {checked:>9}  {rate:>10}  "
                  f"{contract} {vc.name}", flush=True)
    both = 0
    for contract, vc in vcs:
        fast, slow = (got[route, contract, vc.name] for route in ROUTES)
        if fast is None or slow is None:
            continue
        both += 1
        if _answer(fast) != _answer(slow):
            print(f"DISAGREE {contract} {vc.name}: engine {_answer(fast)}, "
                  f"oracle {_answer(slow)}")
    print(f"{both} of {len(vcs)} VCs finished on both routes")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 60)
