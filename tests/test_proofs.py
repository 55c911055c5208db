"""Proof pipeline: sketches, VC generation, bounded discharge, searches."""
import itertools
import json
from pathlib import Path

import pytest

from asp.diagnostics import SketchError
from asp.discharge import (
    Counterexample, DomainBounds, Valid, discharge_bounded, discharge_naive,
    replay_counterexample,
)
from asp.parser import parse_program
from asp.prove import check_proof, game_solve, reach_search
from asp.sketch import parse_proof_sketch
from asp.typecheck import typecheck
from asp.vcgen import generate_vcs
from conftest import CRITERION_9_PAIRS, load, typed

BOUNDS = DomainBounds(addresses=3, nat_max=4, timer_max=4)
SMALL = DomainBounds(addresses=2, nat_max=2, timer_max=2)


@pytest.fixture(scope="module")
def refund_sketch(auction):
    return parse_proof_sketch(load("auction_refunds.aspproof"), auction)


@pytest.fixture(scope="module")
def closed_sketch(auction):
    return parse_proof_sketch(load("auction_closed.aspproof"), auction)


# -- sketch parsing -----------------------------------------------------------


def test_refund_sketch_shape(refund_sketch):
    assert refund_sketch.kind == "safety"
    assert len(refund_sketch.always) == 4
    assert set(refund_sketch.at) == {"StartAuction", "AuctionOpen"}
    assert refund_sketch.reject is None


def test_closed_sketch_shape(closed_sketch):
    sk = closed_sketch
    assert sk.kind == "reachability"
    assert sk.rank_len == 2
    assert set(sk.goal) == {"AuctionClosed"}
    assert [len(sk.rank[s]) for s in ("StartAuction", "AuctionOpen", "AuctionClosed")] \
        == [1, 2, 1]
    # declaration order is significant: fired case first
    first, second = sk.rank["AuctionOpen"]
    assert "has_fired" in str(first.cond)
    assert "is_active" in str(second.cond)


def test_empty_sketch_rejected(auction):
    with pytest.raises(SketchError):
        parse_proof_sketch("safety nothing { }", auction)


def test_unknown_state_label(auction):
    with pytest.raises(SketchError):
        parse_proof_sketch("safety s { @Nowhere true }", auction)


def test_rank_length_mismatch(auction):
    bad = """
reachability r(2) {
  goal = { @AuctionClosed true }
  rank = { @StartAuction | (1) }
}
"""
    with pytest.raises(SketchError):
        parse_proof_sketch(bad, auction)


def test_undeclared_variable(auction):
    with pytest.raises(Exception):
        parse_proof_sketch("safety s { always missing == 0 }", auction)


# -- VC generation ------------------------------------------------------------


def test_safety_vc_count(auction, refund_sketch):
    vcs = generate_vcs(auction, refund_sketch)
    kinds = [vc.kind for vc in vcs]
    # one per source transition plus one time obligation per state of this
    # timer-bearing contract, plus initiality
    assert kinds.count("Initiality") == 1
    assert kinds.count("Inductiveness") == len(
        auction.contract("SimpleAuction").transitions) + 3
    assert kinds.count("Sufficiency") == 0  # no reject clause


def test_reachability_vc_kinds(auction, closed_sketch):
    vcs = generate_vcs(auction, closed_sketch)
    kinds = {vc.kind for vc in vcs}
    assert kinds == {"Initiality", "RankDefined", "Enabledness", "RankDecrease"}


def test_sufficiency_generated_with_reject(auction):
    sk = parse_proof_sketch("""
safety no_bene_refund_early {
  always Map.get(refunded, beneficiary) >= 0
  reject = Map.get(refunded, beneficiary) < 0
}
""", auction)
    vcs = generate_vcs(auction, sk)
    assert sum(1 for vc in vcs if vc.kind == "Sufficiency") == 3
    rep = check_proof(auction, sk, SMALL)
    assert rep.valid


# -- proof verdicts -----------------------------------------------------------


def test_refund_proof_valid(auction, refund_sketch):
    rep = check_proof(auction, refund_sketch, BOUNDS)
    assert rep.valid, rep.to_json()


def test_refund_mutant_counterexample_replays():
    prog = typecheck(parse_program(load("auction_norefund.asp")))
    sk = parse_proof_sketch(load("auction_refunds.aspproof"), prog)
    rep = check_proof(prog, sk, BOUNDS)
    assert not rep.valid
    cexs = [r for r in rep.results if isinstance(r.result, Counterexample)]
    assert any("bid@" in r.vc.name for r in cexs)
    for r in cexs:
        assert replay_counterexample(r.vc, BOUNDS, r.result)


def test_reachability_proof_valid(auction, closed_sketch):
    rep = check_proof(auction, closed_sketch, BOUNDS)
    assert rep.valid, rep.to_json()


def test_rank_case_order_matters(auction):
    """Swapping the AuctionOpen cases makes the active case shadow the
    fired one, so the timeout transition has no defined decrease."""
    swapped = load("auction_closed.aspproof").replace(
        """| (1, 0) if Timer.has_fired(tmr)
      | (1, Timer.value(tmr)) if Timer.is_active(tmr)""",
        """| (1, Timer.value(tmr)) if Timer.is_active(tmr)
      | (1, 0) if Timer.has_fired(tmr)""")
    sk = parse_proof_sketch(swapped, auction)
    rep = check_proof(auction, sk, BOUNDS)
    assert rep.valid  # same cases, disjoint conditions: still fine
    # a genuinely shadowing order: unconditional first
    shadowing = load("auction_closed.aspproof").replace(
        """| (1, 0) if Timer.has_fired(tmr)
      | (1, Timer.value(tmr)) if Timer.is_active(tmr)""",
        """| (1, 1)
      | (1, Timer.value(tmr)) if Timer.is_active(tmr)""")
    sk2 = parse_proof_sketch(shadowing, auction)
    rep2 = check_proof(auction, sk2, BOUNDS)
    assert not rep2.valid


def test_goal_everywhere_trivially_valid(auction):
    sk = parse_proof_sketch("""
reachability anywhere(1) {
  goal = {
    @StartAuction true
    @AuctionOpen true
    @AuctionClosed true
  }
  rank = {
    @StartAuction | (0)
    @AuctionOpen | (0)
    @AuctionClosed | (0)
  }
}
""", auction)
    rep = check_proof(auction, sk, SMALL)
    assert rep.valid


def test_lockout_fixed_valid(vending_fixed):
    sk = parse_proof_sketch(load("vending_lockout.aspproof"), vending_fixed)
    rep = check_proof(vending_fixed, sk, BOUNDS)
    assert rep.valid
    assert rep.failed_states == []


def test_lockout_original_fails_at_choose(vending_original):
    sk = parse_proof_sketch(load("vending_lockout_original.aspproof"),
                            vending_original)
    rep = check_proof(vending_original, sk, BOUNDS)
    assert not rep.valid
    assert "Choose" in rep.failed_states


def test_missing_witness_rejected(auction):
    """StartAuction has no tau transition and no witness: the enabledness
    existential cannot be discharged."""
    no_witness = load("auction_closed.aspproof").replace(
        "@StartAuction a == owner && a != Address.none", "")
    sk = parse_proof_sketch(no_witness, auction)
    prog_no_timer = typecheck(parse_program("""
contract OneShot(boss: address) where boss != Address.none {
  msg go;
  initial A;
  state A:
  | b??go by boss -> B { }
  state B:
}
"""))
    sk2 = parse_proof_sketch("""
reachability done(1) {
  goal = { @B true }
  invariant = { }
  rank = { @A | (1)  @B | (0) }
  witness = { }
}
""", prog_no_timer)
    with pytest.raises(SketchError):
        generate_vcs(prog_no_timer, sk2)


# -- engine agreement (pruning DFS vs raw-product interpreted oracle) ---------


def _no_compiler(*args, **kwargs):
    raise AssertionError("the oracle and replay run no compiled code")


def _agree(prog, sketch, bounds):
    """Engine and oracle results per VC; the verdicts agree and every
    counterexample replays. The oracle and replay run with the engine's
    compiler patched away: they share only its finitization."""
    fast, slow = [], []
    for vc in generate_vcs(prog, sketch):
        fast.append(discharge_bounded(vc, bounds))
        with pytest.MonkeyPatch.context() as m:
            m.setattr("asp.discharge.Compiler", _no_compiler)
            slow.append(discharge_naive(vc, bounds))
            assert fast[-1].status == slow[-1].status, (
                f"{vc.name}: engine={fast[-1].status} oracle={slow[-1].status}")
            for r in (fast[-1], slow[-1]):
                if isinstance(r, Counterexample):
                    assert replay_counterexample(vc, bounds, r), vc.name
    return fast, slow


def _checked(results):
    return sum(r.checked for r in results if isinstance(r, Valid))


def test_engine_agrees_with_naive_oracle_refunds(auction):
    sk = parse_proof_sketch(load("auction_refunds.aspproof"), auction)
    _, oracle = _agree(auction, sk, SMALL)
    assert _checked(oracle) == 6344


def test_engine_agrees_with_naive_oracle_mutant():
    prog = typecheck(parse_program(load("auction_norefund.asp")))
    sk = parse_proof_sketch(load("auction_refunds.aspproof"), prog)
    _, oracle = _agree(prog, sk, SMALL)
    assert _checked(oracle) == 5192
    assert [r.vc for r in oracle if isinstance(r, Counterexample)] == [
        "inductive[SimpleAuction.bid@AuctionOpen#1]"]


def test_engine_agrees_on_reachability(auction):
    sk = parse_proof_sketch(load("auction_closed.aspproof"), auction)
    _agree(auction, sk, SMALL)


def test_engine_agrees_on_lockout(vending_fixed):
    sk = parse_proof_sketch(load("vending_lockout.aspproof"), vending_fixed)
    _agree(vending_fixed, sk, SMALL)


SEQS = """
contract Seqs() {
  msg push(nat), put(nat, nat);
  var xs: seq[nat];
  var pair: tuple[nat, address];
  initial Empty;
  state Empty:
  | a??push(n) -> Full { Seq.append(xs, n); Tuple.set(pair, 0, n); }
  state Full:
  | a??put(i, n) -> Full { %s }
}
"""

MIRRORED = """
safety mirrored {
  always Seq.len(xs) <= 1
  @Empty Seq.len(xs) == 0
  @Full Seq.len(xs) == 1 && Seq.get(xs, 0) == Tuple.get(pair, 0)
}
"""


@pytest.mark.parametrize("put_action, valid", [
    ("Seq.set(xs, i, n); Tuple.set(pair, 0, n);", True),
    ("Seq.set(xs, i, n);", False),
])
def test_engine_agrees_on_seq_tuple_safety(put_action, valid):
    """Hypotheses over sequence and tuple state compile in the engine."""
    prog = typecheck(parse_program(SEQS % put_action))
    sk = parse_proof_sketch(MIRRORED, prog)
    statuses = [r.status for r in _agree(prog, sk, SMALL)[0]]
    assert "unknown" not in statuses
    assert ("counterexample" not in statuses) == valid


ECHO = """
contract Echo() {
  msg give(coin), got(coin);
  var n: nat;
  initial A;
  state A:
  | a??give(c) -> A { a!!got(c); if Coin.value(c) > 0 then n = 1; }
}
"""


def test_engine_agrees_on_send_of_coin_binder():
    """A send drains a coin binder as it drains a coin variable: after
    `a!!got(c)` the binder holds nothing, on every route."""
    prog = typecheck(parse_program(ECHO))
    sk = parse_proof_sketch("safety untouched { always n == 0 }", prog)
    statuses = [r.status for r in _agree(prog, sk, SMALL)[0]]
    assert statuses == ["valid", "valid"]


CAPPED = """
contract Capped(limit: nat) where limit > %d {
  msg poke;
  var n: nat;
  initial A;
  state A:
  | a??poke -> A { n = 0; }
}
"""


@pytest.mark.parametrize("floor, leaves", [(5, 0), (1, 2)])
def test_engine_agrees_on_independent_tail(floor, leaves):
    """Only the `where` clause reads `limit`, so the step's VC solves that
    conjunct once, apart from the search: unsatisfiable at nat=2 it makes
    the VC Valid with no leaf, as the oracle finds."""
    prog = typecheck(parse_program(CAPPED % floor))
    sk = parse_proof_sketch("safety zero { always n == 0 }", prog)
    fast, slow = _agree(prog, sk, SMALL)
    assert [(r.vc, r.checked) for r in fast] == [
        ("initiality[Capped.A]", leaves), ("inductive[Capped.poke@A#0]", leaves)]
    assert [r.checked for r in slow] == [leaves, leaves]


def test_existential_search_does_not_force():
    """Past the boundary one witness per prefix is sought in variable
    order, without forcing: `r == p` does not pull r ahead of q."""
    prog = typecheck(parse_program("""
contract Trio(p: nat, q: nat, r: nat) where r == p && q < 5 {
  msg poke;
  var n: nat;
  initial A;
  state A:
  | a??poke -> A { n = 1; }
}
"""))
    sk = parse_proof_sketch("safety zero { always n == 0 }", prog)
    fast, _ = _agree(prog, sk, SMALL)
    assert list(fast[1].valuation) == ["n", "a", "p", "q", "r"]


LEDGER = """
contract Ledger() {
  msg pay(nat);
  var total: nat;
  var a: address;
  var b: address;
  var bal: map[address, nat] default 0;
  initial A;
  state A:
  | x??pay(v) -> A { %s }
}
"""


@pytest.mark.parametrize("pay_action, valid", [
    ("Map.set(bal, b, v); total = v;", True),
    ("Map.set(bal, b, v);", False),
])
def test_engine_agrees_on_entry_forced_through_forced_key(pay_action, valid):
    """`b == a` forces b; the conjunct over `Map.get(bal, b)`, blocked on
    b until then, forces the entry of b's value next."""
    prog = typecheck(parse_program(LEDGER % pay_action))
    sk = parse_proof_sketch(
        "safety mirrored { always b == a && Map.get(bal, b) == total }", prog)
    fast, _ = _agree(prog, sk, SMALL)
    cex = [r for r in fast if isinstance(r, Counterexample)]
    assert len(cex) == (0 if valid else 1)
    if cex:  # b and its entry come before the binders x and v
        assert list(cex[0].valuation)[:4] == ["total", "a", "b", "bal[none]"]


# -- engine results pinned per VC ---------------------------------------------

# engine_pins.json holds, per bounds and criterion-9 pair, the engine's
# result on each VC in VC order, as `_engine_results` gives it: status,
# the leaves of a valid VC, and a counterexample's valuation as (key,
# value) pairs in the order the engine assigned them, with its message.
ENGINE_PINS = json.loads((Path(__file__).parent / "engine_pins.json").read_text())


def _engine_results(prog, sketch, bounds):
    out = []
    for vc in generate_vcs(prog, sketch):
        r = discharge_bounded(vc, bounds)
        cex = isinstance(r, Counterexample)
        out.append({"vc": vc.name, "status": r.status,
                    "checked": r.checked if isinstance(r, Valid) else None,
                    "counterexample": [list(kv) for kv in r.valuation.items()]
                    if cex else None,
                    "message": r.message if cex else None})
    return out


@pytest.mark.parametrize("bounds", ["addr=2,nat=1,timer=2", "addr=2,nat=2,timer=2"])
def test_engine_results_pinned(bounds):
    """Every criterion-9 VC keeps its engine result, down to the key order
    of a counterexample."""
    for contract, proof in CRITERION_9_PAIRS:
        prog = typed(contract)
        got = _engine_results(prog, parse_proof_sketch(load(proof), prog),
                              DomainBounds.parse(bounds))
        for g, want in zip(got, ENGINE_PINS[bounds][f"{contract} {proof}"], strict=True):
            assert g == want, (contract, proof)


# -- liveness answers pinned --------------------------------------------------

# The engine's total leaf count over the valid VCs and the failing VCs of
# each liveness proof at SMALL. The game-rule checks enumerate moves, guards
# and slices through the runtime evaluator; a change there shows here.
LIVENESS = {
    ("auction.asp", "auction_closed.aspproof"): (272, []),
    ("vending_fixed.asp", "vending_lockout.aspproof"): (155, [
        "opponent_total[VendingMachine.Choose]",
        "player_move[VendingMachine.Deliver]"]),
    ("vending_machine.asp", "vending_lockout_original.aspproof"): (119, [
        "opponent_total[VendingMachine.Choose]",
        "opponent_total[VendingMachine.Halt]",
        "player_move[VendingMachine.Choose]",
        "player_move[VendingMachine.Deliver]",
        "player_move[VendingMachine.Halt]",
        "rank_defined[VendingMachine.Halt]"]),
}


@pytest.mark.parametrize("contract, proof", LIVENESS)
def test_liveness_leaves_and_failures_pinned(contract, proof):
    leaves, failing = LIVENESS[contract, proof]
    prog = typecheck(parse_program(load(contract)))
    rep = check_proof(prog, parse_proof_sketch(load(proof), prog), SMALL)
    assert sum(r.result.checked for r in rep.results if r.ok) == leaves
    assert sorted(r.vc.name for r in rep.results if not r.ok) == failing


def test_bounds_checked_on_construction():
    """The API gets the same bound checks as --bounds: no address means no
    creator P0."""
    for kw in ({"addresses": 0}, {"nat_max": -1}, {"timer_max": "4"}):
        with pytest.raises(ValueError):
            DomainBounds(**kw)
    assert DomainBounds(3, 4, 4) == BOUNDS


# -- rank well-foundedness ----------------------------------------------------


def test_lexicographic_descent_terminates():
    """No infinite strictly decreasing chain from any tuple <= (5, 5):
    exhaustive descent over the finite domain."""
    space = [(a, b) for a in range(6) for b in range(6)]
    longest = {}

    def depth(t):
        if t in longest:
            return longest[t]
        best = 0
        for u in space:
            if u < t:
                best = max(best, 1 + depth(u))
        longest[t] = best
        return best

    assert depth((5, 5)) == len(space) - 1  # finite, hence well-founded


# -- independent searches -----------------------------------------------------


def test_reach_search_confirms_closing(auction):
    sk = parse_proof_sketch(load("auction_closed.aspproof"), auction)
    rep = reach_search(auction, sk, SMALL,
                       {"beneficiary": "P0", "bidding_time": 2}, creator="P1")
    assert rep.ok, rep.reason
    assert rep.states == 8


def test_reach_search_detects_nonclosing():
    prog = typecheck(parse_program("""
contract Loop() {
  msg go;
  initial A;
  state A:
  | x??go -> A { }
  state B:
}
"""))
    sk = parse_proof_sketch("""
reachability stuck(1) {
  goal = { @B true }
  rank = { @A | (1)  @B | (0) }
  witness = { @A x != Address.none }
}
""", prog)
    rep = reach_search(prog, sk, SMALL, {})
    assert not rep.ok


def test_game_search_confirms_both_verdicts(vending_fixed, vending_original):
    skf = parse_proof_sketch(load("vending_lockout.aspproof"), vending_fixed)
    g = game_solve(vending_fixed, skf, SMALL, {})
    assert g.ok
    assert g.states == 27
    sko = parse_proof_sketch(load("vending_lockout_original.aspproof"),
                             vending_original)
    g2 = game_solve(vending_original, sko, SMALL, {})
    assert not g2.ok
    assert g2.losing_state == "Choose"
    assert g2.states == 30
