"""Proof pipeline: sketches, VC generation, bounded discharge, searches."""
import gc
import itertools
import json
from dataclasses import FrozenInstanceError, replace

import pytest

from asp import discharge
from asp.ast_nodes import PRIM_TYPES, Binop, Builtin, Lit, Quant, SemType, Unop, Var
from asp.diagnostics import SketchError, TypecheckError
from asp.discharge import (
    _CHECKS, Counterexample, DomainBounds, Valid, _finitize, _hypothesis_schedule,
    discharge_bounded, discharge_naive, expand_quants, replay_counterexample,
    scalar_domain,
)
from asp.machine import advance_instance
from asp.parser import parse_program
from asp import compile as codegen
from asp.prove import FiniteModel, check_proof, game_solve, reach_search
from asp.sketch import parse_proof_sketch
from asp.typecheck import ExprChecker, subst_expr, typecheck
from asp.values import Coin, MapVal, SeqVal, TupVal
from asp.vcgen import generate_vcs
from conftest import CRITERION_9_PAIRS, load, typed
from test_diff import KEYED
from pins import (
    PINNED, PINS_FILE, SEARCH_BOUNDS, SEARCHES, pinned_form, results, search_results,
)

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


def test_goal_entries_are_never_empty(auction, closed_sketch):
    """A state's goal entry holds at least one conjunct, and a state with
    none has no entry, so a negated goal never folds an empty conjunction."""
    empty = parse_proof_sketch(
        "reachability r(1) { goal = { } rank = { @StartAuction | (0) } }", auction)
    assert empty.goal == {} and empty.goal_at("StartAuction") is None
    two = parse_proof_sketch("reachability r(1) { goal = { @AuctionClosed true "
                             "@AuctionClosed 1 == 1 } rank = { @StartAuction | (0) } }",
                             auction)
    assert len(two.goal["AuctionClosed"]) == 2
    assert all(closed_sketch.goal.values())


def test_quantified_domains_are_never_empty():
    """Every type a quantifier may range over has a non-empty domain at
    the least bounds, so quantifier expansion never folds an empty
    conjunction or disjunction."""
    least = DomainBounds(addresses=1, nat_max=0, timer_max=0, seq_max=0)
    quantifiable = []
    for typ in [SemType(k) for k in PRIM_TYPES] + [SemType("seq", (SemType("nat"),))]:
        try:
            ExprChecker({}, allow_quant=True).check(Quant("forall", "v", typ, Lit(True)))
        except TypecheckError:
            continue
        quantifiable.append(typ.kind)
        assert scalar_domain(typ, least, None)
    assert sorted(quantifiable) == ["address", "bool", "int", "nat"]


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


def test_refund_proof_at_four_actors(auction):
    """The address count is the blow-up axis: at addr=4 the actor symmetry
    keeps the refund proof to a few seconds."""
    bounds = DomainBounds(addresses=4, nat_max=4, timer_max=4)
    rep = check_proof(auction, parse_proof_sketch(load("auction_refunds.aspproof"),
                                                  auction), bounds)
    assert rep.valid, rep.to_json()
    checked = {r.vc.name: r.result.checked for r in rep.results}
    assert checked["inductive[SimpleAuction.bid@AuctionOpen#1]"] == 75000
    assert checked["inductive[SimpleAuction.tau@AuctionOpen#2]"] == 18750
    prog = typecheck(parse_program(load("auction_norefund.asp")))
    rep = check_proof(prog, parse_proof_sketch(load("auction_refunds.aspproof"), prog),
                      bounds)
    cexs = [r for r in rep.results if isinstance(r.result, Counterexample)]
    assert [r.vc.name for r in cexs] == ["inductive[SimpleAuction.bid@AuctionOpen#1]"]
    assert replay_counterexample(cexs[0].vc, bounds, cexs[0].result)


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


def _lockout_variant(prog, *edits):
    """vending_lockout.aspproof with each (old, new) text edit applied."""
    text = load("vending_lockout.aspproof")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return parse_proof_sketch(text, prog)


def test_invariant_naming_the_player(vending_fixed):
    """An invariant conjunct over the player changes no verdict: Initiality
    and the compiled inductiveness leaves bind it like every other route."""
    want = [r.status for r in _agree(
        vending_fixed, _lockout_variant(vending_fixed), SMALL)[0]]
    sk = _lockout_variant(vending_fixed, (
        "@Choose customer != Address.none",
        "@Choose customer != Address.none\n    @Wait x != Address.none"))
    fast, slow = _agree(vending_fixed, sk, SMALL)
    assert [r.status for r in fast] == [r.status for r in slow] == want


def test_player_named_like_a_binder():
    """The player `x` and the pay sender binder `x` are two names: the
    guard `x != owner` reads the sender on both routes."""
    prog = typecheck(parse_program(load("vending_fixed.asp").replace(
        "| x??pay(c) -> Choose", "| x??pay(c) when x != owner -> Choose")))
    sk = _lockout_variant(prog, (
        "@Choose customer != Address.none",
        "@Choose customer != Address.none && customer != owner"))
    fast, slow = _agree(prog, sk, SMALL)
    i = [r.vc for r in fast].index("inductive[VendingMachine.pay@Wait#0]")
    assert fast[i].status == slow[i].status == "valid"


def test_game_goal_naming_the_player(vending_fixed):
    """A goal over the player is read with each actor as the player."""
    sk = _lockout_variant(vending_fixed,
                          ("@Wait true", "@Wait true\n    @Choose customer == x"))
    g = game_solve(vending_fixed, sk, SMALL, {})
    assert (g.ok, g.states) == (True, 27)


def test_reachability_player_rejected(auction):
    text = load("auction_closed.aspproof").replace(
        "goal = {", "player = x\n  goal = {", 1)
    with pytest.raises(SketchError, match="reachability sketch has no player"):
        parse_proof_sketch(text, auction)


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
    the VC Valid with no leaf, as the oracle finds. Satisfiable, each VC
    has one engine leaf per creator or sender class, where the oracle has
    `leaves`: P0 stands for both actors."""
    prog = typecheck(parse_program(CAPPED % floor))
    sk = parse_proof_sketch("safety zero { always n == 0 }", prog)
    fast, slow = _agree(prog, sk, SMALL)
    assert [(r.vc, r.checked) for r in fast] == [
        ("initiality[Capped.A]", min(leaves, 1)),
        ("inductive[Capped.poke@A#0]", min(leaves, 1))]
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


BUMP = """
contract Bump() {
  msg bump(address, address);
  var m: map[address, nat] default 0;
  initial A;
  state A:
  | x??bump(a, b) %s -> A { Map.set(m, a, Map.get(m, b) + 1); }
}
"""


@pytest.mark.parametrize("guard, valid", [("when a != Address.none", True), ("", False)])
def test_engine_agrees_on_set_of_entry_read_under_another_key(guard, valid):
    """The write goes to key a although the value reads key b: an inline
    read must not rebind the temporary that holds the written key."""
    prog = typecheck(parse_program(BUMP % guard))
    sk = parse_proof_sketch("safety clean { always Map.get(m, Address.none) == 0 }", prog)
    statuses = [r.status for r in _agree(prog, sk, SMALL)[0]]
    assert statuses == ["valid", "valid" if valid else "counterexample"]


KEEP = """
contract Keep() {
  msg poke(nat);
  var bal: map[address, nat] default 0;
  initial A;
  state A:
  | a??poke(n) -> A { Map.set(bal, Address.self, 1); }
}
"""


def test_engine_agrees_on_self_keyed_map_entry():
    """Address.self is a key of an address-keyed map: the engine must see
    the entry the action writes, as the oracle does."""
    prog = typecheck(parse_program(KEEP))
    sk = parse_proof_sketch("safety zero { always Map.get(bal, Address.self) == 0 }", prog)
    statuses = [r.status for r in _agree(prog, sk, SMALL)[0]]
    assert statuses == ["valid", "counterexample"]


NEG = """
contract Neg() {
  msg go;
  var x: int;
  initial A;
  state A:
  | a??go -> B { x = x + 1; }
  state B:
}
"""


NEG_DONE = """
reachability done(1) {
  goal = { @B true }
  invariant = { }
  rank = { @A | (x - 3)  @B | (0) }
  witness = { @A a != Address.none }
}
"""


def test_engine_agrees_on_negative_rank_component():
    """A rank with a component below zero is undefined on both routes: at
    x == 0 the rank (x - 3) has no value."""
    prog = typecheck(parse_program(NEG))
    sk = parse_proof_sketch(NEG_DONE, prog)
    fast, _ = _agree(prog, sk, SMALL)
    assert [(r.vc, r.status) for r in fast if r.status != "valid"] == [
        ("rank_defined[Neg.A]", "counterexample"),
        ("rank_decrease[Neg.go@A#0]", "counterexample")]


# Four proofs whose verdict a fault in the leaf checks of PlayerMove and
# OpponentTotal (the oracle's or the engine's compiled twin) or in vcgen's
# action slicing, which both routes read, would flip. Engine and oracle
# agree on each; the comments name the fault each verdict catches.
STEPS = """
contract P() {
  msg go;
  var t: timer;
  initial S;
  state S:
  | a??go -> T { }
  state T:
  | a??go -> U { }
  state U:
}
"""

STEPS_WIN = """
adversarial win(1) {
  player = x
  goal = { @U true }
  invariant = { @S Timer.is_active(t) && Timer.value(t) >= 2 }
  rank = { @S | (2)  @T | (1) if Timer.is_active(t)  @U | (0) }
  witness = { @S a == x }
}
"""

POKE = """
contract Q() {
  msg poke;
  var t: timer;
  initial S;
  state S:
  | a??poke -> V { }
  state V:
}
"""

POKE_WAIT = """
adversarial wait(1) {
  player = x
  goal = { @S Timer.has_fired(t) }
  invariant = { @S Timer.is_active(t) || Timer.has_fired(t) }
  rank = { @S | (Timer.value(t)) if Timer.is_active(t) }
}
"""

TIMER_READ = """
contract Tv() {
  msg go;
  var t: timer;
  var x: nat;
  var done: bool;
  initial S;
  state S:
  | a??go -> S { x = Timer.value(t); done = true; }
}
"""

ARMED = """
contract Tm() {
  msg arm, go;
  var t: timer;
  initial S;
  state S:
  | a??arm when Timer.is_off(t) -> S { Timer.set(t, 2); }
  | a??go -> G { }
  state G:
}
"""

ARMED_ESCAPE = """
adversarial a(1) {
  player = x
  goal = { @G true }
  invariant = { @S Timer.is_active(t) }
  rank = { @S | (1)  @G | (0) }
  witness = { @S a == x }
}
"""


@pytest.mark.parametrize("source, sketch, bounds, vc, status, message", [
    # the player's go must make progress for every time delta: after a delta
    # of 2 the timer has fired and T has no rank (`any` for `all` says valid)
    (STEPS, STEPS_WIN, DomainBounds(2, 1, 2), "player_move[P.S]",
     "counterexample", "no Player move makes progress"),
    # another agent's poke leaves the goal and the ranked states (skipping
    # the other agents' inputs says valid)
    (POKE, POKE_WAIT, DomainBounds(2, 1, 2), "opponent_total[Q.S]",
     "counterexample", "opponent move poke@S#0 escapes the proof"),
    # Timer.value of an off timer is undefined, so go cannot run with t off;
    # slicing must keep the partial statement even though x is not read
    # (a slice that drops it says counterexample)
    (TIMER_READ, "safety s { always !done || !Timer.is_off(t) }", SMALL,
     "inductive[Tv.go@S#0]", "valid", None),
    # time is an Opponent move: a tick from t = active(1) fires the timer
    # and leaves theta at S (skipping the time step says valid)
    (ARMED, ARMED_ESCAPE, DomainBounds(2, 1, 2), "opponent_total[Tm.S]",
     "counterexample", "opponent move time@S escapes the proof"),
], ids=["player_move_every_delta", "opponent_total_other_agents",
        "slice_keeps_partial_statement", "opponent_total_time_step"])
def test_verdict_of_shared_proof_rule(source, sketch, bounds, vc, status, message):
    """The pinned verdict, on which engine and oracle agree; a fault in one
    route's leaf check splits them, and one in the slicing both routes read
    changes it on both."""
    prog = typecheck(parse_program(source))
    fast, _ = _agree(prog, parse_proof_sketch(sketch, prog), bounds)
    r = {x.vc: x for x in fast}[vc]
    assert (r.status, r.message if isinstance(r, Counterexample) else None) == \
        (status, message)


# Leaf branches that no corpus proof reaches, on both routes: a step that
# leaves theta (UP) or, with a division, makes it undefined (and is itself
# undefined at k == 0), a state where no transition is enabled (GATE), a
# valid and a refuted sufficiency (CNT), and an assertion or a reject
# predicate that is undefined (ZERO), which fails as a false one does.
UP = """
contract Up() {
  msg go%s;
  var x: nat;
  var y: nat;
  initial A;
  state A:
  | a??go%s -> A { %s x = x + 1; }
}
"""

GATE = """
contract Gate() {
  msg go;
  var open: bool;
  initial A;
  state A:
  | a??go when open -> B { }
  state B:
}
"""

CNT = """
contract Cnt() {
  msg inc;
  var x: nat;
  initial A;
  state A:
  | a??inc -> B { x = x + 1; }
  state B:
  | a??inc when x < 2 -> B { x = x + 1; }
}
"""


ZERO = """
contract C() {
  msg go;
  var x: nat := 1;
  initial S;
  state S:
  | a??go -> S { x = 0; }
}
"""


# a rank case whose condition is undefined (at x == 0) is skipped, as
# under the runtime evaluator: the next case ranks A
PARTIAL_CASE = """
contract C() {
  msg go;
  var x: nat := 1;
  initial A;
  state A:
  | a??go -> B { x = x + 1; }
  state B:
}
"""

# the witness names n, which stop binds and go does not: for go it is
# undefined, so go is no witness move even where it is enabled (k == 2)
OTHER_BINDER = """
contract W() {
  msg go, stop(nat);
  var k: nat;
  initial S;
  state S:
  | a??go when k > 0 -> S { k = k - 1; }
  | b??stop(n) when n > k -> G { }
  state G:
}
"""


# issuing 4 exceeds the supply of 3 that a move starts from on both
# routes, so the witness move is undefined
CAPPED_ISSUE = """
contract Cap() issues Token(3) {
  msg go(nat);
  var pot: token;
  initial A;
  state A:
  | x??go(n) -> B { Token.issue(n, pot); }
  state B:
}
"""


# a timer that no expression of the VC reads is not enumerated, so the
# engine's relation must not tick it (it raised KeyError: 'u')
UNREAD_TIMER = """
contract T2() {
  msg go;
  var t: timer;
  var u: timer;
  initial S;
  state S:
  | a??go when Timer.is_off(t) -> S { Timer.set(t, 2); }
}
"""

# the witness move issues 1 from a supply of 3: once the supply is spent
# it is undefined, and stop is no witness move, so A has no enabled move
SPENT_SUPPLY = """
contract Cap() issues Token(3) {
  msg go(nat), stop;
  var pot: token;
  initial A;
  state A:
  | x??go(n) -> A { Token.issue(n, pot); }
  | x??stop -> B { }
  state B:
}
"""
SPENT_SUPPLY_SKETCH = "reachability r(1) { goal = { @B true } " \
    "rank = { @A | (1)  @B | (0) } witness = { @A n == 1 } }"


def _up_rank(theta="", goal=""):
    """Up's sketch: rank (3 - x) at A, and theta and the goal at A where
    given."""
    def at(e):
        return f"@A {e}" if e else ""
    return f"reachability up(1) {{ goal = {{ {at(goal)} }} invariant = {{ {at(theta)} }} " \
        "rank = { @A | (3 - x) } witness = { @A true } }"


@pytest.mark.parametrize("source, sketch, bounds, refuted", [
    (UP % ("", "", ""), _up_rank("x <= 2"), DomainBounds(2, 3, 1),
     {"rank_decrease[Up.go@A#0]": "rank does not decrease strictly"}),
    (UP % ("(nat)", "(k)", "y = 6 / k;"), _up_rank("4 / (3 - x) >= 1"),
     DomainBounds(2, 3, 1),
     {"rank_decrease[Up.go@A#0]": "rank does not decrease strictly"}),
    (GATE, "reachability done(1) { goal = { @B true } invariant = { } "
     "rank = { @A | (1)  @B | (0) } witness = { @A a != Address.none } }",
     DomainBounds(2, 1, 1),
     {"enabled[Gate.A]": "no transition is enabled"}),
    (CNT, "safety low { @A x == 0  @B x <= 2  reject = x == 2 }", SMALL,
     {"sufficiency[Cnt.B]": "reject predicate holds at an invariant state"}),
    (ZERO, "safety s { always 4 / x >= 1 }", DomainBounds(2, 2, 1),
     {"inductive[C.go@S#0]": "assertion is not preserved"}),
    (ZERO, "safety s { always x >= 0  reject = 4 / x == 0 }", DomainBounds(2, 2, 1),
     {"sufficiency[C.S]": "reject predicate holds at an invariant state"}),
    (PARTIAL_CASE, "reachability r(1) { goal = { @B true } "
     "rank = { @A | (1) if 4 / x == 1 | (2)  @B | (0) } "
     "witness = { @A a != Address.none } }", DomainBounds(2, 2, 1), {}),
    (OTHER_BINDER, "reachability r(1) { goal = { @G true } "
     "rank = { @S | (1)  @G | (0) } witness = { @S n > k } }", DomainBounds(2, 2, 1),
     {"enabled[W.S]": "no transition is enabled",
      "rank_decrease[W.go@S#0]": "rank does not decrease strictly"}),
    (CAPPED_ISSUE, "reachability r(1) { goal = { @B true } "
     "rank = { @A | (1)  @B | (0) } witness = { @A n > 3 } }", DomainBounds(2, 4, 1),
     {"enabled[Cap.A]": "no transition is enabled"}),
    (UNREAD_TIMER, "safety s { always !Timer.has_fired(t) }", DomainBounds(2, 1, 2),
     {"inductive[T2.go@S#0]": "assertion is not preserved",
      "inductive[T2.time@S]": "assertion is not preserved"}),
    (SPENT_SUPPLY, SPENT_SUPPLY_SKETCH, DomainBounds(2, 4, 1),
     {"enabled[Cap.A]": "no transition is enabled",
      "rank_decrease[Cap.go@A#0]": "rank does not decrease strictly"}),
], ids=["rank_decrease_leaves_theta", "rank_decrease_theta_undefined",
        "enabledness_none_enabled", "sufficiency", "assertion_undefined_after_step",
        "reject_undefined", "rank_case_condition_undefined",
        "witness_names_another_binder", "move_issues_beyond_supply",
        "relation_with_unread_timer", "move_after_supply_spent"])
def test_engine_agrees_on_leaf_branch(source, sketch, bounds, refuted):
    """Engine and oracle agree on each VC, the refuted ones being exactly
    those pinned, with their message on both routes."""
    prog = typecheck(parse_program(source))
    for results in _agree(prog, parse_proof_sketch(sketch, prog), bounds):
        assert {r.vc: r.message for r in results if r.status != "valid"} == refuted


def test_enabledness_refuted_once_supply_spent():
    """Both routes refute the Enabledness of a state whose witness move
    issues tokens where the supply left to issue is spent."""
    prog = typecheck(parse_program(SPENT_SUPPLY))
    for results in _agree(prog, parse_proof_sketch(SPENT_SUPPLY_SKETCH, prog),
                          DomainBounds(2, 4, 1)):
        got = {r.vc: r for r in results}["enabled[Cap.A]"]
        assert got.valuation == {"pot": [None, 0], "__remaining": 0}


TAKE = """
contract Bank() {
  msg take;
  var bal: map[address, coin];
  initial S;
  state S:
  | a??take -> T { a!!got(Map.ref(bal, a)); }
  state T:
}
"""


HAND = """
contract Hand() {
  msg handover(address);
  var moved: bool;
  initial S;
  state S:
  | a??handover(b) -> S { Address.change_owner(b); moved = true; }
}
"""

BANK = """
contract Bank() {
  msg pay(address, address, nat);
  var bal: map[address, coin];
  initial A;
  state A:
  | x??pay(a, b, n) when Map.in(a, bal) && %s -> A
    { Coin.move(Map.ref(bal, a), n, Map.ref(bal, b)); }
}
"""

# every entry present and holding 1; the empty initial map leaves the
# strict `==>` undefined, so initiality fails on both routes
BANK_ONES = "safety ones { always forall c: address : Map.in(c, bal) ==> " \
    "Coin.value(Map.get(bal, c)) == 1 }"

DRAIN = """
contract Drain() {
  msg give(coin), pay;
  var c: coin;
  initial S;
  state S:
  | x??give(k) -> S { Coin.moveall(k, c); }
  | x??pay -> S { x!!got(c); }
}
"""

MINT = """
contract Mint() issues Token(3) {
  msg go(address, nat);
  var pot: token;
  var acc: map[address, token];
  initial A;
  state A:
  | x??go(b, n) -> A { %s }
}
"""

TICK = """
contract Tick() {
  msg go(nat), stop;
  var t: timer;
  initial A;
  state A:
  | x??go(n) -> A { Timer.reset(t); Timer.set(t, n); }
  | x??stop -> A { Timer.reset(t); }
}
"""


SQ = """
contract Sq() {
  msg go(nat, nat);
  var s: seq[nat];
  var p: tuple[nat, bool];
  var b: bool;
  initial A;
  state A:
  | x??go(i, n) -> A { %s }
}
"""

CELLS = """
contract Cells() {
  msg go(nat);
  var s: seq[coin];
  var p: tuple[coin, nat];
  var c: coin;
  initial A;
  state A:
  | x??go(i) -> A { %s }
}
"""

NEST = """
contract Nest() {
  msg give(coin), take;
  var m: map[address, tuple[coin, nat]];
  var c: coin;
  initial A;
  state A:
  | x??give(k) -> A { Coin.moveall(k, Tuple.ref(Map.ref(m, x), 0)); }
  | x??take -> A { Coin.moveall(Tuple.ref(Map.ref(m, x), 0), c); }
}
"""

INI = """
contract Ini(k: nat, heir: address) {
  msg go;
  var n: nat := 4 / k;
  var who: address := creator;
  var next: address := heir;
  var bal: map[address, nat] default 0;
  initial A;
  state A:
  | x??go -> A { }
}
"""


# writes into map entries whose key lies past the bounded key domain,
# computed (GROWN) or literal (FLAGS, COUNTS): the relation writes the entry
# and the conclusion reads it back, as the runtime evaluator does
GROWN = """
contract K() {
  msg give(coin);
  var n: nat;
  var bal: map[nat, coin];
  initial A;
  state A:
  | x??give(k) when n == 2 -> A { Coin.moveall(k, Map.ref(bal, n + 1)); }
}
"""

FLAGS = """
contract L() {
  msg go;
  var m: map[nat, bool];
  initial A;
  state A:
  | x??go -> A { Map.set(m, 5, true); }
}
"""

COUNTS = """
contract L2() {
  msg go;
  var m: map[nat, nat] default 0;
  initial A;
  state A:
  | x??go -> A { Map.set(m, 5, 1); }
}
"""


def _no_interpreter(*args, **kwargs):
    raise AssertionError("the engine ran a runtime-evaluator leaf check")


NO_CHECKS = {kind: _no_interpreter for kind in _CHECKS}


@pytest.mark.parametrize("source, sketch, statuses", [
    # change_owner compares the sender with owner, which no expression of
    # the VC reads: both routes must still enumerate owner
    (HAND, "safety still { always !moved }", ["valid", "counterexample"]),
    # a == b: the move's operands alias one entry and conserve it
    (BANK % "a == b", BANK_ONES, ["counterexample", "valid"]),
    (BANK % "Map.in(b, bal)", BANK_ONES, ["counterexample", "counterexample"]),
    (MINT % "Token.issue(n, pot);", "safety small { always Token.value(pot) <= 1 }",
     ["valid", "counterexample"]),
    (MINT % "Token.move(pot, n, Map.ref(acc, b));",
     "safety small { always Token.value(pot) <= 1 }", ["valid", "valid"]),
    (MINT % "Token.moveall(Map.ref(acc, b), pot);",
     "safety small { always Token.value(pot) <= 1 }", ["valid", "counterexample"]),
    (MINT % "Token.burn(pot, n);", "safety small { always Token.value(pot) <= 1 }",
     ["valid", "valid"]),
    (TICK, "safety off { always Timer.is_off(t) }",
     ["valid", "counterexample", "valid", "valid"]),
    # a send of an absent entry is undefined: a counterexample that reaches
    # T holds the sender's entry, so it replays
    (TAKE, "safety never { @T false }", ["valid", "counterexample"]),
    # change_owner writes owner and a send drains its coin argument: both
    # relations write what the conclusion reads, so neither VC is preserved
    (HAND, "safety same { always owner == creator }", ["valid", "counterexample"]),
    (DRAIN, "safety held { always Coin.value(c) >= 1 }",
     ["counterexample", "valid", "counterexample"]),
    # the destination key reads the source, which the move has emptied
    (KEYED, "safety s { always !Map.in(2, bal) }", ["valid", "valid", "valid"]),
    # sequence and tuple writes, read back through the entry they wrote
    (SQ % "Seq.set(s, i, n); b = Seq.get(s, 0) == 2;", "safety b { always !b }",
     ["valid", "counterexample"]),
    (SQ % "Seq.append(s, n); b = Seq.get(s, Seq.len(s) - 1) != n;",
     "safety b { always !b }", ["valid", "valid"]),
    (SQ % "Tuple.set(p, 0, n); Tuple.set(p, 1, n == 0);",
     "safety t { always Tuple.get(p, 1) ==> Tuple.get(p, 0) == 0 }", ["valid", "valid"]),
    # moves and drains through Seq.ref and Tuple.ref; a drained entry
    # moves nothing after it
    (CELLS % "Coin.moveall(Seq.ref(s, i), c);", "safety c { always Coin.value(c) <= 1 }",
     ["valid", "counterexample"]),
    (CELLS % "Coin.move(Tuple.ref(p, 0), i, c);", "safety c { always Coin.value(c) <= 1 }",
     ["valid", "counterexample"]),
    (CELLS % "x!!got(Seq.ref(s, i)); Coin.moveall(Seq.ref(s, i), c);",
     "safety c { always Coin.value(c) == 0 }", ["valid", "valid"]),
    (CELLS % "x!!got(Tuple.ref(p, 0)); Coin.moveall(Tuple.ref(p, 0), c);",
     "safety c { always Coin.value(c) == 0 }", ["valid", "valid"]),
    # an entry under the one a move writes is not materialized
    (NEST, "safety c { always Coin.value(c) == 0 }", ["valid", "valid", "counterexample"]),
    (NEST, "safety none { always forall a: address : !Map.in(a, m) }",
     ["valid", "valid", "valid"]),
    # Initiality's relation: the initializers from the zero state, with
    # the creator as owner and every map empty. An address parameter can
    # hold P0, and then the creator is enumerated over P1 too.
    (INI, "safety s { always who == owner && who == creator && next == heir }",
     ["valid", "valid"]),
    (INI, "safety s { always next != creator }", ["counterexample", "valid"]),
    # k == 0 leaves n undefined: no initial state, so nothing to refute
    (INI, "safety s { always n * k == 4 || n * k == 3 || n * k == 2 }",
     ["valid", "valid"]),
    (INI, "safety s { always n == 4 }", ["counterexample", "valid"]),
    (INI, "safety s { always forall a: address : !Map.in(a, bal) && Map.get(bal, a) == 0 }",
     ["valid", "valid"]),
    (GROWN, "safety s { always !Map.in(n + 1, bal) }", ["valid", "counterexample"]),
    (FLAGS, "safety s { always !Map.in(5, m) }", ["valid", "counterexample"]),
    (COUNTS, "safety s { always Map.get(m, 5) == 0 }", ["valid", "counterexample"]),
], ids=["change_owner", "coin_move_aliased", "coin_move", "token_issue",
        "token_move", "token_moveall", "token_burn", "timer_reset", "send_map_ref",
        "change_owner_writes_owner", "send_drains", "coin_moveall_keyed_by_source",
        "seq_set", "seq_append", "tuple_set", "seq_ref_move", "tuple_ref_move",
        "seq_ref_drain", "tuple_ref_drain", "nested_ref_move", "nested_ref_not_materialized",
        "initializers_read_creator", "initializer_reads_parameter", "initializer_undefined",
        "initializer_value", "initial_maps_empty", "move_past_key_domain",
        "set_past_key_domain", "set_past_key_domain_default"])
def test_engine_agrees_on_compiled_statement(source, sketch, statuses):
    """Each statement operation of the compiled relation runs in an
    inductiveness leaf, and the initializers in the initiality leaf; the
    engine agrees with the oracle on them, down to the counterexample, and
    checks every leaf with compiled code, never with `_CHECKS`."""
    prog = typecheck(parse_program(source))
    sk = parse_proof_sketch(sketch, prog)
    fast, slow = _agree(prog, sk, SMALL)
    assert [r.status for r in fast] == statuses
    for f, o in zip(fast, slow):
        if isinstance(f, Counterexample):
            assert (f.valuation, f.message) == (o.valuation, o.message), f.vc
    with pytest.MonkeyPatch.context() as m:
        m.setattr("asp.discharge._CHECKS", NO_CHECKS)
        for vc in generate_vcs(prog, sk):
            discharge_bounded(vc, SMALL)


# -- actor symmetry -----------------------------------------------------------

ZED = """
contract Z() {
  msg go;
  var bal: map[address, nat];
  var z: address;
  var n: int;
  initial S;
  state S:
  | a??go -> T { }
  state T:
}
"""

ZED_SKETCH = """
reachability done(1) {
  goal = { @T true }
  invariant = { @S Map.get(bal, z) == 2 &&
                   (forall w: address : w != z ==> Map.get(bal, w) == 0) }
  rank = { @S | (n - 1)  @T | (0) }
  witness = { @S a != Address.none }
}
"""

FORWARD = """
contract Fwd() {
  var to: map[address, address];
  var n: int;
  initial S;
  state S:
  | when n == 0 -> S { n = 1; }
}
"""

# n == 0 and `to` a derangement of the actors
DERANGED = "safety deranged { always n == 0 && " \
    "Map.get(to, Address.none) == Address.none && (forall w: address : " \
    "w != Address.none ==> Map.get(to, w) != w && Map.get(to, w) != Address.none) }"

TWO = """
contract Two(boss: address, aide: address)
    where aide != Address.none && boss != aide && boss != Address.none {
  msg go;
  var last: address;
  initial S;
  state S:
  | a??go -> S { last = a; }
}
"""


@pytest.mark.parametrize("source, sketch, bounds, vc, valuation", [
    # z comes after the entries of bal: P0 and P1 are keys by then, so z
    # must try both (P2 too at addr=3)
    (ZED, ZED_SKETCH, "addr=2,nat=2,timer=1", "rank_defined[Z.S]",
     [["n", 0], ["bal[none]", 0], ["bal[P0]", 0], ["bal[P1]", 2], ["z", "P1"]]),
    (ZED, ZED_SKETCH, "addr=3,nat=2,timer=1", "rank_defined[Z.S]",
     [["n", 0], ["bal[none]", 0], ["bal[P0]", 0], ["bal[P1]", 0], ["bal[P2]", 2],
      ["z", "P2"]]),
    # to[P0] is enumerated with every actor free, but its key holds P0:
    # the value P1 is no twin of P0 there
    (FORWARD, DERANGED, "addr=2,nat=2,timer=1", "inductive[Fwd.tau@S#0]",
     [["n", 0], ["to[none]", "none"], ["to[P0]", "P1"], ["to[P1]", "P0"]]),
    (FORWARD, DERANGED, "addr=3,nat=2,timer=1", "inductive[Fwd.tau@S#0]",
     [["n", 0], ["to[none]", "none"], ["to[P0]", "P1"], ["to[P1]", "P0"],
      ["to[P2]", "P0"]]),
    # the `where` clause is an independent tail: its witness pins boss to
    # P0 and aide to P1
    (TWO, "safety quiet { always last == Address.none }", "addr=3,nat=2,timer=1",
     "inductive[Two.go@S#0]",
     [["last", "none"], ["a", "P0"], ["boss", "P0"], ["aide", "P1"]]),
], ids=["entry_keys_2", "entry_keys_3", "address_map_2", "address_map_3", "tail_pin"])
def test_symmetry_keeps_first_counterexample(source, sketch, bounds, vc, valuation):
    """An enumeration node tries only the first of the actors that neither
    the env nor the VC holds: the engine agrees with the oracle and returns
    the counterexample it returned without the cut."""
    prog = typecheck(parse_program(source))
    fast, _ = _agree(prog, parse_proof_sketch(sketch, prog), DomainBounds.parse(bounds))
    got = {r.vc: r for r in fast}[vc]
    assert [list(kv) for kv in got.valuation.items()] == valuation


# -- engine and oracle results pinned per VC ----------------------------------

# engine_pins.json pins each criterion-9 VC's result on both routes (see
# pins.py, which regenerates it).
PINS = json.loads(PINS_FILE.read_text())


def _assert_pinned(route, bounds):
    for contract, proof in CRITERION_9_PAIRS:
        got = results(route, contract, proof, bounds)
        for g, want in zip(got, PINS[route][bounds][f"{contract} {proof}"],
                           strict=True):
            assert g == want, (contract, proof)


@pytest.mark.parametrize("bounds", PINNED["engine"])
def test_engine_results_pinned(bounds):
    """Every criterion-9 VC keeps its engine result, down to the key order
    of a counterexample."""
    _assert_pinned("engine", bounds)


@pytest.mark.parametrize("bounds", PINNED["oracle"])
def test_oracle_results_pinned(bounds):
    """Every criterion-9 VC keeps its oracle result: its `checked` count
    and the key order of a counterexample."""
    _assert_pinned("oracle", bounds)


# -- the oracle's instance per depth and its schedule -------------------------


def _oracle_leaves(monkeypatch, prog, sketch, bounds) -> int:
    """Run the oracle on each VC of the sketch with every leaf check
    wrapped: the instance a leaf gets is the one its valuation builds, its
    creator is the enumerated one (P0 otherwise) and its owner the
    enumerated one (the creator otherwise). The number of leaves."""
    leaves = 0

    def wrap(check):
        def checked(prob, cx, env, inst):
            nonlocal leaves
            leaves += 1
            want = cx.build_instance(prob.vc.state, env)
            view = lambda i: (i.snapshot(), i.creator, i.owner, i.token_remaining)
            assert view(inst) == view(want), (prob.vc.name, env)
            creator = env.get("creator", "P0")
            assert (inst.creator, inst.owner) == (creator, env.get("owner", creator))
            return check(prob, cx, env, inst)
        return checked

    monkeypatch.setattr("asp.discharge._CHECKS", {k: wrap(c) for k, c in _CHECKS.items()})
    for vc in generate_vcs(prog, sketch):
        discharge_naive(vc, bounds)
    return leaves


@pytest.mark.parametrize("contract, proof", CRITERION_9_PAIRS)
def test_oracle_leaf_gets_the_instance_its_valuation_builds(contract, proof, monkeypatch):
    """The oracle's leaf runs on the instance of the last depth, a clone
    of its parent's with one key bound: the same as building it from the
    whole valuation."""
    prog = typed(contract)
    assert _oracle_leaves(monkeypatch, prog, parse_proof_sketch(load(proof), prog),
                          DomainBounds.parse("addr=2,nat=1,timer=2"))


@pytest.mark.parametrize("source, sketch, keys", [
    # binding the creator leaves an enumerated owner as it is
    (HAND, "safety same { always owner == creator }", {"owner", "creator"}),
    # an entry is absent below a prefix under which it was present
    (FLAGS, "safety s { always Map.in(1, m) || !Map.in(1, m) }", {("m", 0), ("m", 1)}),
], ids=["owner_and_creator", "absent_entries"])
def test_oracle_leaf_instance_on_small_systems(source, sketch, keys, monkeypatch):
    """The leaf instance is the one the valuation builds where a VC
    enumerates both owner and creator, and where map entries are absent."""
    prog = typecheck(parse_program(source))
    sk = parse_proof_sketch(sketch, prog)
    assert keys <= _finitize(generate_vcs(prog, sk)[1], SMALL).domains.keys()
    assert _oracle_leaves(monkeypatch, prog, sk, SMALL)


def _depth(prob, e) -> int:
    """The depth at which the oracle checks the conjunct e alone."""
    [at] = [d for d, conjuncts in enumerate(_hypothesis_schedule(
        replace(prob, hypothesis=[e]))) if conjuncts]
    return at


def test_hypothesis_schedule_reads_single_entries(refund_sketch, auction):
    """A conjunct that reads a map entry by a literal key is checked once
    that entry is bound; by a variable key, once the map's last entry is;
    by a literal outside the key domain, it reads no entry."""
    vc = next(v for v in generate_vcs(auction, refund_sketch)
              if v.name == "inductive[SimpleAuction.start@StartAuction#0]")
    prob = _finitize(vc, DomainBounds.parse("addr=2,nat=1,timer=2"))
    index = {key: i for i, key in enumerate(prob.order)}
    get = lambda m, k: Binop("==", Builtin("Map", "get", (Var(m), k)), Lit(0))
    assert _depth(prob, get("refunded", Lit("P0"))) == index["refunded", "P0"] + 1
    assert _depth(prob, Builtin("Map", "in", (Lit("P1"), Var("bidded")))) == \
        index["bidded", "P1"] + 1
    last = max(index["refunded", k] for k in prob.layout["refunded"][1])
    assert _depth(prob, get("refunded", Var("a"))) == max(last, index["a"]) + 1
    assert _depth(prob, Builtin("Map", "ref", (Var("refunded"), Var("maxBidder")))) == \
        max(last, index["maxBidder"]) + 1
    assert _depth(prob, get("refunded", Lit("P7"))) == 0
    assert _depth(prob, Binop("&&", get("bidded", Lit("P7")),
                              Binop(">", Var("maxBid"), Lit(0)))) == index["maxBid"] + 1


@pytest.mark.parametrize("bounds", SEARCH_BOUNDS)
def test_search_answers_pinned(bounds):
    """Each of the benchmark's searches keeps its answer, its named state
    and the number of states it explores."""
    assert search_results(bounds) == PINS["searches"][bounds]


# -- one set-up store per generation ------------------------------------------


# compiles per generation of each criterion-9 pair at 2/1/2: 122 in all, where
# a compile cache per VC made 298
COMPILES_AT_212 = {
    "auction.asp auction_refunds.aspproof": 35,
    "auction.asp auction_closed.aspproof": 24,
    "auction_norefund.asp auction_refunds.aspproof": 35,
    "vending_fixed.asp vending_lockout.aspproof": 13,
    "vending_machine.asp vending_lockout_original.aspproof": 15,
}


def test_code_cache_scoped_to_one_proof_check(monkeypatch):
    """The VCs of one `generate_vcs` share one store, and each distinct
    generated source is compiled once per store: within one `check_proof`,
    and when a generation's VCs are discharged one at a time on both
    routes, as criterion 9 and the oracle benchmark do. The next
    generation of the same program and sketch has a store of its own and
    compiles them again; the results are the pinned ones."""
    sources, compiled = [], []
    function, compile_ = codegen.Compiler.function, compile

    def counting_function(self, source, name="_f"):
        sources.append(source)
        return function(self, source, name)

    def counting_compile(source, *args):
        compiled.append(source)
        return compile_(source, *args)

    monkeypatch.setattr(codegen.Compiler, "function", counting_function)
    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    bounds = "addr=2,nat=2,timer=2"
    for contract, proof in CRITERION_9_PAIRS:
        prog = typed(contract)
        sk = parse_proof_sketch(load(proof), prog)
        for _ in range(2):
            sources.clear()
            compiled.clear()
            rep = check_proof(prog, sk, DomainBounds.parse(bounds))
            assert sorted(compiled) == sorted(set(sources)), (contract, proof)
            assert len(sources) > len(compiled)
            assert [pinned_form(r.result) for r in rep.results] == \
                PINS["engine"][bounds][f"{contract} {proof}"]

    small = DomainBounds.parse("addr=2,nat=1,timer=2")
    stores, counts = [], {}
    for contract, proof in CRITERION_9_PAIRS:
        prog = typed(contract)
        sk = parse_proof_sketch(load(proof), prog)
        for _ in range(2):
            sources.clear()
            compiled.clear()
            vcs = generate_vcs(prog, sk)
            assert all(vc.store is vcs[0].store for vc in vcs)
            stores.append(vcs[0].store)
            for vc in vcs:
                engine = discharge_bounded(vc, small)
                assert engine.status == discharge_naive(vc, small).status, vc.name
            assert sorted(compiled) == sorted(set(sources)), (contract, proof)
            counts.setdefault(f"{contract} {proof}", []).append(len(compiled))
    assert len(set(map(id, stores))) == len(stores)  # no two generations share one
    assert counts == {pair: [n, n] for pair, n in COMPILES_AT_212.items()}


def test_discharge_leaves_no_cycles(auction, refund_sketch):
    """A discharge frees its compiled leaf, context and search state by
    reference counting alone: with the cycle collector off, discharging
    every VC of a generation on either route, and checking the proof,
    leave nothing for it to collect."""
    vcs = generate_vcs(auction, refund_sketch)
    small = DomainBounds.parse("addr=2,nat=1,timer=2")
    gc.collect()
    gc.disable()
    try:
        for route in (discharge_bounded, discharge_naive):
            for vc in vcs:
                route(vc, small)
            assert gc.collect() == 0, route.__name__
        check_proof(auction, refund_sketch, BOUNDS)
        assert gc.collect() == 0, "check_proof"
    finally:
        gc.enable()


def test_routes_read_one_immutable_problem(monkeypatch):
    """The engine, the oracle and replay read one `_Problem` per VC and
    bounds, kept on the VC. After all three have run it equals a
    fresh finitization, and it cannot be written to."""
    read = []
    compile_, of = discharge._compile, discharge._Ctx.of
    monkeypatch.setattr(discharge, "_compile", lambda prob: (read.append(prob), compile_(prob))[1])
    monkeypatch.setattr(discharge._Ctx, "of",
                        classmethod(lambda cls, prob: (read.append(prob), of(prob))[1]))
    prog = typed("vending_machine.asp")
    vcs = generate_vcs(prog, parse_proof_sketch(load("vending_lockout_original.aspproof"), prog))
    small = DomainBounds.parse("addr=2,nat=1,timer=2")
    replayed = 0
    for vc in vcs:
        read.clear()
        engine = discharge_bounded(vc, small)
        oracle = discharge_naive(vc, small)
        assert engine.status == oracle.status, vc.name
        if isinstance(engine, Counterexample):
            assert replay_counterexample(vc, small, engine), vc.name
            replayed += 1
        routes = 1 + (not discharge._preserved(vc)) + isinstance(engine, Counterexample)
        assert len(read) == routes and all(prob is read[0] for prob in read), vc.name
        assert read[0] == _finitize(vc, small), vc.name
    assert replayed == 6
    prob = read[0]
    with pytest.raises(AttributeError):
        prob.hypothesis.append(Lit(True))
    with pytest.raises(TypeError):
        prob.order[0] = "x"
    with pytest.raises(TypeError):
        prob.domains["x"] = (0,)
    for name in ("hypothesis", "order", "domains"):
        with pytest.raises(FrozenInstanceError):
            setattr(prob, name, getattr(prob, name))


def test_rewrites_share_unchanged_subtrees():
    """Quantifier expansion and substitution return a quantifier-free
    expression without a hit as it is, and below a rewritten node rebuild
    only the path to it."""
    bounds = DomainBounds.parse("addr=2,nat=1,timer=2")
    plain = Binop("&&", Binop(">", Var("maxBid"), Lit(0)),
                  Builtin("Map", "in", (Var("a"), Var("bidded"))))
    assert expand_quants(plain, bounds) is plain
    assert subst_expr(plain, {"b": Lit(1)}) is plain
    quant = Quant("forall", "x", SemType("bool"), Binop("||", Var("x"), Var("y")))
    e = Binop("&&", plain, Unop("!", quant))
    out = expand_quants(e, bounds)
    assert out == Binop("&&", plain, Unop("!", Binop(
        "&&", Binop("||", Lit(False), Var("y")), Binop("||", Lit(True), Var("y")))))
    assert out.left is plain
    hit = subst_expr(e, {"y": Lit(True)})
    assert hit.left is plain and hit.right is not e.right
    assert hit.right.operand.body.left is quant.body.left
    assert subst_expr(e, {"x": Lit(True)}) is e  # x is bound under the forall


# -- the search's state key ---------------------------------------------------


@pytest.mark.parametrize("label", SEARCHES)
def test_state_key_tells_states_apart_as_snapshot(label):
    """The explored states have distinct snapshots, and every move names
    the state whose snapshot is that of its recomputed post: the tuple key
    is neither coarser nor finer than `snapshot()`."""
    search, contract, proof, params, creator = SEARCHES[label]
    prog = typed(contract)
    model = FiniteModel(prog, parse_proof_sketch(load(proof), prog), SMALL, params,
                        creator)
    states, moves = model.explore(
        model.is_goal if search is reach_search else lambda inst: False)
    snaps = [inst.snapshot() for inst in states]
    assert len(set(snaps)) == len(snaps)
    for inst, ms in zip(states, moves):
        if ms is not None:
            assert [(kind, sender, post.snapshot())
                    for kind, sender, post in model.successors(inst)] == \
                [(kind, sender, snaps[j]) for kind, sender, j in ms]


@pytest.mark.parametrize("label, total", [
    ("reach.auction_closed", 95), ("game.vending_fixed", 390), ("game.vending_machine", 245)])
def test_successors_tick_to_distinct_instances(label, total):
    """A step's result is ticked only by the deltas that give distinct
    instances (none without an active timer, else up to the longest active
    timer's units), so at 3/4/4 the model has `total` moves; as a set, a
    state's moves are those of ticking each result by every delta."""
    search, contract, proof, params, creator = SEARCHES[label]
    prog = typed(contract)
    model = FiniteModel(prog, parse_proof_sketch(load(proof), prog), BOUNDS, params,
                        creator)
    states, moves = model.explore(
        model.is_goal if search is reach_search else lambda inst: False)
    assert sum(len(ms) for ms in moves if ms is not None) == total
    cx = model.cx
    for inst, ms in zip(states, moves):
        if ms is None:
            continue
        every = set()
        for t, sender, b in cx.moves(inst, model.steps[inst.skeleton]):
            post = cx.run_inner(t, inst, b, sender, None)
            if post is not None:
                post = model._clamp(post)
                every |= {("tau" if t.input is None else "input", sender,
                           model.key(post if d is None else advance_instance(post, d)))
                          for d in model.deltas}
        assert {(kind, sender, model.key(states[j])) for kind, sender, j in ms} == every


def test_container_values_hash_with_equality():
    """Equal maps, sequences and tuples hash equal whatever their dict
    order; a map's default and a container's kind take part in equality."""
    a = MapVal({"P0": Coin(1), "P1": SeqVal([TupVal([1, True])])})
    b = MapVal({"P1": SeqVal([TupVal([1, True])]), "P0": Coin(1)})
    assert a == b and hash(a) == hash(b)
    assert MapVal({}).put("P0", 2).put("P1", 3) == MapVal({"P1": 3, "P0": 2})
    assert hash(MapVal({}).put("P0", 2).put("P1", 3)) == hash(MapVal({"P1": 3, "P0": 2}))
    assert MapVal({"P0": 1}, 0) != MapVal({"P0": 1}, None)
    assert MapVal({"P0": 1}, 0) != MapVal({"P0": 1}, 1)
    assert MapVal({"P0": 0}, 0) != MapVal({}, 0)
    assert SeqVal([1, 2]) == SeqVal([1, 2]) and hash(SeqVal([1, 2])) == hash(SeqVal([1, 2]))
    assert SeqVal([1, 2]) != TupVal([1, 2]) and SeqVal([1, 2]) != SeqVal([2, 1])
    assert TupVal([a, 0]).put(1, 5) == TupVal([b, 5])
    assert hash(TupVal([a, 0]).put(1, 5)) == hash(TupVal([b, 5]))
    assert len({a, b, MapVal({"P0": Coin(1)})}) == 2


# -- the move obligations at the proof bounds ---------------------------------

MOVE_KINDS = ("Enabledness", "PlayerMove", "OpponentTotal")


def _corpus_vcs(kinds):
    for contract, proof in CRITERION_9_PAIRS:
        prog = typed(contract)
        yield from (vc for vc in generate_vcs(prog, parse_proof_sketch(load(proof), prog))
                    if vc.kind in kinds)


def test_move_obligations_agree_at_proof_bounds():
    """At 3/4/4 the engine and the oracle give each corpus Initiality,
    Enabledness, PlayerMove and OpponentTotal VC the same status, and a
    refuted one the same valuation and message."""
    def answer(r):
        cex = isinstance(r, Counterexample)
        return r.status, r.valuation if cex else None, r.message if cex else None

    vcs = list(_corpus_vcs(("Initiality",) + MOVE_KINDS))
    assert len(vcs) == 22
    for vc in vcs:
        assert answer(discharge_bounded(vc, BOUNDS)) == \
            answer(discharge_naive(vc, BOUNDS)), vc.name


@pytest.mark.parametrize("bounds", PINNED["engine"])
def test_engine_runs_no_runtime_evaluator(bounds, monkeypatch):
    """Every corpus VC, of every kind, gives its pinned engine result with
    the runtime evaluator's leaf checks and entry points patched to raise:
    the engine route runs generated code only."""
    monkeypatch.setattr("asp.discharge._CHECKS", NO_CHECKS)
    for name in ("eval_expr", "step_instance", "init_instance"):
        monkeypatch.setattr(f"asp.discharge.{name}", _no_interpreter)
    for contract, proof in CRITERION_9_PAIRS:
        prog = typed(contract)
        vcs = generate_vcs(prog, parse_proof_sketch(load(proof), prog))
        assert [pinned_form(discharge_bounded(vc, DomainBounds.parse(bounds)))
                for vc in vcs] == PINS["engine"][bounds][f"{contract} {proof}"]


# -- liveness answers pinned --------------------------------------------------

# The engine's total leaf count over the valid VCs and the failing VCs of
# each liveness proof at SMALL. The move obligations' compiled checks
# enumerate moves, guards and slices, and every leaf, Initiality's
# included, runs under the actor-symmetry cut; a change there shows here.
LIVENESS = {
    ("auction.asp", "auction_closed.aspproof"): (147, []),
    ("vending_fixed.asp", "vending_lockout.aspproof"): (52, [
        "opponent_total[VendingMachine.Choose]",
        "player_move[VendingMachine.Deliver]"]),
    ("vending_machine.asp", "vending_lockout_original.aspproof"): (34, [
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


@pytest.mark.parametrize("label, report", [
    ("reach.auction_closed", {"ok": False, "states": 6, "reason": "state limit hit",
                              "witness_state": None}),
    ("game.vending_fixed", {"ok": False, "states": 6, "losing_state": None,
                            "losing_player": None}),
])
def test_search_fails_past_the_state_limit(label, report, monkeypatch):
    """Either search gives up once the model has more than `STATE_LIMIT`
    states, with a failed report and no state or player to blame."""
    search, contract, proof, params, creator = SEARCHES[label]
    prog = typed(contract)
    monkeypatch.setattr("asp.prove.STATE_LIMIT", 5)
    rep = search(prog, parse_proof_sketch(load(proof), prog), SMALL, params, creator)
    assert vars(rep) == report
