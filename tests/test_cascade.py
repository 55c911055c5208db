"""Cascade semantics: the reentrancy trace, invariants, scripts, fuzzing."""
import json
import random

import pytest

from asp.cascade import (
    Rejected, env_input, init_system, time_advance, wake_internal,
    system_coin_total,
)
from asp.machine import InputLetter, match_input, step_instance
from asp.script import parse_script, run_script_text
from asp.parser import parse_program
from asp.typecheck import typecheck
from asp.values import Coin, Tok
from asp.diagnostics import ScriptError
from conftest import load

APPENDIX_RULES = ["EnvInput", "SyncPush", "Pop", "SyncPush", "SyncPush",
                  "Pop", "LocalTau", "LocalTau", "Pop", "Pop"]


def attack_system(etherstore, R=1, rng=None):
    return init_system(etherstore, [
        ("estore", "Etherstore", {}, "deployer"),
        ("attacker", "Attacker", {"estore": "estore"}, "mallory"),
    ], R, rng)


def test_reentrancy_trace_rule_sequence(etherstore):
    system, config = attack_system(etherstore)
    config, events = env_input(system, config, 1,
                               InputLetter("send", "mallory", (Coin(5),)))
    assert [e.rule for e in events] == APPENDIX_RULES
    assert config.quiescent
    attacker, estore = config.states[1], config.states[0]
    assert attacker.skeleton == "AcceptReturn"
    assert attacker.env["loot"] == Coin(5)
    assert estore.skeleton == "AcceptDeposit"
    assert estore.env["bal"].get("attacker") == 0
    assert estore.env["vault"] == Coin(0)


def test_reentrancy_balance_reset_exactly_once(etherstore):
    """The integer balance reset (the vulnerable late write) runs once."""
    system, config = attack_system(etherstore)
    config, events = env_input(system, config, 1,
                               InputLetter("send", "mallory", (Coin(5),)))
    taus = [e for e in events if e.rule == "LocalTau" and e.actor == 0]
    assert len(taus) == 2  # ResetBalance then GaveWithdrawal


def test_second_entry_allowed_at_r1(etherstore):
    """R=1 permits the call-and-response: the attacker occurs twice."""
    system, config = attack_system(etherstore)
    _, events = env_input(system, config, 1,
                          InputLetter("send", "mallory", (Coin(5),)))
    worst = max(max(e.stack_after.count(i) for i in (0, 1)) if e.stack_after
                else 0 for e in events)
    assert worst == 2  # R+1 occurrences


def test_r0_blocks_the_response(etherstore):
    system, config = attack_system(etherstore, R=0)
    config, events = env_input(system, config, 1,
                               InputLetter("send", "mallory", (Coin(5),)))
    # the return push is refused, so the attacker never reaches AcceptReturn
    assert config.states[1].skeleton == "EtherstoreWithdraw"
    for e in events:
        for idx in (0, 1):
            assert e.stack_after.count(idx) <= 1


def test_env_input_rejected_wrong_state(auction):
    system, config = init_system(
        auction, [("auction", "SimpleAuction",
                   {"beneficiary": "bene", "bidding_time": 10}, "alice")], 1)
    with pytest.raises(Rejected):
        env_input(system, config, 0, InputLetter("bid", "bob", (Coin(1),)))


def test_start_single_step_cascade(auction):
    from asp.values import Timer
    system, config = init_system(
        auction, [("auction", "SimpleAuction",
                   {"beneficiary": "bene", "bidding_time": 10}, "alice")], 1)
    config, events = env_input(system, config, 0, InputLetter("start", "alice", ()))
    assert [e.rule for e in events] == ["EnvInput", "Pop"]
    assert config.states[0].skeleton == "AuctionOpen"
    assert config.states[0].env["tmr"] == Timer("active", 10)


def test_where_clause_violation(auction):
    from asp.cascade import WhereClauseViolated
    with pytest.raises(WhereClauseViolated):
        init_system(auction, [("a", "SimpleAuction",
                               {"beneficiary": "bene", "bidding_time": 0},
                               "alice")], 1)


def test_time_advance_requires_active_timer(auction):
    system, config = init_system(
        auction, [("auction", "SimpleAuction",
                   {"beneficiary": "bene", "bidding_time": 10}, "alice")], 1)
    with pytest.raises(Rejected):
        time_advance(system, config, 5)  # tmr is Off
    config, _ = env_input(system, config, 0, InputLetter("start", "alice", ()))
    config, ev = time_advance(system, config, 4)
    from asp.values import Timer
    assert config.states[0].env["tmr"] == Timer("active", 6)
    assert ev.delta == 4


def test_time_boundary_fires(auction):
    from asp.values import Timer
    system, config = init_system(
        auction, [("auction", "SimpleAuction",
                   {"beneficiary": "bene", "bidding_time": 10}, "alice")], 1)
    config, _ = env_input(system, config, 0, InputLetter("start", "alice", ()))
    config, _ = time_advance(system, config, 10)
    assert config.states[0].env["tmr"] == Timer("fired")
    config, events = wake_internal(system, config)
    assert config.states[0].skeleton == "AuctionClosed"
    assert [e.rule for e in events] == ["EnvOutput", "Pop"]


# -- scripts ------------------------------------------------------------------


def test_happy_path_script(auction):
    res = run_script_text(auction, load("auction_happy.aspscript"), R=1)
    assert res.config.states[0].skeleton == "AuctionClosed"


def test_attack_script_asserts(etherstore):
    res = run_script_text(etherstore, load("etherstore_attack.aspscript"), R=1)
    assert [e.rule for e in res.events] == APPENDIX_RULES


def test_script_failing_assert_raises(auction):
    text = """
new auction = SimpleAuction(bene, 10) by alice
input auction start from alice
assert auction @AuctionClosed
"""
    with pytest.raises(ScriptError) as exc:
        run_script_text(auction, text, R=1)
    assert "AuctionOpen" in exc.value.message


def test_script_unknown_variable_names_assert_line(auction):
    text = """
new auction = SimpleAuction(bene, 10) by alice
assert auction.nosuch == 1
"""
    with pytest.raises(ScriptError) as exc:
        run_script_text(auction, text, R=1)
    assert exc.value.pos.line == 3
    assert "nosuch" in exc.value.message


def test_script_unexpected_accept_raises(auction):
    text = """
new auction = SimpleAuction(bene, 10) by alice
expect-reject
input auction start from alice
"""
    with pytest.raises(ScriptError):
        run_script_text(auction, text, R=1)


@pytest.mark.parametrize("text, line", [
    ("expect-reject\nassert a @S\ninput a start from al", 1),
    ("input a start from al\n\nexpect-reject // nothing follows", 3),
    ("expect-reject\nexpect-reject\ninput a start from al", 1),
], ids=["before-assert", "at-end", "twice"])
def test_misplaced_expect_reject_is_parse_error(text, line):
    """A marker applies to the input or advance on its next line; one
    before anything else, or at the end, is an error at its own line."""
    with pytest.raises(ScriptError) as exc:
        parse_script("new a = SimpleAuction(bene, 1) by al\n" + text)
    assert exc.value.pos.line == line + 1


def test_empty_script(auction):
    res = run_script_text(auction, "new a = SimpleAuction(bene, 1) by al", R=1)
    assert res.events == []
    assert res.config.quiescent


def test_determinism_same_seed(etherstore):
    def trace(seed):
        system, config = attack_system(etherstore, rng=random.Random(seed))
        _, events = env_input(system, config, 1,
                              InputLetter("send", "mallory", (Coin(7),)))
        return [e.to_json() for e in events]

    assert trace(11) == trace(11)
    assert trace(11) == trace(12)  # no real nondeterminism in this corpus


# -- invariants under fuzzing -------------------------------------------------


def fuzz_once(etherstore, auction, seed, R):
    rng = random.Random(seed)
    prog = rng.choice([etherstore, auction])
    if prog is etherstore:
        system, config = attack_system(etherstore, R=R)
    else:
        system, config = init_system(
            auction, [("auction", "SimpleAuction",
                       {"beneficiary": "bene", "bidding_time": rng.randint(1, 6)},
                       "alice")], R)
    env_in = env_out = 0
    steps = 0
    for _ in range(rng.randint(1, 15)):
        target = rng.randrange(len(system.names))
        tc = system.contracts[target]
        msg = rng.choice(list(tc.msg_sigs))
        args = tuple(Coin(rng.randint(0, 9)) if t.kind == "coin"
                     else rng.randint(0, 9) if t.kind in ("int", "nat")
                     else rng.choice(["alice", "bob", "none"])
                     for t in tc.msg_sigs[msg])
        sender = rng.choice(["alice", "bob", "mallory", "deployer"])
        try:
            config, events = env_input(system, config, target,
                                       InputLetter(msg, sender, args))
        except Rejected:
            continue
        steps += len(events)
        env_in += sum(a.value for a in args if isinstance(a, Coin))
        for ev in events:
            for idx in range(len(system.names)):
                assert ev.stack_after.count(idx) <= R + 1
            if ev.rule == "EnvOutput":
                env_out += sum(a.value for a in ev.letter.args
                               if isinstance(a, Coin))
        assert system_coin_total(config) == env_in - env_out
        assert config.quiescent
    return steps


@pytest.mark.parametrize("R", [0, 1, 2])
def test_fuzz_stack_bound_and_conservation(etherstore, auction, R):
    total = 0
    for seed in range(40):
        total += fuzz_once(etherstore, auction, seed * 3 + R, R)
    assert total > 150


def test_appendix_trace_stable_at_higher_limit(etherstore):
    """R-monotonicity on the corpus: the R=1 reentrancy cascade replays
    unchanged at R=2 (the blocked step is refused by receptiveness, not by
    the occurrence limit)."""
    def trace(R):
        system, config = attack_system(etherstore, R=R)
        _, events = env_input(system, config, 1,
                              InputLetter("send", "mallory", (Coin(5),)))
        return [e.to_json() for e in events]

    assert trace(1) == trace(2)


def test_normalization_preserves_traces(auction):
    """Auto-normalized and hand-normalized auctions produce identical
    cascade traces on the corpus script."""
    from conftest import typed
    pre = typed("auction_prenormalized.asp")
    script = load("auction_happy.aspscript")
    auto = run_script_text(auction, script, R=1)
    hand = run_script_text(pre, script, R=1)
    assert [e.to_json() for e in auto.events] == \
        [e.to_json() for e in hand.events]


COND = """
contract Cond() {
  msg go(bool, nat), fwd(token);
  var n: nat;
  var last: address;
  initial S;
  state S:
  | a??go(b, k) -> S
    { n = k; if b then a!!ping(k) else { a!!pong; last!!pong; }; n = n + 1; }
  | a??fwd(t) -> S { last = a; a!!ping(n); a!!got(t); }
}
"""


def test_normalized_chain_steps_as_its_source_transition():
    """A source transition with a conditional send, and one whose token
    binder is stashed across two sends, run on the machine in one step
    and through the cascade as their normalized chains: the variables, the
    state and the letters to the environment, in order, agree."""
    prog = typecheck(parse_program(COND))
    tc = prog.contract("Cond")
    rng = random.Random(7)
    for _ in range(300):
        system, config = init_system(prog, [("c", "Cond", {}, "alice")], 1)
        inst = config.states[0]
        for _ in range(6):
            if rng.random() < 0.5:
                args = (rng.random() < 0.5, rng.randint(0, 3))
            else:
                k = rng.randint(0, 3)
                args = (Tok("mint" if k else None, k),)
            letter = InputLetter("go" if len(args) == 2 else "fwd",
                                 rng.choice(["alice", "bob"]), args)
            (t, b), = [(t, b) for t in tc.transitions_from(inst.skeleton)
                       if (b := match_input(t, inst, letter)) is not None]
            res = step_instance(tc, inst, t, b, letter.sender)
            assert res is not None
            inst, outputs, _ = res
            config, events = env_input(system, config, 0, letter)
            got = config.states[0]
            assert got.skeleton == inst.skeleton
            assert {x: v for x, v in got.env.items() if not tc.vars[x].synthetic} == \
                {x: v for x, v in inst.env.items() if not tc.vars[x].synthetic}
            assert [ev.letter for ev in events if ev.rule == "EnvOutput"] == list(outputs)


def test_seed_varies_only_tau_choices():
    """On a tau-nondeterministic contract, different seeds may pick
    different internal branches, but every trace stays invariant-clean."""
    from asp.parser import parse_program
    from asp.typecheck import typecheck
    prog = typecheck(parse_program("""
contract Flaky() {
  msg go;
  var picked: int;
  initial A;
  state A:
  | x??go -> B { }
  state B:
  | when true -> C { picked = 1; }
  | when true -> C { picked = 2; }
  state C:
}
"""))
    outcomes = set()
    for seed in range(12):
        system, config = init_system(prog, [("f", "Flaky", {}, "al")], 1,
                                     random.Random(seed))
        config, events = env_input(system, config, 0,
                                   InputLetter("go", "al", ()))
        assert config.states[0].skeleton == "C"
        assert [e.rule for e in events] == ["EnvInput", "LocalTau", "Pop"]
        outcomes.add(config.states[0].env["picked"])
    assert outcomes == {1, 2}  # both branches are reachable across seeds


def test_step_ceiling_aborts_divergent_cascade(monkeypatch):
    from asp.cascade import CascadeLimit
    from asp.parser import parse_program
    from asp.typecheck import typecheck
    prog = typecheck(parse_program("""
contract Spinner() {
  msg kick;
  initial A;
  state A:
  | x??kick -> B { }
  state B:
  | when true -> B { }
}
"""))
    monkeypatch.setattr("asp.cascade.STEP_LIMIT", 500)
    system, config = init_system(prog, [("s", "Spinner", {}, "al")], 1)
    with pytest.raises(CascadeLimit):
        env_input(system, config, 0, InputLetter("kick", "al", ()))


def test_instance_names_unique(auction):
    from asp.cascade import WhereClauseViolated
    args = {"beneficiary": "bene", "bidding_time": 3}
    with pytest.raises(WhereClauseViolated):
        init_system(auction, [("a", "SimpleAuction", args, "al"),
                              ("a", "SimpleAuction", args, "al")], 1)
