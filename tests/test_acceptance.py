"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets and tolerances are pinned here, not configured elsewhere:
  1  exact golden-trace match of the reentrancy cascade, < 1 s
  2  10,000 fuzz cascades at R in {0,1,2}: stack occurrences <= R+1
  3  >= 1e6 cascade steps with exact global coin conservation
  4  refund safety proof valid and its mutant refuted, together < 30 s
  5  auction_closed(2) valid < 10 s; explicit-state search concurs
  6  lockout-freedom verdicts on both vending machines; game search concurs
  7  1,000 random scripts per corpus system: committed == accepted cascade
     at word_bits=256; only Overflow divergences at word_bits=8
  8  every reverted transaction leaves storage hash-identical
  9  corpus VCs export to SMT-LIB; bounded engine agrees with the
     raw-enumeration oracle (and an external solver when configured); the
     oracle checks 12,314 valuations at 2/2/2 and its counterexamples replay
  10 ghost-erased compile is transaction-for-transaction identical over
     1,000 random transactions
"""
import json
import random
import time

import pytest

from asp.cascade import Rejected, env_input, init_system, system_coin_total, time_advance, wake_internal
from asp.diff import differential_check
from asp.discharge import Counterexample, DomainBounds, Valid, discharge_bounded, discharge_naive, replay_counterexample
from asp.interp import Machine
from asp.lower import lower
from asp.machine import InputLetter
from asp.parser import parse_program
from asp.prove import check_proof, game_solve, reach_search
from asp.script import NewItem, run_script_text
from asp.sketch import parse_proof_sketch
from asp.smtlib import EmitUnsupported, emit_smtlib
from asp.typecheck import erase_ghosts, typecheck
from asp.values import Coin
from asp.vcgen import generate_vcs
import conftest
from conftest import CORPUS, CRITERION_9_PAIRS, load, typed

BOUNDS = DomainBounds(addresses=3, nat_max=4, timer_max=4)

AUCTION_NEWS = [NewItem("auction", "SimpleAuction", ("bene", 10), "alice", 0)]
ATTACK_NEWS = [NewItem("estore", "Etherstore", (), "deployer", 0),
               NewItem("attacker", "Attacker", ("estore",), "mallory", 0)]
VENDING_NEWS = [NewItem("vm", "VendingMachine", (), "own", 0)]
BANK_NEWS = [NewItem("bank", "BasicCoin", (), "own", 0)]

SYSTEMS = [("auction.asp", AUCTION_NEWS),
           ("etherstore_attack.asp", ATTACK_NEWS),
           ("vending_fixed.asp", VENDING_NEWS),
           ("basic_coin.asp", BANK_NEWS)]


def ok(n, text):
    line = f"[PASS] criterion {n}: {text}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_1_appendix_trace(etherstore):
    t0 = time.perf_counter()
    res = run_script_text(etherstore, load("etherstore_attack.aspscript"), R=1)
    elapsed = time.perf_counter() - t0
    got = [e.to_json() for e in res.events]
    golden = (CORPUS / "golden" / "etherstore_attack.trace.jsonl") \
        .read_text().splitlines()
    assert got == golden, "trace differs from the frozen appendix cascade"
    rules = [json.loads(l)["rule"] for l in got]
    assert rules == ["EnvInput", "SyncPush", "Pop", "SyncPush", "SyncPush",
                     "Pop", "LocalTau", "LocalTau", "Pop", "Pop"]
    # the balance reset happened exactly once, inside the two tau moves
    estore = res.config.states[0]
    assert estore.env["bal"].get("attacker") == 0
    assert res.config.quiescent
    assert elapsed < 1.0, f"{elapsed:.3f}s"
    ok(1, f"exact 10-event reentrancy trace in {elapsed * 1000:.0f} ms")


def _fuzz_systems(R):
    estore = typed("etherstore_attack.asp")
    auction = typed("auction.asp")
    vending = typed("vending_fixed.asp")
    return [
        lambda: init_system(estore, [("estore", "Etherstore", {}, "dep"),
                                     ("attacker", "Attacker",
                                      {"estore": "estore"}, "mal")], R),
        lambda: init_system(auction, [("auction", "SimpleAuction",
                                       {"beneficiary": "bene",
                                        "bidding_time": 6}, "alice")], R),
        lambda: init_system(vending, [("vm", "VendingMachine", {}, "own")], R),
    ]


def _random_letter(rng, system, target):
    tc = system.contract_of(target)
    msg = rng.choice(list(tc.msg_sigs))
    args = tuple(
        Coin(rng.randint(0, 9)) if t.kind == "coin"
        else rng.randint(0, 9) if t.kind in ("int", "nat")
        else rng.random() < 0.5 if t.kind == "bool"
        else rng.choice(["alice", "bob", "mal", "none"])
        for t in tc.msg_sigs[msg])
    sender = rng.choice(["alice", "bob", "mal", "own", "dep"])
    return InputLetter(msg, sender, args)


def _fuzz(R, seeds, per_system, stats):
    makers = _fuzz_systems(R)
    for seed in seeds:
        rng = random.Random(seed * 31 + R)
        for make in makers:
            system, config = make()
            env_in = env_out = 0
            for _ in range(per_system):
                target = rng.randrange(len(system.names))
                letter = _random_letter(rng, system, target)
                try:
                    config, events = env_input(system, config, target, letter)
                except Rejected:
                    continue
                stats["cascades"] += 1
                stats["steps"] += len(events)
                env_in += sum(a.value for a in letter.args
                              if isinstance(a, Coin))
                for ev in events:
                    for idx in range(len(system.names)):
                        if ev.stack_after.count(idx) > R + 1:
                            stats["stack_violations"] += 1
                    if ev.rule == "EnvOutput":
                        env_out += sum(a.value for a in ev.letter.args
                                       if isinstance(a, Coin))
                    for lg in ev.logs:
                        env_out += sum(a.value for a in lg.args
                                       if isinstance(a, Coin))
                if system_coin_total(config) != env_in - env_out:
                    stats["coin_violations"] += 1
    return stats


@pytest.fixture(scope="module")
def fuzz_stats():
    stats = {"cascades": 0, "steps": 0, "stack_violations": 0,
             "coin_violations": 0}
    for R in (0, 1, 2):
        _fuzz(R, range(30), 45, stats)
    # top up the step count cheaply: long vending pay/order storms
    vending = typed("vending_fixed.asp")
    rng = random.Random(99)
    while stats["steps"] < 1_050_000:
        system, config = init_system(
            vending, [("vm", "VendingMachine", {}, "own")], 1)
        env_in = env_out = 0
        for _ in range(3000):
            who = rng.choice(["alice", "bob", "carol"])
            for msg, args in (("pay", (Coin(rng.randint(0, 5)),)),
                              (rng.choice(["order", "cancel"]), ())):
                try:
                    config, events = env_input(
                        system, config, 0, InputLetter(msg, who, args))
                except Rejected:
                    continue
                stats["cascades"] += 1
                stats["steps"] += len(events)
                env_in += sum(a.value for a in args if isinstance(a, Coin))
                for ev in events:
                    if ev.stack_after.count(0) > 2:
                        stats["stack_violations"] += 1
                    if ev.rule == "EnvOutput":
                        env_out += sum(a.value for a in ev.letter.args
                                       if isinstance(a, Coin))
            if system_coin_total(config) != env_in - env_out:
                stats["coin_violations"] += 1
    return stats


def test_criterion_2_stack_occurrence_bound(fuzz_stats):
    assert fuzz_stats["cascades"] >= 10_000, fuzz_stats
    assert fuzz_stats["stack_violations"] == 0
    ok(2, f"{fuzz_stats['cascades']} cascades at R in {{0,1,2}}, "
          f"0 stack-bound violations")


def test_criterion_3_coin_conservation(fuzz_stats):
    assert fuzz_stats["steps"] >= 1_000_000, fuzz_stats
    assert fuzz_stats["coin_violations"] == 0
    ok(3, f"exact conservation over {fuzz_stats['steps']} steps")


def test_criterion_4_safety_proof_and_mutant(auction):
    t0 = time.perf_counter()
    sketch = parse_proof_sketch(load("auction_refunds.aspproof"), auction)
    report = check_proof(auction, sketch, BOUNDS)
    assert report.valid, report.to_json()

    mutant = typed("auction_norefund.asp")
    mreport = check_proof(mutant, parse_proof_sketch(
        load("auction_refunds.aspproof"), mutant), BOUNDS)
    assert not mreport.valid
    cexs = [r for r in mreport.results if isinstance(r.result, Counterexample)]
    assert cexs, "mutant produced no counterexample"
    for r in cexs:
        assert replay_counterexample(r.vc, BOUNDS, r.result), \
            f"counterexample for {r.vc.name} does not replay"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    ok(4, f"refund proof valid, mutant refuted with replayable "
          f"counterexample, {elapsed:.1f}s")


def test_criterion_5_reachability_proof_and_search(auction):
    t0 = time.perf_counter()
    sketch = parse_proof_sketch(load("auction_closed.aspproof"), auction)
    report = check_proof(auction, sketch, BOUNDS)
    assert report.valid, report.to_json()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"

    search = reach_search(auction, sketch,
                          DomainBounds(addresses=2, nat_max=3, timer_max=3),
                          {"beneficiary": "P0", "bidding_time": 3},
                          creator="P1")
    assert search.ok, search.reason
    ok(5, f"auction_closed(2) valid in {elapsed:.1f}s; every maximal path "
          f"of the {search.states}-state model reaches AuctionClosed")


def test_criterion_6_lockout_freedom(vending_fixed, vending_original):
    fixed_sketch = parse_proof_sketch(load("vending_lockout.aspproof"),
                                      vending_fixed)
    fixed = check_proof(vending_fixed, fixed_sketch, BOUNDS)
    assert fixed.valid, fixed.to_json()

    orig_sketch = parse_proof_sketch(load("vending_lockout_original.aspproof"),
                                     vending_original)
    orig = check_proof(vending_original, orig_sketch, BOUNDS)
    assert not orig.valid
    assert "Choose" in orig.failed_states

    small = DomainBounds(addresses=2, nat_max=2, timer_max=2)
    g1 = game_solve(vending_fixed, fixed_sketch, small, {})
    assert g1.ok
    g2 = game_solve(vending_original, orig_sketch, small, {})
    assert not g2.ok and g2.losing_state == "Choose"
    ok(6, "fixed machine verifies with ranks 0/2/1; original fails at "
          "Choose; game search confirms both verdicts")


@pytest.fixture(scope="module")
def diff_results():
    out = {}
    for contract, news in SYSTEMS:
        prog = typed(contract)
        atomicity: list[bool] = []
        rep256 = differential_check(prog, news, R=1, word_bits=256,
                                    trials=1000, seed=42,
                                    atomicity_log=atomicity)
        rep8 = differential_check(prog, news, R=1, word_bits=8,
                                  trials=250, seed=43, coin_max=120,
                                  atomicity_log=atomicity)
        out[contract] = (rep256, rep8, atomicity)
    return out


def test_criterion_7_property_one(diff_results):
    gaps = 0
    for contract, (rep256, rep8, _) in diff_results.items():
        assert rep256.clean, f"{contract}: {rep256.to_json()}"
        assert rep256.overflow_gaps == 0
        assert rep8.clean, f"{contract}: {rep8.to_json()}"
        gaps += rep8.overflow_gaps
    assert gaps > 0, "word_bits=8 runs never exercised the overflow gap"
    total = sum(r[0].items + r[1].items for r in diff_results.values())
    ok(7, f"{total} differential items: committed transactions match "
          f"accepted cascades; {gaps} Overflow-only gaps at word_bits=8")


def test_criterion_8_atomicity(diff_results):
    checks = sum(len(r[2]) for r in diff_results.values())
    assert checks > 1000
    for contract, (_, _, atomicity) in diff_results.items():
        assert all(atomicity), f"{contract}: a revert mutated storage"
    ok(8, f"{checks} reverted transactions, storage hash-identical each time")


def test_criterion_9_engine_agreement():
    small = DomainBounds(addresses=2, nat_max=2, timer_max=2)
    emitted = disagreements = oracle_checked = 0
    import os
    import shutil
    solver = os.environ.get("ASP_SOLVER") or shutil.which("z3") or shutil.which("cvc5")
    for contract, proof in CRITERION_9_PAIRS:
        prog = typed(contract)
        sketch = parse_proof_sketch(load(proof), prog)
        for vc in generate_vcs(prog, sketch):
            fast = discharge_bounded(vc, small)
            slow = discharge_naive(vc, small)
            if fast.status != slow.status:
                disagreements += 1
            if isinstance(slow, Valid):
                oracle_checked += slow.checked
            elif isinstance(slow, Counterexample):
                assert replay_counterexample(vc, small, slow), vc.name
            try:
                script = emit_smtlib(vc)
                assert "(check-sat)" in script.text
                emitted += 1
                if solver:
                    import tempfile
                    from asp.smtlib import run_solver
                    with tempfile.NamedTemporaryFile(
                            "w", suffix=".smt2", delete=False) as f:
                        f.write(script.text)
                    verdict = run_solver(solver, f.name)
                    if verdict != "unknown":
                        big = discharge_bounded(vc, BOUNDS)
                        if (verdict == "unsat") != isinstance(big, Valid):
                            disagreements += 1
            except EmitUnsupported:
                pass  # game-rule obligations: bounded engine only
    assert disagreements == 0
    assert emitted >= 25
    assert oracle_checked == 12_314
    via = "external solver" if solver else "raw-enumeration oracle"
    ok(9, f"{emitted} VCs exported; engine verdicts agree with the {via}, "
          f"0 disagreements; oracle checked {oracle_checked} valuations")


def test_criterion_10_ghost_erasure(auction):
    erased = typecheck(erase_ghosts(parse_program(load("auction.asp"))))
    news = [("auction", "SimpleAuction",
             {"beneficiary": "bene", "bidding_time": 10}, "alice")]
    m1 = Machine(lower(auction, 1, 256), news)
    m2 = Machine(lower(erased, 1, 256), news)
    rng = random.Random(7)
    txs = 0
    for _ in range(1000):
        if rng.random() < 0.1:
            assert m1.advance(2) == m2.advance(2)
            m1.wake()
            m2.wake()
            continue
        msg = rng.choice(["start", "bid"])
        sender = rng.choice(["alice", "bob", "bene", "carol"])
        args = (rng.randint(0, 9),) if msg == "bid" else ()
        r1 = m1.transact("auction", msg, sender, args)
        r2 = m2.transact("auction", msg, sender, args)
        txs += 1
        assert (r1.status, r1.reason) == (r2.status, r2.reason)
        assert [l.to_json() for l in r1.letters] == [l.to_json() for l in r2.letters]
        assert m1.storage_hash() == m2.storage_hash()
    ok(10, f"{txs} transactions identical between ghost and ghost-erased "
           f"compiles")
