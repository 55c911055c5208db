"""Differential testing of the compiled interpreter against the cascade."""
import dataclasses
import json
import random
import subprocess
import sys

import pytest

import asp.diff
import asp.machine
from asp.cascade import Rejected, env_input, init_system, time_advance, wake_internal
from asp.diff import (
    DiffReport, _run_script, _start, compare_states, differential_check, random_items,
    run_differential,
)
from asp.interp import Machine, _canon
from asp.lower import lower
from asp.machine import InputLetter
from asp.parser import parse_program
from asp.script import InputItem, NewItem, instance_index, instantiations, parse_script
from asp.typecheck import typecheck
from asp.values import Coin, flat
from conftest import ROOT, load

AUCTION_NEWS = [NewItem("auction", "SimpleAuction", ("bene", 10), "alice", 0)]
ATTACK_NEWS = [NewItem("estore", "Etherstore", (), "deployer", 0),
               NewItem("attacker", "Attacker", ("estore",), "mallory", 0)]


def test_empty_script_trivially_equivalent(auction):
    report = run_differential(auction, AUCTION_NEWS, [], R=1, word_bits=256)
    assert report.clean and report.items == 0


def test_replayed_happy_path(auction):
    news, items = parse_script(load("auction_happy.aspscript"))
    report = run_differential(auction, news, items, R=1, word_bits=256)
    assert report.clean, report.to_json()
    assert report.committed >= 4


def test_wake_letters_are_compared(auction, monkeypatch):
    """The letters of a timer wake are compared: the auction's close sends
    its payment to the beneficiary, so a target wake that drops its
    letters is a letter-mismatch at the advance."""
    wake = Machine.wake
    monkeypatch.setattr(Machine, "wake", lambda self: [
        dataclasses.replace(r, letters=[]) for r in wake(self)])
    news, items = parse_script(load("auction_happy.aspscript"))
    report = run_differential(auction, news, items, R=1, word_bits=256)
    [d] = report.divergences
    assert (d.kind, d.item) == ("letter-mismatch", {"advance": 10}), report.to_json()
    assert "winner" in d.detail


def test_attack_scenario_matches(etherstore):
    news, items = parse_script(load("etherstore_attack.aspscript"))
    report = run_differential(etherstore, news, items, R=1, word_bits=256)
    assert report.clean, report.to_json()
    assert report.committed == 1


SYSTEMS = [
    ("auction.asp", AUCTION_NEWS),
    ("etherstore_attack.asp", ATTACK_NEWS),
    ("vending_fixed.asp", [NewItem("vm", "VendingMachine", (), "own", 0)]),
    ("basic_coin.asp", [NewItem("bank", "BasicCoin", (), "own", 0)]),
]


@pytest.mark.parametrize("contract,news", SYSTEMS)
def test_randomized_diff_word256_clean(contract, news):
    prog = typecheck(parse_program(load(contract)))
    report = differential_check(prog, news, R=1, word_bits=256, trials=120,
                                seed=13)
    assert report.clean, report.to_json()
    assert report.committed > 0


def test_word8_divergences_are_overflow_only(etherstore):
    report = differential_check(etherstore, ATTACK_NEWS, R=1, word_bits=8,
                                trials=150, seed=3, coin_max=120)
    assert report.clean, report.to_json()
    assert report.overflow_gaps > 0  # the documented inclusion gap fires


def test_divergence_report_carries_reproduction(etherstore):
    """A deliberately broken comparison: the target lowered at R=0 against
    the cascade at R=1. The attack's reentrant call reverts on the target
    only, and the divergence report carries the script that reproduces it.
    The run ends there: the script's assertions, which would now be checked
    on a cascade the target did not follow, are not reached."""
    news, items = parse_script(load("etherstore_attack.aspscript"))
    report = _run_script(etherstore, _start(etherstore, lower(etherstore, 0, 256), news, 1),
                         items, None, None)
    [d] = report.divergences
    assert d.kind == "reverted-but-accepted"
    assert "ReentrancyLimit" in d.detail
    assert d.script == [{"input": "attacker", "msg": "send",
                         "args": ["Coin(value=5)"], "from": "mallory"}]
    assert d.script[-1] == d.item


def _tracing():
    """The benchmark's `perfbench.tracing` module."""
    sys.path.insert(0, str(ROOT))
    try:
        import perfbench.tracing
    finally:
        sys.path.remove(str(ROOT))
    return perfbench.tracing


def test_tracer_wraps_and_restores_every_entry_point():
    """Every entry point the traced benchmark wraps exists: `install`
    wraps the function found there, and `uninstall` puts it back."""
    tracing = _tracing()
    targets = [tracing._owner(module, attr) for _, module, attr, _ in tracing.ENTRY_POINTS]
    before = [getattr(owner, name) for owner, name in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, name), fn in zip(targets, before):
            assert getattr(owner, name).__wrapped__ is fn, f"{owner.__name__}.{name}"
    finally:
        tracer.uninstall()
    for (owner, name), fn in zip(targets, before):
        assert getattr(owner, name) is fn, f"{owner.__name__}.{name}"


def test_traced_differential_run_counts_the_cascade(auction):
    """The benchmark's traced run wraps the cascade steps where the
    differential runner calls them, as attributes of asp.diff. A runner
    that reached the cascade another way would leave its counters at 0."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _, module, attr, _ in tracing.ENTRY_POINTS:
            owner, name = tracing._owner(module, attr)
            assert hasattr(getattr(owner, name), "__wrapped__"), f"{module}.{attr}"
        tracer.begin_pass(0)
        asp.diff.differential_check(auction, AUCTION_NEWS, R=1, word_bits=256,
                                    trials=2)
    finally:
        tracer.uninstall()
    counts = tracer.counts[0]
    for key in ("cascade.steps", "cascade.accepted", "diff.items"):
        assert counts[key] > 0, (key, dict(counts))


POT = """
contract Pot() {
  msg put(coin), paid(coin);
  var pot: tuple[coin, nat], payee: address;
  initial Open;
  state Open:
  | a??put(c) -> Paying { Coin.moveall(c, Tuple.ref(pot, 0)); payee = a; }
  state Paying:
  | -> Open { payee!!paid(Tuple.ref(pot, 0)); }
}
"""


def test_send_drains_tuple_ref_argument():
    """A send of `Tuple.ref(pot, 0)` moves the coins out of the tuple on
    both routes; kept in place, the IR would pay the same coins twice."""
    prog = typecheck(parse_program(POT))
    report = differential_check(prog, [NewItem("pot", "Pot", (), "own", 0)],
                                R=1, word_bits=256, trials=40, seed=1)
    assert report.clean, report.to_json()
    assert report.committed > 0


TUP = """
contract Tup() {
  msg put(tuple[nat, bool]), push(nat);
  var p: tuple[nat, bool];
  var s: seq[nat];
  initial S;
  state S:
  | a??put(x) -> S { p = x; }
  | a??push(k) -> S { Seq.append(s, k); }
}
"""


def test_container_parameter_is_fuzzed():
    """A random script passes a container parameter its zero value, and
    sequences and tuples are stored as tuples on the target."""
    prog = typecheck(parse_program(TUP))
    report = differential_check(prog, [NewItem("t", "Tup", (), "own", 0)],
                                R=1, word_bits=256, trials=10, seed=1)
    assert report.clean, report.to_json()
    assert report.committed > 0


PUT = """
contract Put() {
  msg put(map[address, nat]), app(seq[nat]);
  var n: nat;
  initial S;
  state S:
  | a??put(m) -> S { Map.set(m, a, 1); n = Map.get(m, a); }
  | a??app(q) -> S { Seq.append(q, 3); n = Seq.len(q); }
}
"""


def test_container_operation_on_parameter():
    """`Map.set` and `Seq.append` on a message parameter write the binder
    on the target as on the cascade."""
    prog = typecheck(parse_program(PUT))
    report = differential_check(prog, [NewItem("p", "Put", (), "alice", 0)],
                                R=1, word_bits=256, trials=50, seed=1)
    assert report.clean, report.to_json()
    assert report.committed > 0


@pytest.mark.parametrize("word_bits", [256, 8])
@pytest.mark.parametrize("contract,news", SYSTEMS)
def test_shared_start_reports_as_a_fresh_start(contract, news, word_bits, monkeypatch):
    """differential_check runs every script from one start: its report is
    the merged report of run_differential, which sets up again for each
    script, on the same scripts, and the start's initial configuration
    reads the same after the run as before it."""
    prog = typecheck(parse_program(load(contract)))
    coin_max = 9 if word_bits == 256 else 120
    starts = []
    start = asp.diff._start

    def recorded(*args):
        first = start(*args)
        starts.append((first, [inst.snapshot() for inst in first[1].states]))
        return first

    monkeypatch.setattr(asp.diff, "_start", recorded)
    shared = differential_check(prog, news, R=1, word_bits=word_bits, trials=30,
                                seed=11, coin_max=coin_max)
    [((_, config, _), before)] = starts
    assert [inst.snapshot() for inst in config.states] == before
    rng = random.Random(11)
    merged = DiffReport()
    for _ in range(30):
        items = random_items(prog, news, rng, 12, min(coin_max, (1 << word_bits) - 1))
        run_differential(prog, news, items, 1, word_bits, report=merged)
    assert len(starts) == 1 + 30
    assert shared.to_json() == merged.to_json()
    assert shared.committed and shared.reverted


WIDE = """
contract Wide() {
  msg app(int), tup(int), asg(int);
  var s: seq[int];
  var p: tuple[int, nat];
  var x: int;
  initial S;
  state S:
  | a??app(k) -> S { Seq.append(s, k + k); }
  | a??tup(k) -> S { Tuple.set(p, 0, k + k); }
  | a??asg(k) -> S { x = k + k; }
}
"""


def test_element_store_checks_declared_width():
    """A store into a sequence or tuple element is checked against the
    element's declared type, as an assignment is: 200 fits the 8-bit
    word's operation bound but not a signed 8-bit `int`."""
    prog = typecheck(parse_program(WIDE))
    news, items = parse_script("new w = Wide() by alice\n" + "".join(
        f"input w {m}(100) from bob\n" for m in ("app", "tup", "asg")))
    report = run_differential(prog, news, items, R=1, word_bits=8)
    assert (report.overflow_gaps, report.divergences) == (3, []), report.to_json()
    machine = Machine(lower(prog, word_bits=8), instantiations(prog, news))
    for msg in ("app", "tup", "asg"):
        res = machine.transact("w", msg, "bob", (100,))
        assert (res.committed, res.reason) == (False, "Overflow")


MID_OVERFLOW = """
contract Mid(k: nat) {
  msg go, put(nat);
  var x: nat;
  initial S;
  state S:
  | a??go -> S { x = k + k - k; }
  | a??put(n) -> S { x = n; }
}
"""


def test_mid_expression_overflow_is_a_gap():
    """At 8 bits with k = 200, `k + k - k` overflows in mid-expression
    though the 200 it stores fits: the target reverts every `go` with
    Overflow, which the cascade accepts, so each is an overflow gap. The
    random trials pin that count with no divergence, so the differential
    route catches a target that drops the word check on `+` (it commits
    every `go`)."""
    prog = typecheck(parse_program(MID_OVERFLOW))
    report = differential_check(prog, [NewItem("m", "Mid", (200,), "alice", 0)],
                                R=1, word_bits=8, trials=10, seed=5)
    assert (report.items, report.committed, report.overflow_gaps, report.divergences) == \
        (120, 70, 50, []), report.to_json()


OPS = """
contract Ops() issues Token(6) {
  msg mint(nat), burn(nat), hand(address), arm(nat), read, calc(nat, int);
  var pot: token;
  var t: timer;
  var n: nat;
  var z: int;
  var ok: bool;
  initial S;
  state S:
  | a??mint(k) -> S { Token.issue(k, pot); }
  | a??burn(k) -> S { Token.burn(pot, k); }
  | a??hand(b) -> S { Address.change_owner(b); }
  | a??arm(k) -> S { Timer.reset(t); Timer.set(t, k); }
  | a??read -> S { n = Timer.value(t); Timer.reset(t); }
  | a??calc(k, j) when k < 3 || j <= 2 -> S {
      n = k * 3 % (k + 1) - 1; z = j - k; ok = k == 2 ==> j < 0; }
}
"""


READS = """
contract Rd() issues Token(6) {
  msg add(int), get(nat), put, flip, mint(nat), arm(nat), look, who;
  var s: seq[int];
  var p: tuple[int, bool];
  var pot: token;
  var t: timer;
  var n: int;
  var w: address;
  var ok: bool;
  initial S;
  state S:
  | a??add(k) -> S { Seq.append(s, k); Tuple.set(p, 0, k); }
  | a??get(i) -> S { n = Seq.get(s, i) + Tuple.get(p, 0); }
  | a??put -> S { Seq.set(s, 1, Seq.get(s, 0)); }
  | a??flip -> S { Tuple.set(p, 1, !Tuple.get(p, 1)); }
  | a??mint(k) -> S { Token.issue(k, pot); }
  | a??arm(k) -> S { Timer.reset(t); Timer.set(t, k); }
  | a??look -> S { n = Token.value(pot); ok = Timer.is_off(t); }
  | a??who -> S { w = Address.self; ok = creator == a; }
}
"""


@pytest.mark.parametrize("source, word_bits", [
    pytest.param(OPS, 256, id="256"), pytest.param(OPS, 8, id="8"),
    pytest.param(READS, 256, id="reads-256"), pytest.param(READS, 8, id="reads-8"),
])
def test_operations_agree_with_the_cascade(source, word_bits, monkeypatch):
    """Every message commits on the IR interpreter as on the cascade. OPS:
    token burn, change_owner, timer reset and value, nat and int
    subtraction, `*`, `%`, comparisons and the boolean connectives. READS:
    sequence and tuple reads and element writes, `Token.value`,
    `Timer.is_off`, `Address.self` and `creator`."""
    prog = typecheck(parse_program(source))
    committed = set()
    transact = Machine.transact

    def spy(self, instance, msg, *args):
        res = transact(self, instance, msg, *args)
        if res.committed:
            committed.add(msg)
        return res
    monkeypatch.setattr(Machine, "transact", spy)
    tc = next(iter(prog.contracts.values()))
    report = differential_check(prog, [NewItem("o", tc.name, (), "own", 0)],
                                R=1, word_bits=word_bits, trials=60, seed=1)
    assert report.clean and report.overflow_gaps == 0, report.to_json()
    assert committed == set(tc.msg_sigs)


TAKE = """
contract Bank() {
  msg take;
  var bal: map[address, coin];
  initial S;
  state S:
  | a??take -> S { a!!got(Map.ref(bal, a)); }
}
"""


def test_send_of_absent_map_entry_is_undefined():
    """A send of an absent map entry is undefined on both routes: the
    send's tau step does not exist, so the cascade and the target both
    stay at the intermediate state the input step reaches."""
    prog = typecheck(parse_program(TAKE))
    news, items = parse_script("new bank = Bank() by alice\ninput bank take from bob\n")
    report = run_differential(prog, news, items, R=1, word_bits=256)
    assert report.clean, report.to_json()
    assert report.committed == 1


NEST = """
contract Nest() {
  msg put(coin, address);
  var m: map[address, tuple[coin, nat]];
  var c: coin;
  initial S;
  state S:
  | a??put(k, x) -> S { Coin.moveall(k, c); Coin.moveall(c, Tuple.ref(Map.ref(m, x), 0)); }
}
"""


def test_move_under_absent_map_entry_is_undefined():
    """A move materializes only the entry it writes: a move into a
    component of an absent map entry is undefined, so the cascade rejects
    the input and the target reverts."""
    prog = typecheck(parse_program(NEST))
    news, items = parse_script(
        "new nest = Nest() by alice\nexpect-reject\ninput nest put(coin(1), bob) from bob\n")
    report = run_differential(prog, news, items, R=1, word_bits=256)
    assert report.clean and report.reverted == 1, report.to_json()
    machine = Machine(lower(prog), instantiations(prog, news))
    res = machine.transact("nest", "put", "bob", (1, "bob"))
    assert (res.committed, res.reason) == (False, "UndefinedOp")


KEYED = """
contract K() {
  msg give(coin);
  var c: coin;
  var bal: map[nat, coin];
  initial S;
  state S:
  | x??give(k) -> T { Coin.moveall(k, c); }
  state T:
  | -> U { Coin.moveall(c, Map.ref(bal, Coin.value(c))); }
  state U:
}
"""


def test_move_destination_is_resolved_after_the_source_is_written():
    """A move writes its source before it resolves its destination, on
    both routes: the key Coin.value(c) reads the emptied c, so the coins
    land in bal[0]."""
    prog = typecheck(parse_program(KEYED))
    news, items = parse_script(
        "new k = K() by alice\ninput k give(coin(2)) from bob\nassert k @U\n")
    report = run_differential(prog, news, items, R=1, word_bits=256)
    assert report.clean and report.committed == 1, report.to_json()
    machine = Machine(lower(prog), instantiations(prog, news))
    machine.transact("k", "give", "bob", (2,))
    assert machine.storages["k"].vars["bal"] == {0: 2}


GROW = """
contract Grow() {
  msg give(coin);
  var n: nat;
  var bal: map[nat, coin];
  initial A;
  state A:
  | x??give(k) -> A { Coin.moveall(k, Map.ref(bal, n + 1)); n = n + 1; }
}
"""


@pytest.mark.parametrize("word_bits", [256, 8])
def test_move_into_a_fresh_entry_each_time(word_bits):
    """Every give moves its coin into the entry one past the count, a key
    that no earlier give wrote: both routes write each such entry, the
    semantics the proof engine's relation keeps for a key past its
    bounded domain."""
    prog = typecheck(parse_program(GROW))
    report = differential_check(prog, [NewItem("g", "Grow", (), "own", 0)], R=1,
                                word_bits=word_bits, trials=200, seed=1)
    assert report.clean, report.to_json()
    assert report.items == report.committed == 2400


@pytest.mark.parametrize("side", ["target", "cascade"])
def test_entry_on_one_side_is_a_state_mismatch(etherstore, side):
    """Storage must be the flat form of the cascade state: a default map
    entry present on one side only is a mismatch, since `Map.in` tells it
    apart from an absent entry."""
    insts = instantiations(etherstore, ATTACK_NEWS)
    system, config = init_system(etherstore, insts, 1)
    machine = Machine(lower(etherstore), insts)
    assert compare_states(etherstore, machine, config) is None
    if side == "target":
        st = machine.storages["estore"]
        st.vars["bal"] = {**st.vars["bal"], "bob": 0}
    else:
        env = config.states[0].env
        env["bal"] = env["bal"].put("bob", 0)
    assert compare_states(etherstore, machine, config).startswith("estore.bal: ")


def test_rejection_names_its_cause():
    """A receivable message whose action is undefined is told apart from
    a message with no matching transition."""
    system, config = init_system(typecheck(parse_program(NEST)),
                                 [("nest", "Nest", {}, "alice")], 1)
    for letter, message in (
            (InputLetter("put", "bob", (Coin(1), "bob")),
             "'put' is receivable by 'nest' at state 'S', but its action is undefined"),
            (InputLetter("nope", "bob", ()),
             "'nope' is not receivable by 'nest' at state 'S'")):
        with pytest.raises(Rejected) as e:
            env_input(system, config, 0, letter)
        assert e.value.message == message


@pytest.mark.parametrize("contract,news", SYSTEMS)
def test_steps_leave_their_inputs_unchanged(contract, news, monkeypatch):
    """Both runtimes share values between states instead of copying them,
    which is sound only because no value changes in place: every cascade
    step and environment input leaves the instances it started from as
    they were, and a storage snapshot taken before a committed
    transaction reads the same after it."""
    prog = typecheck(parse_program(load(contract)))
    step_instance = asp.machine.step_instance
    stepped, committed = [], 0

    def checked_step(tc, inst, t, bindings, sender=None):
        before = inst.snapshot()
        res = step_instance(tc, inst, t, bindings, sender)
        assert inst.snapshot() == before, t.label()
        stepped.append(t)
        return res

    monkeypatch.setattr(asp.machine, "step_instance", checked_step)
    insts = instantiations(prog, news)
    system_ir = lower(prog, 1, 256)
    rng = random.Random(5)
    for _ in range(20):
        system, config = init_system(prog, insts, 1)
        machine = Machine(system_ir, insts)
        for item in random_items(prog, news, rng):
            before = [s.snapshot() for s in config.states]
            try:
                if isinstance(item, InputItem):
                    new_config, _ = env_input(
                        system, config, instance_index(system, item.instance, 0),
                        item.letter)
                else:
                    new_config, _ = wake_internal(
                        system, time_advance(system, config, item.delta)[0])
            except Rejected:
                new_config = config
            assert [s.snapshot() for s in config.states] == before
            config = new_config
            if not isinstance(item, InputItem):
                machine.advance(item.delta)
                machine.wake()
                continue
            snapshot = machine._snapshot()
            seen = {name: _canon(st.vars) for name, st in snapshot.items()}
            res = machine.transact(item.instance, item.msg, item.sender,
                                   tuple(map(flat, item.letter.args)))
            if res.committed:
                committed += 1
                assert {name: _canon(st.vars) for name, st in snapshot.items()} == seen
    assert stepped and committed


LOGGED_SEND = """
contract P(q: address) {
  msg poke(nat);
  var n: nat;
  initial S;
  state S:
  | a??poke(k) -> T { n = k; log!!poked(k); }
  state T:
  | -> S { log!!before(n); DEST!!ping(n); log!!after(n); }
}

contract Q() {
  msg ping(nat);
  var m: nat;
  initial A;
  state A:
  | b??ping(k) -> B { m = k; log!!got(k); }
  state B:
  | -> A { log!!back(m); }
}
"""


@pytest.mark.parametrize("dest, letters", [
    ("creator", [("log", "poked"), ("log", "before"), ("log", "after"),
                 ("send", "ping")]),
    ("q", [("log", "poked"), ("log", "before"), ("log", "after"), ("log", "got"),
           ("log", "back")]),
], ids=["external", "internal"])
def test_tau_arm_logs_come_before_its_send(dest, letters):
    """A tau arm that logs around its send emits its logs first, then
    the send's letters, on both routes: the cascade's event carries the
    arm's logs with its send, and a synchronized push carries all of the
    caller's logs before the callee's."""
    prog = typecheck(parse_program(LOGGED_SEND.replace("DEST", dest)))
    news, items = parse_script(
        "new q = Q() by alice\nnew p = P(q) by alice\ninput p poke(3) from bob\n")
    report = run_differential(prog, news, items, R=1, word_bits=256)
    assert report.clean and report.committed == 1, report.to_json()
    res = Machine(lower(prog), instantiations(prog, news)).transact("p", "poke", "bob", (3,))
    assert [(l.kind, l.msg) for l in res.letters] == letters


SPINNER = """
contract Spinner() {
  msg kick;
  initial A;
  state A:
  | x??kick -> B { }
  state B:
  | when true -> B { }
}
"""


def _asp(command: str, tmp_path, contract: str, script: str, flags=()):
    """`asp COMMAND` on the contract and script."""
    (tmp_path / "c.asp").write_text(contract, encoding="utf-8")
    (tmp_path / "c.aspscript").write_text(script, encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "asp.cli", command, str(tmp_path / "c.asp"), "--script",
         str(tmp_path / "c.aspscript"), "--out", str(tmp_path), *flags],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})


def _asp_diff_is_clean(tmp_path, contract: str, script: str, flags):
    """`asp diff` on the contract and script exits 0 with no divergence."""
    r = _asp("diff", tmp_path, contract, script, flags)
    assert r.returncode == 0, r.stdout
    out = json.loads(r.stdout)
    assert (out["status"], out["divergences"]) == ("ok", 0)


@pytest.mark.parametrize("flags", [(), ("--trials", "3")], ids=["script", "trials"])
def test_runaway_cascade_is_a_rejection(flags, tmp_path):
    """An input whose cascade never quiesces is not accepted, and the
    target reverts it (its tau closure diverges): `asp diff`, with a fixed
    script or with random trials, reports no divergence."""
    _asp_diff_is_clean(tmp_path, SPINNER,
                       "new s = Spinner() by alice\ninput s kick from bob\n", flags)


BRANCHING_SEND = """
contract Br() {
  msg go(nat);
  var n: nat;
  initial A;
  state A:
  | a??go(k) -> B { n = k; }
  state B:
  | when n > 0 -> A
    { n = n - 1;
      if n > 2 then { owner!!big(n); owner!!twice(n) } else { owner!!small(n) } }
}
"""


@pytest.mark.parametrize("flags", [(), ("--trials", "200")], ids=["script", "trials"])
def test_hop_before_a_branching_send(flags, tmp_path):
    """A tau with a statement before a branch that sends hops to a fresh
    state, where the branches split; the then-branch's second send hops
    again. The IR holds those taus, and `asp diff` finds both routes
    agree on them."""
    taus = lower(typecheck(parse_program(BRANCHING_SEND))).contracts["Br"].taus
    assert [(t.source, t.target) for arms in taus.values() for t in arms] == [
        ("B", "B_tau1__step1"), ("B_tau1__step1", "B_tau1__step2"),
        ("B_tau1__step1", "A"), ("B_tau1__step2", "A")]
    _asp_diff_is_clean(tmp_path, BRANCHING_SEND, "new b = Br() by alice\n"
                       "input b go(5) from bob\ninput b go(3) from bob\n", flags)


TIMER_SPINNER = """
contract TSpin() {
  msg kick;
  var t: timer;
  initial A;
  state A:
  | x??kick -> B { Timer.set(t, 1); }
  state B:
  | when Timer.has_fired(t) -> B { }
}
"""


@pytest.mark.parametrize("flags", [(), ("--trials", "5")], ids=["script", "trials"])
def test_runaway_wake_is_not_taken(flags, tmp_path):
    """A timer wake whose cascade never quiesces is not taken: the run
    goes on from the configuration the tick left, and the target's wake,
    whose tau closure diverges, reverts. `asp diff` reports no divergence
    where it used to abort with CascadeLimit at line 0."""
    _asp_diff_is_clean(tmp_path, TIMER_SPINNER,
                       "new s = TSpin() by alice\ninput s kick from bob\nadvance 2\n",
                       flags)


WAKER_AND_SPINNER = TIMER_SPINNER + """
contract Waker() {
  msg kick;
  var t: timer;
  initial A;
  state A:
  | x??kick -> B { Timer.set(t, 1); }
  state B:
  | when Timer.has_fired(t) -> C { }
  state C:
}
"""
WAKE_BOTH = ("new w = Waker() by alice\nnew s = TSpin() by alice\n"
             "input w kick from bob\ninput s kick from bob\nadvance 2\n")


@pytest.mark.parametrize("flags", [(), ("--trials", "5")], ids=["script", "trials"])
def test_runaway_wake_keeps_the_other_wakes(flags, tmp_path):
    """Each instance's wake is its own cascade, as on the target: the wake
    of `w`, deployed before the runaway `s`, is taken, and `asp diff`
    reports no state-mismatch on `w`."""
    _asp_diff_is_clean(tmp_path, WAKER_AND_SPINNER, WAKE_BOTH, flags)


def test_runaway_wake_excuses_only_its_own_revert(monkeypatch):
    """Next to a runaway wake, only the target's revert of it is excused:
    a wake of another instance that reverts for another reason is still
    a wake-failure."""
    wake = Machine.wake
    monkeypatch.setattr(Machine, "wake", lambda self: [
        dataclasses.replace(r, status="reverted", reason="UndefinedOp")
        if r.committed else r for r in wake(self)])
    news, items = parse_script(WAKE_BOTH)
    report = run_differential(typecheck(parse_program(WAKER_AND_SPINNER)),
                              news, items, R=1, word_bits=256)
    [d] = report.divergences
    assert (d.kind, d.item) == ("wake-failure", {"advance": 2}), report.to_json()
    assert "UndefinedOp" in d.detail


def test_simulate_reports_the_runaway_wake_at_its_line(tmp_path):
    """`asp simulate` still rejects the script at the advance whose wake
    runs away."""
    r = _asp("simulate", tmp_path, WAKER_AND_SPINNER, WAKE_BOTH)
    assert r.returncode == 1
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"]) == ("ScriptError", 5)
    assert "cascade exceeded" in diag["message"]


WHERE_DIVIDES = """
contract C(x: nat) where 10 / x > 1 {
  msg go;
  initial A;
  state A:
  | a??go -> A { }
}
"""
REFUSED_NEWS = {
    "where": ("new c = C(0) by alice\ninput c go() from bob\n", 1,
              "constructor constraint of C fails for 'c'"),
    "duplicate": ("new c = C(1) by alice\nnew c = C(1) by bob\ninput c go() from bob\n", 2,
                  "duplicate instance name 'c'"),
}


@pytest.mark.parametrize("command, flags", [("simulate", ()), ("diff", ()),
                                            ("diff", ("--trials", "2"))],
                         ids=["simulate", "diff", "diff-trials"])
@pytest.mark.parametrize("case", sorted(REFUSED_NEWS))
def test_refused_new_is_reported_at_its_line(case, command, flags, tmp_path):
    """A `new` whose constructor constraint fails (here: is undefined) or
    whose instance name is taken is a WhereClauseViolated at that `new`
    line, with exit 1."""
    script, line, message = REFUSED_NEWS[case]
    r = _asp(command, tmp_path, WHERE_DIVIDES, script, flags)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"], diag["col"]) == ("WhereClauseViolated", line, 1)
    assert diag["message"] == message


KEEPS_X = """
contract C(x: nat) {
  msg go;
  initial A;
  state A:
  | a??go -> A { }
}
"""


@pytest.mark.parametrize("command", ["simulate", "diff"])
@pytest.mark.parametrize("assertion, message", [
    ("10 / c.x == 1", "assertion is undefined"),
    ("c.x == 1", "assertion evaluated to False"),
], ids=["undefined", "false"])
def test_failed_assertion_is_reported_at_its_line(assertion, message, command, tmp_path):
    """A script assertion that is undefined (here: divides by zero) fails
    as undefined, and one that is false as false, at its line with exit
    1, in both runners."""
    script = f"new c = C(0) by alice\ninput c go() from bob\nassert {assertion}\n"
    r = _asp(command, tmp_path, KEEPS_X, script)
    assert r.returncode == 1
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"], diag["col"]) == ("ScriptError", 3, 1)
    assert diag["message"] == f"line 3: {message}"
