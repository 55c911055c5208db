"""Defensive compilation: lowering shape, bounded interpretation, emission."""
from dataclasses import replace
from pathlib import Path

import pytest

from asp import ast_nodes
from asp.ast_nodes import Assign, Var
from asp.interp import (
    _BINOPS, _BUILTINS, _EXPRS, _OPS, _STMTS, _WORD_OPS, Machine, Storage, _Builder,
)
from asp.lower import lower
from asp.parser import parse_expression, parse_program
from asp.pretty import _PREC
from asp.solidity import emit_solidity, emit_system
from asp.typecheck import _EXPR_BUILTINS, _STMT_OPS, typecheck
from asp.values import Undef
from conftest import load
from goldens import GOLDEN, SOURCES, outputs

ATTACK_NEWS = [("estore", "Etherstore", {}, "deployer"),
               ("attacker", "Attacker", {"estore": "estore"}, "mallory")]


def auction_machine(prog, R=1, word_bits=256, bt=10):
    sysir = lower(prog, R, word_bits)
    return Machine(sysir, [("auction", "SimpleAuction",
                            {"beneficiary": "bene", "bidding_time": bt},
                            "alice")])


# -- lowering -----------------------------------------------------------------


def test_auction_lowering_shape(auction):
    ir = lower(auction, 1, 256).contracts["SimpleAuction"]
    assert set(ir.methods) == {"start", "bid"}
    assert [a.source for a in ir.methods["bid"]] == ["AuctionOpen"]
    assert [a.source for a in ir.methods["start"]] == ["StartAuction"]
    # ghosts are not compiled
    assert "bidded" not in ir.vars and "refunded" not in ir.vars
    from asp.ast_nodes import OpStmt
    for arms in ir.methods.values():
        for arm in arms:
            for s in arm.action:
                assert not (isinstance(s, OpStmt) and s.ns == "Map"
                            and "bidded" in repr(s))


def test_tau_arms_follow_textual_order(etherstore):
    ir = lower(etherstore, 1, 256).contracts["Etherstore"]
    assert [a.source for arms in ir.taus.values() for a in arms] == [
        "WithdrawRequested", "ResetBalance", "GaveWithdrawal"]


def test_contract_without_taus_has_empty_closure(basic_coin):
    ir = lower(basic_coin, 1, 256).contracts["BasicCoin"]
    assert all(not arms for arms in ir.taus.values())


# -- interpretation -----------------------------------------------------------


def test_attack_commits_with_cascade_balances(etherstore):
    m = Machine(lower(etherstore, 1, 256), ATTACK_NEWS)
    res = m.transact("attacker", "send", "mallory", (5,))
    assert res.committed
    a, e = m.storages["attacker"], m.storages["estore"]
    assert (a.state, a.vars["loot"]) == ("AcceptReturn", 5)
    assert (e.state, e.vars["vault"], e.vars["bal"]["attacker"]) == \
        ("AcceptDeposit", 0, 0)


def test_attack_reverts_at_r0(etherstore):
    m = Machine(lower(etherstore, 0, 256), ATTACK_NEWS)
    pre = m.storage_hash()
    res = m.transact("attacker", "send", "mallory", (5,))
    assert res.status == "reverted" and res.reason == "ReentrancyLimit"
    assert m.storage_hash() == pre


def test_no_arm_reverts_guard_failed(auction):
    m = auction_machine(auction)
    res = m.transact("auction", "bid", "bob", (3,))  # still in StartAuction
    assert res.status == "reverted" and res.reason == "GuardFailed"


def test_overflow_reverts_at_small_words(etherstore):
    m = Machine(lower(etherstore, 1, 8), ATTACK_NEWS)
    assert m.transact("estore", "deposit", "alice", (100,)).committed
    # the second deposit pushes the int-typed balance past the signed word,
    # a step the ideal arithmetic of the abstract semantics permits
    pre = m.storage_hash()
    res = m.transact("estore", "deposit", "alice", (100,))
    assert res.status == "reverted" and res.reason == "Overflow"
    assert m.storage_hash() == pre


def test_reverted_storage_is_hash_identical(auction):
    m = auction_machine(auction)
    assert m.transact("auction", "start", "alice", ()).committed
    pre = m.storage_hash()
    res = m.transact("auction", "bid", "bene", (3,))  # notby beneficiary
    assert res.status == "reverted"
    assert m.storage_hash() == pre


def test_winner_letter_emitted_on_timeout(auction):
    m = auction_machine(auction, bt=2)
    assert m.transact("auction", "start", "alice", ()).committed
    assert m.transact("auction", "bid", "bob", (4,)).committed
    assert m.advance(2)
    results = m.wake()
    assert len(results) == 1 and results[0].committed
    (letter,) = [l for l in results[0].letters if l.kind == "send"]
    assert letter.msg == "winner" and letter.dest == "bene"
    assert letter.args == (4, "bob")
    assert m.storages["auction"].state == "AuctionClosed"


def test_ghost_erased_compile_equivalent(auction):
    """Compiling the ghost-erased source yields transaction-identical
    behavior (lowering erases ghosts anyway, so these must agree)."""
    from asp.typecheck import erase_ghosts
    erased = typecheck(erase_ghosts(parse_program(load("auction.asp"))))
    m1 = auction_machine(auction)
    m2 = auction_machine(erased)
    import random
    rng = random.Random(5)
    for _ in range(300):
        msg = rng.choice(["start", "bid"])
        sender = rng.choice(["alice", "bob", "bene"])
        args = (rng.randint(0, 9),) if msg == "bid" else ()
        r1 = m1.transact("auction", msg, sender, args)
        r2 = m2.transact("auction", msg, sender, args)
        assert (r1.status, r1.reason) == (r2.status, r2.reason)
        assert m1.storage_hash() == m2.storage_hash()


# -- Solidity emission --------------------------------------------------------


def test_emission_deterministic(auction):
    a = emit_system(lower(auction, 1, 256))
    b = emit_system(lower(auction, 1, 256))
    assert a == b


def test_auction_solidity_structure(auction):
    text = emit_system(lower(auction, 1, 256))["SimpleAuction"]
    assert "enum State { StartAuction, AuctionOpen, AuctionClosed" in text
    assert 'revert("no transition enabled")' in text
    assert "reentrancyCounter" in text
    assert "function tauClosure() private" in text
    assert ".call{value:" in text
    assert 'require(heldCoins() == coinLedger, "coin conservation")' in text


def test_log_send_becomes_event():
    src = load("auction.asp") + """
contract Beneficiary(auction: address) {
  msg winner(coin, address);
  var takings: coin;
  initial AcceptBid;
  state AcceptBid:
  | a??winner(amt, addr) by auction -> FinalState {
      log!!final_winner(Coin.value(amt));
      Coin.moveall(amt, takings);
    }
  state FinalState:
}
"""
    prog = typecheck(parse_program(src))
    text = emit_system(lower(prog, 1, 256))["Beneficiary"]
    assert "event LogFinal_winner(uint256 a0);" in text
    assert "emit LogFinal_winner(" in text


def test_implication_is_spelled_for_solidity():
    """Solidity has no `==>`: a guard or a value that reads it is emitted
    as `(!a || b)`. Emission raised KeyError on it."""
    prog = typecheck(parse_program("""
contract Imp() {
  msg go;
  var a: bool;
  var b: bool;
  initial A;
  state A:
  | x??go when a ==> b -> A { a = b ==> a; }
}
"""))
    text = emit_system(lower(prog, 1, 256))["Imp"]
    assert "if ((!a || b)) {" in text
    assert "a = (!b || a);" in text


def test_send_calls_the_function_the_receiver_declares():
    """A send encodes the receiver's ABI signature: coins travel as
    msg.value and are drained before the call, tokens travel as amounts
    read before they are drained, and addresses are `address`."""
    prog = typecheck(parse_program("""
contract Payer(to: address) {
  msg go(coin, nat);
  var pot: coin;
  var bag: token;
  initial S;
  state S:
  | a??go(c, n) -> S { Coin.moveall(c, pot); to!!pay(pot, n, a); to!!gift(bag); }
}
contract Payee() {
  msg pay(coin, nat, address);
  msg gift(token);
  var held: coin;
  var mine: token;
  var last: address;
  initial S;
  state S:
  | p??pay(c, n, who) -> S { Coin.moveall(c, held); last = who; }
  | p??gift(t) -> S { Token.moveall(t, mine); }
}
"""))
    texts = emit_system(lower(prog, 1, 256))
    assert "function pay(uint256 m1, address payable m2) external payable" \
        in texts["Payee"]
    assert "function gift(uint256 m0) external defended" in texts["Payee"]
    payer = [line.strip() for line in texts["Payer"].splitlines()]
    pay = payer.index("uint256 callValue = pot;")
    assert payer[pay + 1:pay + 4] == [
        "pot = 0;", "coinLedger -= callValue;",
        '(bool ok, ) = to.call{value: callValue}(abi.encodeWithSignature('
        '"pay(uint256,address)", z_S_go0_n, z_S_go0_a));']
    gift = payer.index("uint256 tokens0 = bag;")
    assert payer[gift + 1:gift + 4] == [
        "bag = 0;", "coinLedger -= callValue;",
        '(bool ok, ) = to.call{value: callValue}(abi.encodeWithSignature('
        '"gift(uint256)", tokens0));']


def test_token_contract_has_supply_ledger(basic_coin):
    text = emit_system(lower(basic_coin, 1, 256))["BasicCoin"]
    assert "tokenSupplyRemaining = 1000" in text
    assert "requireSupply(" in text


# The Solidity of every contract that diff_fuzz emits, frozen: (source, contract).
GOLDEN_SOLIDITY = [("auction.asp", "SimpleAuction"),
                   ("etherstore_attack.asp", "Etherstore"),
                   ("etherstore_attack.asp", "Attacker"),
                   ("vending_fixed.asp", "VendingMachine"),
                   ("basic_coin.asp", "BasicCoin")]


@pytest.mark.parametrize("source, name", GOLDEN_SOLIDITY, ids=[n for _, n in GOLDEN_SOLIDITY])
def test_golden_solidity(source, name):
    from conftest import CORPUS, typed
    text = emit_system(lower(typed(source), 1, 256))[name]
    assert text == (CORPUS / "golden" / f"{name}.sol").read_text(encoding="utf-8")


@pytest.mark.parametrize("source", SOURCES, ids=[Path(s).stem for s in SOURCES])
def test_golden_ir_dump(source):
    name = f"{Path(source).stem}.ir.json"
    assert outputs(source)[name] == (GOLDEN / name).read_text(encoding="utf-8")


def test_undefined_op_reverts():
    prog = typecheck(parse_program("""
contract Div() {
  msg calc(nat, nat);
  var out: nat;
  initial S;
  state S:
  | a??calc(x, y) -> S { out = x / y; }
}
"""))
    m = Machine(lower(prog, 1, 256), [("d", "Div", {}, "al")])
    assert m.transact("d", "calc", "al", (6, 2)).committed
    assert m.storages["d"].vars["out"] == 3
    res = m.transact("d", "calc", "al", (6, 0))
    assert res.status == "reverted" and res.reason == "UndefinedOp"


GATE = """
contract Gate(peer: address) {
  msg set(nat), poke(nat), ask, go;
  var n: nat;
  var m: nat;
  initial S;
  state S:
  | a??set(k) -> S { n = k; m = k + k; }
  | a??poke(k) when k + 200 > 0 -> S { n = k; }
  | a??go -> Calling { }
  state Calling:
  | -> S { peer!!ask; }
  | -> Done { n = 7; }
  state Done:
  | a??ask -> Done { }
}
"""


def test_dispatch_revert_writes_nothing(monkeypatch):
    """A transaction that no arm takes, or whose guard overflows, reverts
    at dispatch with its reason, before any snapshot, and leaves storage
    as it was; one that reverts after its arm is chosen is rolled back."""
    m = Machine(lower(typecheck(parse_program(GATE)), 1, 8),
                [("g", "Gate", {"peer": "h"}, "al"), ("h", "Gate", {"peer": "g"}, "al")])
    snapshots = []
    snapshot = Machine._snapshot
    monkeypatch.setattr(Machine, "_snapshot", lambda self: snapshots.append(1) or snapshot(self))
    pre = m.storage_hash()
    for msg, args, reason in (("ask", (), "GuardFailed"), ("poke", (100,), "Overflow")):
        res = m.transact("g", msg, "bob", args)
        assert (res.status, res.reason) == ("reverted", reason)
        assert m.storage_hash() == pre and not snapshots
    res = m.transact("g", "set", "bob", (200,))  # writes n, then overflows
    assert (res.status, res.reason) == ("reverted", "Overflow")
    assert m.storage_hash() == pre and snapshots


CLOCK = """
contract Clock() {
  msg arm(nat);
  var t: timer;
  var k: int;
  initial S;
  state S:
  | a??arm(d) -> S { Timer.set(t, d); }
  | when Timer.has_fired(t) -> Rung { }
  | when Timer.value(t) * k > 0 -> S { }
  state Rung:
}
"""


def test_wake_snapshots_only_an_instance_with_an_enabled_tau(monkeypatch):
    """`wake` runs the tau closure of each instance; one whose tau guards
    are all false or undefined is passed over without a snapshot, and one
    whose guard overflows reverts without one."""
    m = Machine(lower(typecheck(parse_program(CLOCK)), 1, 8),
                [("c", "Clock", {}, "al"), ("d", "Clock", {}, "al")])
    snapshots = []
    snapshot = Machine._snapshot
    monkeypatch.setattr(Machine, "_snapshot", lambda self: snapshots.append(1) or snapshot(self))
    assert m.wake() == [] and not snapshots  # both timers off
    assert m.transact("c", "arm", "bob", (2,)).committed and m.advance(3)
    snapshots.clear()
    res = m.wake()  # c has fired; d is passed over
    assert [r.status for r in res] == ["committed"] and len(snapshots) == 2
    assert (m.storages["c"].state, m.storages["d"].state) == ("Rung", "S")
    d = m.storages["d"]
    d.vars["t"], d.vars["k"] = ("active", 50), 100
    snapshots.clear()
    res = m.wake()  # d's value guard overflows at 8 bits
    assert [(r.status, r.reason) for r in res] == [("reverted", "Overflow")]
    assert not snapshots


def test_refused_tau_send_tries_the_next_tau_arm():
    """A nested call that no arm of the callee takes fails softly inside
    the tau closure: the sending tau arm rolls back and the next is run."""
    m = Machine(lower(typecheck(parse_program(GATE)), 1, 256),
                [("g", "Gate", {"peer": "h"}, "al"), ("h", "Gate", {"peer": "g"}, "al")])
    res = m.transact("g", "go", "bob", ())
    assert res.committed and res.letters == []
    g, h = m.storages["g"], m.storages["h"]
    assert (g.state, g.vars["n"], h.state) == ("Done", 7, "S")


def _subclasses(base) -> set:
    return {c for c in vars(ast_nodes).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base}


def test_closure_builders_cover_the_language(etherstore):
    """The IR's closure builders have a rule for every node class,
    operator, builtin and statement operation that the typechecker admits,
    and a machine builds its closures once: a fork shares them. Contract
    code holds no quantifier (test_quantifier_in_contract_code_rejected)."""
    assert _subclasses(ast_nodes.Expr) - {ast_nodes.Quant} <= set(_EXPRS)
    assert _subclasses(ast_nodes.Stmt) <= set(_STMTS)
    assert set(_PREC) <= set(_BINOPS) | set(_WORD_OPS)
    accesses = {("Map", "get"), ("Map", "ref"), ("Map", "in"), ("Seq", "get"), ("Seq", "ref"),
                ("Tuple", "get"), ("Tuple", "ref"), ("Address", "none"), ("Address", "self")}
    assert set(_EXPR_BUILTINS) | accesses <= set(_BUILTINS)
    assert set(_STMT_OPS) <= set(_OPS)
    m = Machine(lower(etherstore, 1, 256), ATTACK_NEWS)
    assert m.fork().code is m.code


PROBE = """
contract Probe() {
  msg go, run, lazy, add(nat), neg(nat);
  var x: nat;
  var ok: bool;
  initial A;
  state A:
  | a??go when 1 / 0 == 0 && true -> A { }
  | a??run -> A { ok = 1 / 0 == 0 && true; }
  | a??lazy -> A { ok = false && x / 0 == 0; }
  | a??add(n) -> A { ok = n + n > 0; }
  | a??neg(n) -> A { ok = -n < 0; }
}
"""


def test_ir_errors_and_lookup_order():
    """An undefined guard leaves its arm disabled, and an undefined body
    reverts with UndefinedOp; the connectives are strict; a name is a
    binding, then `owner`, then `creator`, then a variable, else
    undefined; `+` and unary minus overflow past the word."""
    sysir = lower(typecheck(parse_program(PROBE)), 1, 8)
    m = Machine(sysir, [("p", "Probe", {}, "al")])
    for msg, args, reason in (("go", (), "GuardFailed"), ("run", (), "UndefinedOp"),
                              ("lazy", (), "UndefinedOp"), ("add", (200,), "Overflow"),
                              ("neg", (200,), "Overflow")):
        res = m.transact("p", msg, "bob", args)
        assert (res.status, res.reason) == ("reverted", reason), msg
    assert m.transact("p", "add", "bob", (100,)).committed
    assert m.transact("p", "neg", "bob", (100,)).committed
    ir = sysir.contracts["Probe"]
    bd = _Builder(ir, 8)
    st = Storage("Probe", "p", "A", {"owner": "Z", "creator": "Z", "x": 1}, "O", "C")
    assert bd.expr(Var("owner"), frozenset({"owner"}))(st, {"owner": "B"}) == "B"
    assert [bd.expr(Var(n), frozenset())(st, {}) for n in ("owner", "creator", "x")] \
        == ["O", "C", 1]
    with pytest.raises(Undef):
        bd.expr(Var("y"), frozenset())(st, {})
    with pytest.raises(Undef):
        bd.expr(parse_expression("1 / 0 && true"), frozenset())(st, {})
    # an unknown name in a body reverts the transaction with UndefinedOp
    [arm] = ir.methods["run"]
    ir.methods["run"] = [replace(arm, action=(Assign("ok", Var("y")),))]
    res = Machine(sysir, [("p", "Probe", {}, "al")]).transact("p", "run", "bob", ())
    assert (res.status, res.reason) == ("reverted", "UndefinedOp")
