"""Defensive compilation: lowering shape, bounded interpretation, emission."""
import pytest

from asp.interp import Machine
from asp.lower import lower
from asp.parser import parse_program
from asp.solidity import emit_solidity, emit_system
from asp.typecheck import typecheck
from conftest import load

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
    assert [a.state for a in ir.methods["bid"]] == ["AuctionOpen"]
    assert [a.state for a in ir.methods["start"]] == ["StartAuction"]
    # ghosts are not compiled
    assert "bidded" not in ir.vars and "refunded" not in ir.vars
    from asp.ast_nodes import OpStmt
    for arms in ir.methods.values():
        for arm in arms:
            for s in arm.body:
                assert not (isinstance(s, OpStmt) and s.ns == "Map"
                            and "bidded" in repr(s))


def test_tau_arms_follow_textual_order(etherstore):
    ir = lower(etherstore, 1, 256).contracts["Etherstore"]
    assert [a.state for arms in ir.taus.values() for a in arms] == [
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


def test_golden_solidity(auction, tmp_path):
    from conftest import CORPUS
    golden = CORPUS / "golden" / "SimpleAuction.sol"
    text = emit_system(lower(auction, 1, 256))["SimpleAuction"]
    if not golden.exists():  # first run freezes the golden file
        golden.parent.mkdir(exist_ok=True)
        golden.write_text(text, encoding="utf-8")
    assert text == golden.read_text(encoding="utf-8")


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
