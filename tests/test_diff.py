"""Differential testing of the compiled interpreter against the cascade."""
import pytest

from asp.diff import differential_check, run_differential
from asp.parser import parse_program
from asp.script import NewItem, parse_script
from asp.typecheck import typecheck
from conftest import load

AUCTION_NEWS = [NewItem("auction", "SimpleAuction", ("bene", 10), "alice", 0)]
ATTACK_NEWS = [NewItem("estore", "Etherstore", (), "deployer", 0),
               NewItem("attacker", "Attacker", ("estore",), "mallory", 0)]


def test_empty_script_trivially_equivalent(auction):
    report = run_differential(auction, AUCTION_NEWS, [], R=1, word_bits=256)
    assert report.clean and report.items == 0


def test_replayed_happy_path(auction):
    news, items = parse_script(load("auction_happy.aspscript"))
    items = [i for i in items if not getattr(i, "expect_reject", False)
             and type(i).__name__ in ("InputItem", "AdvanceItem")]
    report = run_differential(auction, news, items, R=1, word_bits=256)
    assert report.clean, report.to_json()
    assert report.committed >= 4


def test_attack_scenario_matches(etherstore):
    news, items = parse_script(load("etherstore_attack.aspscript"))
    items = [i for i in items if type(i).__name__ == "InputItem"]
    report = run_differential(etherstore, news, items, R=1, word_bits=256)
    assert report.clean, report.to_json()
    assert report.committed == 1


@pytest.mark.parametrize("contract,news", [
    ("auction.asp", AUCTION_NEWS),
    ("etherstore_attack.asp", ATTACK_NEWS),
    ("vending_fixed.asp", [NewItem("vm", "VendingMachine", (), "own", 0)]),
    ("basic_coin.asp", [NewItem("bank", "BasicCoin", (), "own", 0)]),
])
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


def test_divergence_report_carries_reproduction(auction):
    """A deliberately broken comparison: run the cascade at a different R
    than the target and check that a divergence report includes a script."""
    from asp.diff import DiffReport
    report = differential_check(auction, AUCTION_NEWS, R=1, word_bits=256,
                                trials=5, seed=1)
    assert report.clean  # sanity: same-R runs stay clean
    assert report.to_json().startswith("{")


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
