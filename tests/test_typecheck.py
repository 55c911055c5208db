"""Type checking: error taxonomy, ghost discipline, normalization."""
import pytest

from asp.ast_nodes import Binop, children, stmt_exprs
from asp.diagnostics import TypecheckError
from asp.parser import parse_program
from asp.typecheck import erase_ghosts, typecheck
from asp.values import ADDR_NONE
from conftest import CORPUS, load


def check(src: str):
    return typecheck(parse_program(src))


def expect_error(src: str, code: str):
    with pytest.raises(TypecheckError) as exc:
        check(src)
    assert exc.value.code == code, exc.value.message
    return exc.value


def test_corpus_is_well_typed(auction, etherstore, vending_fixed, basic_coin):
    assert auction.contract("SimpleAuction").has_timers()
    assert not vending_fixed.contract("VendingMachine").has_timers()


def test_winner_signature_matches_across_contracts():
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
    prog = check(src)
    assert prog.msg_universe["winner"][0].kind == "coin"
    assert prog.msg_universe["winner"][1].kind == "address"


def test_signature_mismatch_across_contracts():
    expect_error("""
contract A() { msg ping(nat); initial S; state S: | x??ping(n) -> S { } }
contract B() { msg ping(address); initial S; state S: | x??ping(a) -> S { } }
""", "SignatureMismatch")


def test_ghost_in_when_guard_rejected():
    expect_error("""
contract C() {
  msg poke;
  ghost var seen: int;
  initial A;
  state A:
  | x??poke when seen > 0 -> A { }
}
""", "GhostLeak")


def test_ghost_flow_into_state_rejected():
    expect_error("""
contract C() {
  msg poke;
  var count: int;
  ghost var seen: int;
  initial A;
  state A:
  | x??poke -> A { count = seen + 1; }
}
""", "GhostLeak")


def test_ghost_in_message_rejected():
    expect_error("""
contract C() {
  msg poke;
  ghost var seen: int;
  initial A;
  state A:
  | x??poke -> A { x!!echo(seen); }
}
""", "GhostLeak")


def test_ghost_update_may_read_real_state():
    prog = check("""
contract C() {
  msg poke(nat);
  var count: int;
  ghost var seen: int;
  initial A;
  state A:
  | x??poke(n) -> A { count = count + 1; seen = count + n; }
}
""")
    assert prog.contract("C").ghost_names() == {"seen"}


def test_coin_dropped_on_empty_action():
    err = expect_error("""
contract C() {
  msg pay(coin);
  initial S;
  state S:
  | a??pay(c) -> S { }
}
""", "CoinDropped")
    assert "c" in err.message


def test_coin_dropped_on_one_branch():
    expect_error("""
contract C() {
  msg pay(coin);
  var bank: coin;
  initial S;
  state S:
  | a??pay(c) -> S { if Coin.value(c) > 0 then Coin.moveall(c, bank); }
}
""", "CoinDropped")


def test_coin_consumed_on_all_branches_accepted():
    check("""
contract C() {
  msg pay(coin);
  var bank, reserve: coin;
  initial S;
  state S:
  | a??pay(c) -> S {
      if Coin.value(c) > 2 then Coin.moveall(c, bank)
      else Coin.moveall(c, reserve);
    }
}
""")


def test_ref_required_for_map_entries():
    expect_error("""
contract C() {
  msg pay(coin);
  var bank: map[address, coin];
  initial S;
  state S:
  | a??pay(c) -> S { Coin.moveall(c, Map.get(bank, a)); }
}
""", "RefRequired")


def test_unknown_target_state():
    expect_error(
        "contract C() { msg m; initial A; state A: | x??m -> Nowhere { } }",
        "UnknownState")


def test_timer_nesting_rejected():
    expect_error(
        "contract C() { var ts: map[address, timer]; initial A; state A: }",
        "TypeError")


def test_issue_requires_issuer():
    expect_error("""
contract C() {
  msg m;
  var pot: token;
  initial A;
  state A:
  | x??m -> A { Token.issue(1, pot); }
}
""", "TypeError")


def test_access_guard_needs_input():
    expect_error("""
contract C() {
  var boss: address;
  initial A;
  state A:
  | when true by boss -> A { }
}
""", "TypeError")


# -- container access: one rule for Map/Seq/Tuple get, in, ref and set -------

ACCESS = """
contract Box() {
  msg go(nat, address, bool), got(coin), put(nat);
  var m: map[address, nat];
  var s: seq[nat];
  var t: tuple[nat, address];
  var mc: map[address, coin];
  var sc: seq[coin];
  var tc: tuple[nat, coin];
  var mt: map[nat, tuple[coin, nat]];
  var c: coin;
  var n: nat;
  var b: bool;
  initial A;
  state A:
  | a??go(x, y, f) -> A {
    %s
  }
}
"""

TUPLE_INDEX = "index must be an integer literal below 2"


@pytest.mark.parametrize("stmt, access, message", [
    # get and in
    ("n = Map.get(s, y);", "Map.get(s, y)", "Map.get applies to a map, got seq[nat]"),
    ("n = Map.get(m, f);", "Map.get(m, f)", "Map.get key has type bool, expected address"),
    ("b = Map.in(y, s);", "Map.in(y, s)", "Map.in applies to a map, got seq[nat]"),
    ("b = Map.in(x, m);", "Map.in(x, m)", "Map.in key has type nat, expected address"),
    ("n = Seq.get(m, x);", "Seq.get(m, x)", "Seq.get applies to a seq, got map[address, nat]"),
    ("n = Seq.get(s, f);", "Seq.get(s, f)", "Seq.get index has type bool, expected int or nat"),
    ("n = Tuple.get(s, 0);", "Tuple.get(s, 0)", "Tuple.get applies to a tuple, got seq[nat]"),
    ("n = Tuple.get(t, 2);", "Tuple.get(t, 2)", f"Tuple.get {TUPLE_INDEX}"),
    ("n = Tuple.get(t, x);", "Tuple.get(t, x)", f"Tuple.get {TUPLE_INDEX}"),
    # ref, as a move operand and as a send argument
    ("Coin.moveall(c, Map.ref(sc, y));", "Map.ref(sc, y)",
     "Map.ref applies to a map, got seq[coin]"),
    ("Coin.moveall(c, Map.ref(mc, x));", "Map.ref(mc, x)",
     "Map.ref key has type nat, expected address"),
    ("Coin.moveall(c, Seq.ref(mc, x));", "Seq.ref(mc, x)",
     "Seq.ref applies to a seq, got map[address, coin]"),
    ("a!!got(Seq.ref(sc, y));", "Seq.ref(sc, y)",
     "Seq.ref index has type address, expected int or nat"),
    ("Coin.moveall(c, Tuple.ref(sc, 0));", "Tuple.ref(sc, 0)",
     "Tuple.ref applies to a tuple, got seq[coin]"),
    ("Coin.moveall(c, Tuple.ref(tc, 2));", "Tuple.ref(tc, 2)", f"Tuple.ref {TUPLE_INDEX}"),
    ("a!!got(Tuple.ref(tc, x));", "Tuple.ref(tc, x)", f"Tuple.ref {TUPLE_INDEX}"),
    ("Coin.moveall(c, Tuple.ref(tc, true));", "Tuple.ref(tc, true)",
     f"Tuple.ref {TUPLE_INDEX}"),
    # set
    ("Map.set(s, y, 1);", "Map.set(s, y, 1)", "Map.set applies to a map, got seq[nat]"),
    ("Map.set(m, x, 1);", "Map.set(m, x, 1)", "Map.set key has type nat, expected address"),
    ("Seq.set(m, 0, 1);", "Seq.set(m, 0, 1)", "Seq.set applies to a seq, got map[address, nat]"),
    ("Seq.set(s, f, 1);", "Seq.set(s, f, 1)", "Seq.set index has type bool, expected int or nat"),
    ("Tuple.set(s, 0, 1);", "Tuple.set(s, 0, 1)", "Tuple.set applies to a tuple, got seq[nat]"),
    ("Tuple.set(t, 2, 1);", "Tuple.set(t, 2, 1)", f"Tuple.set {TUPLE_INDEX}"),
    ("Tuple.set(t, true, y);", "Tuple.set(t, true, y)", f"Tuple.set {TUPLE_INDEX}"),
])
def test_container_access_rule(stmt, access, message):
    """Every access form on every container kind goes through one rule:
    the container kind, the key or index type and the tuple index are
    checked alike, and the error points at the access. A `true` tuple
    index is not the integer 1."""
    src = ACCESS % stmt
    line = src.splitlines().index(f"    {stmt}") + 1
    e = expect_error(src, "TypeError")
    assert (e.pos.line, e.pos.col, e.message) == (line, 5 + stmt.index(access), message)


@pytest.mark.parametrize("stmt", [
    "Coin.moveall(c, Tuple.ref(Map.ref(mt, x - n), 0));",
    "a!!got(Tuple.ref(Map.ref(mt, x - n), 0));",
    "a!!put(x - n);",
])
def test_access_base_is_annotated(stmt):
    """The checked base of an access is the one the checker returns, so a
    nat subtraction under Tuple.ref becomes the partial `-nat`; checking a
    send's annotated arguments again for its signature accepts `-nat`."""
    def binops(e):
        own = [e.op] if isinstance(e, Binop) else []
        return own + [o for c in children(e) for o in binops(c)]

    action = check(ACCESS % stmt).contract("Box").transitions[0].action
    assert [o for e in stmt_exprs(action) for o in binops(e)] == ["-nat"]


# -- statement operations: one role table --------------------------------------

OPS = """
contract Ops() issues Token(3) {
  msg go(address, nat);
  var c: coin;
  var k: token;
  var t: timer;
  var n: nat;
  var m: map[address, nat];
  var s: seq[nat];
  var tp: tuple[nat, bool];
  initial A;
  state A:
  | x??go(y, z) -> A {
    %s
  }
}
"""


@pytest.mark.parametrize("stmt, code, message", [
    ("Coin.move(c, true, c);", "TypeError", "Coin.move amount must be numeric"),
    ("Coin.moveall(c, n);", "TypeError", "Coin.moveall operand has type nat, expected coin"),
    ("Token.issue(1, Map.get(m, x));", "RefRequired",
     "Token.issue operand must be a variable or a Map/Seq/Tuple ref "
     "(container copies cannot be moved)"),
    ("Token.burn(c, 1);", "TypeError", "Token.burn operand has type coin, expected token"),
    ("Token.move(k, y, k);", "TypeError", "Token.move amount must be numeric"),
    ("Token.moveall(k, 1);", "RefRequired",
     "Token.moveall operand must be a variable or a Map/Seq/Tuple ref "
     "(container copies cannot be moved)"),
    ("Timer.set(t, y);", "TypeError", "Timer.set duration must be numeric"),
    ("Timer.reset(n);", "TypeError", "Timer.reset applies to a timer variable"),
    ("Map.set(m, x, true);", "TypeError", "Map.set value has type bool, expected nat"),
    ("Seq.set(s, y, 1);", "TypeError", "Seq.set index has type address, expected int or nat"),
    ("Seq.append(s, y);", "TypeError", "Seq.append value has type address, expected nat"),
    ("Tuple.set(tp, 1, 1);", "TypeError", "Tuple.set value has type nat, expected bool"),
    ("Address.change_owner(n);", "TypeError", "Address.change_owner takes an address"),
    ("Coin.value(c);", "TypeError", "Coin.value is not a statement"),
    ("Coin.move(c, 1);", "TypeError", "Coin.move takes 3 argument(s)"),
])
def test_operation_operand_roles(stmt, code, message):
    """Each statement operation checks its operands by their roles: a
    written coin, token or timer location, a numeric amount or duration,
    an address, or a container index and value. The error points at the
    statement."""
    e = expect_error(OPS % stmt, code)
    assert (e.code, e.pos.line, e.pos.col, e.message) == (code, 14, 5, message)


# -- normalization ----------------------------------------------------------


def test_bid_transition_splits_once(auction):
    tc = auction.contract("SimpleAuction")
    assert len(tc.transitions) == 3
    assert len(tc.norm_transitions) == 4
    fresh = set(tc.norm_states) - set(tc.source_states)
    assert len(fresh) == 1
    # the input arm is send-free; the tau arm carries the refund send
    arms = {t.label(): t for t in tc.norm_transitions}
    from asp.ast_nodes import Send
    for t in tc.norm_transitions:
        sends = [s for s in t.action if isinstance(s, Send) and not s.is_log]
        if t.input is not None:
            assert not sends
        else:
            assert len(sends) <= 1


def test_stash_variables_carry_binders(auction):
    tc = auction.contract("SimpleAuction")
    stashes = [v for v in tc.vars.values() if v.synthetic]
    assert {v.typ.kind for v in stashes} == {"address", "coin"}


def test_already_normal_contracts_untouched(etherstore):
    for name in ("Etherstore", "Attacker"):
        tc = etherstore.contract(name)
        assert tc.norm_states == tc.source_states
        assert len(tc.norm_transitions) == len(tc.transitions)


def test_multi_send_tau_splits():
    prog = check("""
contract C() {
  msg go;
  var x, y: address;
  initial A;
  state A:
  | when true -> B { x!!ping; y!!pong; }
  state B:
}
""")
    tc = prog.contract("C")
    assert len(tc.norm_transitions) == 2
    assert len(tc.norm_states) == 3


ALTERNATIVES = """
contract Alt() {
  msg go(nat);
  var n: nat;
  initial S;
  state S:
  | a??go(k) when k > 1 -> S { n = 1; }
  | a??go(k) -> S { n = 2; }
  | when n == 1 -> T { n = 3; }
  | when n == 2 -> T { }
  state T:
}
"""


@pytest.mark.parametrize("path", [*sorted(CORPUS.glob("*.asp")), None],
                         ids=lambda p: p.name if p else "alternatives")
def test_reception_table_lists_receivers_in_order(path):
    """The reception table's entry for (state, msg) is every normalized
    transition from that state receiving msg, in transition order, and
    for (state, None) every tau from it; on every corpus contract, and on
    one with two arms for a message and two taus at one state."""
    prog = check(path.read_text(encoding="utf-8") if path else ALTERNATIVES)
    for tc in prog.contracts.values():
        for state in tc.norm_states:
            for msg in (None, *prog.msg_universe):
                want = [t for t in tc.norm_transitions if t.source == state
                        and (t.input is None if msg is None
                             else t.input is not None and t.msg == msg)]
                assert list(tc.reception_table.get((state, msg), ())) == want, (state, msg)


# -- ghost erasure -----------------------------------------------------------


def test_ghost_erasure_well_typed(auction):
    src = parse_program(load("auction.asp"))
    erased = erase_ghosts(src)
    prog = typecheck(erased)
    tc = prog.contract("SimpleAuction")
    assert tc.ghost_names() == frozenset()
    # the bid action lost its two ghost map updates
    bid = [t for t in tc.transitions if t.msg == "bid"][0]
    orig_bid = [t for t in auction.contract("SimpleAuction").transitions
                if t.msg == "bid"][0]
    assert len(bid.action) == len(orig_bid.action) - 2


@pytest.mark.parametrize("site", [
    "when forall b: nat : b == b -> A",
    "-> A { ok = exists b: bool : b; }",
])
def test_quantifier_in_contract_code_rejected(site):
    """Contract code holds no quantifier, so the IR's closure builders
    need no rule for one."""
    err = expect_error("contract C() { msg go; var ok: bool; initial A; "
                       f"state A: | a??go {site} }}", "TypeError")
    assert err.message == "quantifiers are not allowed in contract code"


def _minimal(decls="", arm="a??go -> A { }", head="C()", initial="A", extra=""):
    """A one-state contract: the head on line 1, `decls` on line 3 and
    `arm` on line 6, then `extra` after the contract."""
    return (f"contract {head} {{\n  msg go, put(nat);\n  {decls}\n  initial {initial};\n"
            f"  state A:\n  | {arm}\n}}\n{extra}")


@pytest.mark.parametrize("parts, code, message, line", [
    # declarations
    (dict(head="C(x: nat, x: nat)"), "TypeError", "bad parameter name 'x'", 1),
    (dict(head="C(x: nat) where x"), "TypeError", "where clause must be bool", 1),
    (dict(head="C(x: nat) issues Token(x)"), "TypeError",
     "token issue limit must be a literal nat", 1),
    (dict(initial="B"), "UnknownState", "initial state 'B' is not declared", 1),
    (dict(decls="var n: nat; var n: nat;"), "TypeError", "duplicate or reserved variable 'n'", 3),
    (dict(decls="ghost var g: coin;"), "GhostLeak",
     "ghost variable 'g' may not hold coins, tokens, or timers", 3),
    (dict(decls="var n: nat default 0;"), "TypeError", "default applies to map variables", 3),
    (dict(decls="var m: map[address, nat] default true;"), "TypeError",
     "default must be a literal of type nat", 3),
    (dict(decls="var m: map[address, nat] default -1;"), "TypeError",
     "default must be a literal of type nat", 3),
    (dict(decls="var m: map[address, nat] := 1;"), "TypeError",
     "map[address, nat] variables cannot take initializers", 3),
    (dict(decls="var n: nat := true;"), "TypeError",
     "initializer for 'n' has type bool, expected nat", 3),
    (dict(decls="msg go;"), "TypeError", "message 'go' declared twice", 3),
    (dict(decls="msg m(seq[coin]);"), "TypeError",
     "message 'm' carries coins/tokens inside a container", 3),
    (dict(decls="msg m(timer);"), "TypeError", "message 'm' carries a timer", 3),
    (dict(arm="a??go -> A { }\n  state A:"), "TypeError", "duplicate state 'A'", 7),
    # transition heads
    (dict(arm="a??put -> A { }"), "SignatureMismatch",
     "input guard for 'put' binds 0 parameter(s), signature has 1", 6),
    (dict(decls="var n: nat;", arm="n??go -> A { }"), "TypeError",
     "sender match 'n' is not address-typed", 6),
    (dict(decls="ghost var g: address;", arm="g??go -> A { }"), "GhostLeak",
     "ghost state used to match a sender", 6),
    (dict(decls="var n: nat;", arm="a??put(n) -> A { }"), "TypeError",
     "message binder 'n' shadows an existing name", 6),
    (dict(arm="a??go when 1 -> A { }"), "TypeError", "when guard must be bool", 6),
    (dict(decls="ghost var g: address;", arm="a??go by g -> A { }"), "GhostLeak",
     "ghost state used in an access guard", 6),
    (dict(arm="a??go by 1 -> A { }"), "TypeError", "by guard must be an address", 6),
    # statements
    (dict(head="C(x: nat)", arm="a??go -> A { x = 1; }"), "TypeError",
     "cannot assign to 'x'", 6),
    (dict(arm="a??go -> A { z = 1; }"), "TypeError", "assignment to undeclared variable 'z'", 6),
    (dict(decls="var c: coin;", arm="a??go -> A { c = c; }"), "TypeError",
     "coin variables change only through their abstract operations", 6),
    (dict(decls="var n: nat;", arm="a??go -> A { n = true; }"), "TypeError",
     "cannot assign bool to n: nat", 6),
    (dict(decls="var n: nat;", arm="a??go -> A { n!!go(); }"), "TypeError",
     "send destination must be an address", 6),
    (dict(decls="msg pay(coin);", arm="a??pay(c) -> A { log!!ev(c); }"), "TypeError",
     "log messages cannot carry coins or tokens", 6),
    (dict(decls="var cm: map[address, coin];", arm="a??go -> A { a!!m(Map.get(cm, a)); }"),
     "RefRequired", "coin/token message arguments must be variables or refs", 6),
    (dict(decls="var cm: map[address, coin];", arm="a??go -> A { a!!m(cm); }"), "TypeError",
     "message argument carries nested resources", 6),
    (dict(decls="var n: nat;", arm="a??go -> A { Seq.append(n, 1); }"), "TypeError",
     "Seq.append applies to a seq, got nat", 6),
    (dict(decls="var ms: map[address, seq[nat]];",
          arm="a??go -> A { Seq.append(Map.get(ms, a), 1); }"), "TypeError",
     "Seq.append applies to a variable", 6),
    (dict(decls="var cm: map[address, coin];", arm="a??go -> A { Map.set(cm, a, 1); }"),
     "RefRequired", "coin/token entries change only through moves on Map.ref", 6),
    (dict(decls="var n: nat; ghost var g: nat;", arm="a??go -> A { if g > 0 then { n = 1; } }"),
     "GhostLeak", "ghost state controls a branch with non-ghost effects", 6),
    (dict(extra="contract D() {\n  msg go;\n  initial S;\n  state S:\n"
                "  | a??go -> S { a!!put(true); }\n}\n"), "SignatureMismatch",
     "send put(bool) in D does not match put(nat) declared in C", 12),
    # expressions
    (dict(decls="var b: bool;", arm="a??go -> A { b = !1; }"), "TypeError",
     "! applies to bool", 6),
    (dict(decls="var i: int;", arm="a??go -> A { i = -true; }"), "TypeError",
     "unary - applies to numbers", 6),
    (dict(decls="var i: int;", arm="a??go -> A { i = 1 + true; }"), "TypeError",
     "+ applies to numbers", 6),
    (dict(arm="a??go when a == Address.none(1) -> A { }"), "TypeError",
     "Address.none takes no arguments", 6),
    (dict(decls="var m: map[address, nat] default 0; var n: nat;",
          arm="a??go -> A { n = Map.ref(m, a); }"), "RefRequired",
     "Map.ref is only allowed as a move operand or send argument", 6),
])
def test_each_diagnostic_site(parts, code, message, line):
    """Each check of the typechecker, on a contract that fails it alone:
    the code, the message and the line it reports. A nat map's default
    `-1` is a negation, not a literal, so it fails as any non-literal."""
    err = expect_error(_minimal(**parts), code)
    assert (err.message, err.pos.line) == (message, line)


def test_literal_defaults_and_a_taken_sender_name():
    """Defaults of each literal form type, and a matched sender whose
    canonical name `a` is a parameter's is renamed."""
    tc = check(_minimal(decls="var mb: map[nat, bool] default true; "
                              "var ma: map[nat, address] default Address.none; "
                              "var mi: map[nat, int] default -2;",
                        arm="owner??put(a) -> A { }")).contract("C")
    assert [tc.vars[m].default for m in ("mb", "ma", "mi")] == [True, ADDR_NONE, -2]
    assert tc.transitions[0].sender_var == "a_"
