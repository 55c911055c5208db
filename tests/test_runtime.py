"""Abstract runtime: values, evaluation, and single-instance stepping."""
import pytest
from hypothesis import given, settings, strategies as st

from asp import ast_nodes
from asp.ast_nodes import Binop, Builtin, Lit, OpStmt, Quant, SemType, Var, map_children
from asp.compile import ABSENT, Compiler
from asp.discharge import DomainBounds, scalar_domain
from asp.machine import (
    _BINOPS, _BUILTINS, _EVAL, _OPS, _STMTS, InputLetter, InstanceState, StepContext,
    _eval, _exec_stmt, _merge_tokens, advance_instance, enabled_transitions, eval_expr,
    init_instance, step_instance,
)
from asp.parser import parse_expression, parse_program
from asp.pretty import _PREC
from asp.typecheck import _EXPR_BUILTINS, _STMT_OPS, typecheck
from asp.values import (
    TIMER_FIRED, TIMER_OFF, Coin, MapVal, SeqVal, Timer, Tok, Undef, boxed, coin_cut, div, flat,
    has_type, issue_supply, mod, nat_sub, seq_get, timer_read, timer_start, timer_tick,
    token_burn, token_cut, token_merge, zero_value,
)
from conftest import load


def auction_instance(prog, bene="bene", bt=10):
    tc = prog.contract("SimpleAuction")
    return tc, init_instance(tc, "auction", {"beneficiary": bene, "bidding_time": bt}, "alice")


def ev(prog, inst, src, **binds):
    return eval_expr(parse_expression(src), inst, binds)


# -- expression evaluation ----------------------------------------------------


def test_division_by_zero_undefined(auction):
    tc, inst = auction_instance(auction)
    assert ev(auction, inst, "7 / 0") is None
    assert ev(auction, inst, "7 / 2") == 3
    assert ev(auction, inst, "7 % 0") is None


def test_coin_value_accessor(auction):
    _, inst = auction_instance(auction)
    assert ev(auction, inst, "Coin.value(c)", c=Coin(5)) == 5


def test_sequence_out_of_bounds_undefined(auction):
    from asp.values import SeqVal
    _, inst = auction_instance(auction)
    s = SeqVal([1, 2])
    assert ev(auction, inst, "Seq.get(s, 3)", s=s) is None
    assert ev(auction, inst, "Seq.get(s, 1)", s=s) == 2
    assert ev(auction, inst, "Seq.len(s)", s=s) == 2


def test_strict_connectives(auction):
    _, inst = auction_instance(auction)
    assert ev(auction, inst, "false && 1 / 0 == 0") is None
    assert ev(auction, inst, "true || 1 / 0 == 0") is None


def _subclasses(base) -> set:
    return {c for c in vars(ast_nodes).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base}


def test_dispatch_tables_cover_the_language():
    """The evaluator's tables have a rule for every node class, operator,
    builtin and statement operation that the typechecker admits."""
    assert _subclasses(ast_nodes.Expr) <= set(_EVAL)
    assert _subclasses(ast_nodes.Stmt) <= set(_STMTS)
    assert set(_PREC) <= set(_BINOPS)
    accesses = {("Map", "get"), ("Map", "ref"), ("Map", "in"), ("Seq", "get"), ("Seq", "ref"),
                ("Tuple", "get"), ("Tuple", "ref"), ("Address", "none"), ("Address", "self")}
    assert set(_EXPR_BUILTINS) | accesses <= set(_BUILTINS)
    assert set(_STMT_OPS) <= set(_OPS)


def test_evaluator_errors_and_lookup_order():
    """An unknown node class, operator, builtin or statement operation is a
    TypeError; a quantifier is undefined; a name is a binding, then
    `owner`, then `creator`, then a variable; the connectives are strict."""
    inst = InstanceState("C", "S", {"owner": "Z", "creator": "Z", "x": 1}, "A", "O", "A")
    for bad in (Builtin("Foo", "bar"), Binop("^", Lit(1), Lit(2)), object()):
        with pytest.raises(TypeError):
            _eval(bad, inst, {})
    with pytest.raises(TypeError):
        _exec_stmt(OpStmt("Foo", "bar", ()), StepContext(inst, {}, None))
    with pytest.raises(Undef):
        _eval(Quant("forall", "a", SemType("address"), Lit(True)), inst, {})
    assert _eval(Var("owner"), inst, {"owner": "B"}) == "B"
    assert [_eval(Var(n), inst, {}) for n in ("owner", "creator", "x")] == ["O", "A", 1]
    assert eval_expr(Var("y"), inst, {}) is None
    assert eval_expr(parse_expression("1 / 0 && true"), inst, {}) is None


def _literal_keys(e):
    """The names P0, P1, P7 as address literals, as quantifier expansion
    leaves them."""
    if isinstance(e, Var) and e.name in ("P0", "P1", "P7"):
        return Lit(e.name)
    return map_children(e, _literal_keys)


# m has no default, d defaults to 0; both hold only P0. The engine's
# address domain is none, P0, P1: P7 lies outside it. k is bound to P7
# and j to P1.
@pytest.mark.parametrize("src", [
    "false && Map.get(m, P1) == 0", "false && x / 0 == 0",
    "false ==> Map.get(m, P1) == 0", "false ==> x / 0 == 0",
    "true || Map.get(m, P1) == 0", "true || x / 0 == 0",
    "Map.get(m, P0)", "Map.get(m, P1)", "Map.get(d, P1)",
    "Map.get(m, P7)", "Map.get(d, P7)", "Map.get(m, k)", "Map.get(d, k)",
    "Map.get(m, j)", "Map.get(d, j)",
    "Map.in(P0, m)", "Map.in(P1, m)", "Map.in(P7, m)", "Map.in(j, m)", "Map.in(k, m)",
])
def test_compiled_and_runtime_agree_on_definedness(src):
    """The engine's compiled code and the runtime evaluator give the same
    value, or both find the expression undefined."""
    e = _literal_keys(parse_expression(src))
    comp = Compiler({}, "P0", (), {})
    keys = comp.const(frozenset(("none", "P0", "P1")))
    comp.map_meta.update(m=(None, keys), d=(0, keys))
    E = {"x": 4, "k": "P7", "j": "P1"}
    for name in ("m", "d"):
        E.update({(name, "none"): ABSENT, (name, "P0"): 3, (name, "P1"): ABSENT})
    try:
        compiled = comp.value(e)(E)
    except Undef:
        compiled = None
    inst = InstanceState("Probe", "A", {"x": 4, "m": MapVal({"P0": 3}),
                                        "d": MapVal({"P0": 3}, 0)}, "P0", "P0", "P0")
    runtime = eval_expr(e, inst, {"k": "P7", "j": "P1"})
    assert (type(compiled), compiled) == (type(runtime), runtime)


# -- coin and token primitives ------------------------------------------------


def run_action(src_contract, msg, args, sender="alice", state=None):
    prog = typecheck(parse_program(src_contract))
    tc = next(iter(prog.contracts.values()))
    inst = init_instance(tc, "it", {}, "alice")
    if state:
        inst.skeleton = state
    letter = InputLetter(msg, sender, tuple(args))
    enabled = enabled_transitions(tc, inst, letter)
    assert enabled, "no enabled transition"
    t, binds = enabled[0]
    return inst, step_instance(tc, inst, t, binds, sender)


MOVER = """
contract Mover() {
  msg fill(coin), move(nat);
  var src, dst: coin;
  initial S;
  state S:
  | a??fill(c) -> S { Coin.moveall(c, src); }
  | a??move(k) -> S { Coin.move(src, k, dst); }
}
"""


def test_coin_move_examples():
    # src=10, move 4: src=6, dst=4
    inst, res = run_action(MOVER, "fill", [Coin(10)])
    inst2, _, _ = res
    assert inst2.env["src"] == Coin(10)
    prog = typecheck(parse_program(MOVER))
    tc = prog.contract("Mover")
    t, binds = enabled_transitions(tc, inst2, InputLetter("move", "a", (4,)))[0]
    inst3, _, _ = step_instance(tc, inst2, t, binds, "a")
    assert (inst3.env["src"], inst3.env["dst"]) == (Coin(6), Coin(4))
    # src=6, move 7: undefined, instance unchanged
    t, binds = enabled_transitions(tc, inst3, InputLetter("move", "a", (7,)))[0]
    assert step_instance(tc, inst3, t, binds, "a") is None
    assert inst3.env["src"] == Coin(6)
    # move 0: no change
    t, binds = enabled_transitions(tc, inst3, InputLetter("move", "a", (0,)))[0]
    inst4, _, _ = step_instance(tc, inst3, t, binds, "a")
    assert (inst4.env["src"], inst4.env["dst"]) == (Coin(6), Coin(4))


def test_moveall_zero_and_accumulate():
    inst, res = run_action(MOVER, "fill", [Coin(0)])
    inst2, _, _ = res
    assert inst2.env["src"] == Coin(0)
    inst2.env["src"] = Coin(9)
    inst2.env["dst"] = Coin(1)
    prog = typecheck(parse_program(MOVER))
    tc = prog.contract("Mover")
    t, binds = enabled_transitions(tc, inst2, InputLetter("move", "a", (9,)))[0]
    inst3, _, _ = step_instance(tc, inst2, t, binds, "a")
    assert inst3.env["dst"] == Coin(10)


def test_token_issue_within_limit(basic_coin):
    tc = basic_coin.contract("BasicCoin")
    inst = init_instance(tc, "bank", {}, "owner1")
    assert inst.token_remaining == 1000
    t, binds = enabled_transitions(tc, inst, InputLetter("register", "alice", ()))[0]
    inst2, _, _ = step_instance(tc, inst, t, binds, "alice")
    assert inst2.token_remaining == 990
    assert inst2.env["accounts"].get("alice") == Tok("bank", 10)


def test_token_issue_beyond_limit_undefined():
    src = """
contract T() issues Token(10) {
  msg grab(nat);
  var pot: token;
  initial S;
  state S:
  | a??grab(n) -> S { Token.issue(n, pot); }
}
"""
    inst, res = run_action(src, "grab", [20])
    assert res is None
    inst2, res2 = run_action(src, "grab", [10])
    post, _, _ = res2
    assert post.env["pot"] == Tok("it", 10)
    assert post.token_remaining == 0


def test_token_map_transfer_conserves(basic_coin):
    tc = basic_coin.contract("BasicCoin")
    inst = init_instance(tc, "bank", {}, "owner1")
    for who in ("alice", "bob"):
        t, binds = enabled_transitions(tc, inst, InputLetter("register", who, ()))[0]
        inst, _, _ = step_instance(tc, inst, t, binds, who)
    before = inst.token_total()
    t, binds = enabled_transitions(
        tc, inst, InputLetter("transfer", "alice", (4, "bob")))[0]
    inst2, _, _ = step_instance(tc, inst, t, binds, "alice")
    assert inst2.env["accounts"].get("alice") == Tok("bank", 6)
    assert inst2.env["accounts"].get("bob") == Tok("bank", 14)
    assert inst2.token_total() == before


# -- timers -------------------------------------------------------------------


def test_timer_state_machine():
    t = _set_timer(Timer("off"), 5)
    assert t == Timer("active", 5)
    with pytest.raises(Undef):
        _set_timer(t, 3)  # set requires Off
    with pytest.raises(Undef):
        _set_timer(Timer("off"), 0)  # positive duration
    fired = _advance(t, 5)
    assert fired == Timer("fired")
    # Fired -> reset -> set(b)
    reset = _machine_stmt("Timer", "reset", {"t": fired}).env["t"]
    assert _set_timer(reset, 7) == Timer("active", 7)


def test_has_fired_predicate(auction):
    _, inst = auction_instance(auction)
    assert ev(auction, inst, "Timer.has_fired(tmr)") is False
    assert ev(auction, inst, "Timer.is_off(tmr)") is True
    assert ev(auction, inst, "Timer.value(tmr)") is None


@pytest.mark.parametrize("delta", range(1, 7))
def test_advance_boundary_oracle(delta):
    """Fired iff delta >= k, independently enumerated."""
    t = Timer("active", 5)
    out = _advance(t, delta)
    if delta >= 5:
        assert out == Timer("fired")
    else:
        assert out == Timer("active", 5 - delta)


def test_all_timers_advance_together():
    prog = typecheck(parse_program("""
contract TwoTimers() {
  msg go;
  var t1, t2: timer;
  initial S;
  state S:
  | a??go -> S { Timer.set(t1, 3); Timer.set(t2, 7); }
}
"""))
    tc = prog.contract("TwoTimers")
    inst = init_instance(tc, "x", {}, "a")
    t, binds = enabled_transitions(tc, inst, InputLetter("go", "a", ()))[0]
    inst, _, _ = step_instance(tc, inst, t, binds, "a")
    inst = advance_instance(inst, 4)
    assert inst.env["t1"] == Timer("fired")
    assert inst.env["t2"] == Timer("active", 3)


def test_timer_monotone_never_reactivates():
    for start in (Timer("off"), Timer("fired")):
        assert _advance(start, 3) == start


# -- guards and enabledness ---------------------------------------------------


def test_owner_guard(auction):
    tc, inst = auction_instance(auction)
    assert enabled_transitions(tc, inst, InputLetter("start", "alice", ()))
    assert not enabled_transitions(tc, inst, InputLetter("start", "eve", ()))


def test_notby_beneficiary(auction):
    tc, inst = auction_instance(auction)
    t, binds = enabled_transitions(tc, inst, InputLetter("start", "alice", ()))[0]
    inst, _, _ = step_instance(tc, inst, t, binds, "alice")
    assert enabled_transitions(tc, inst, InputLetter("bid", "bob", (Coin(3),)))
    assert not enabled_transitions(tc, inst, InputLetter("bid", "bene", (Coin(3),)))
    assert not enabled_transitions(tc, inst, InputLetter("bid", "bob", (Coin(0),)))


def test_bid_step_moves_coins_and_emits(auction):
    tc, inst = auction_instance(auction)
    t, binds = enabled_transitions(tc, inst, InputLetter("start", "alice", ()))[0]
    inst, _, _ = step_instance(tc, inst, t, binds, "alice")
    # source-level transition: executes atomically with the refund send
    bid = [t for t in tc.transitions if t.msg == "bid"][0]
    binds = {"a": "bob", "c": Coin(4)}
    inst2, outputs, logs = step_instance(tc, inst, bid, binds, "bob")
    assert inst2.env["maxBid"] == Coin(4)
    assert inst2.env["maxBidder"] == "bob"
    assert len(outputs) == 1 and outputs[0].msg == "bid_lost"
    assert outputs[0].args[0] == Coin(0)  # dethroned nobody


def test_winner_send_zeroes_the_coin(auction):
    tc, inst = auction_instance(auction, bt=2)
    t, binds = enabled_transitions(tc, inst, InputLetter("start", "alice", ()))[0]
    inst, _, _ = step_instance(tc, inst, t, binds, "alice")
    bid = [t for t in tc.transitions if t.msg == "bid"][0]
    inst, _, _ = step_instance(tc, inst, bid, {"a": "bob", "c": Coin(4)}, "bob")
    inst = advance_instance(inst, 2)
    timeout = [t for t in tc.transitions if t.input is None][0]
    inst2, outputs, _ = step_instance(tc, inst, timeout, {}, None)
    assert outputs[0].msg == "winner"
    assert outputs[0].args[0] == Coin(4)
    assert inst2.env["maxBid"] == Coin(0)


def test_empty_action_changes_only_skeleton(etherstore):
    tc = etherstore.contract("Etherstore")
    inst = init_instance(tc, "e", {}, "d")
    inst.skeleton = "GaveWithdrawal"
    t = [t for t in tc.transitions if t.source == "GaveWithdrawal"][0]
    inst2, outputs, logs = step_instance(tc, inst, t, {}, None)
    assert inst2.skeleton == "AcceptDeposit"
    assert not outputs and not logs
    assert inst2.env == inst.env


# -- conservation properties over random actions ------------------------------


COIN_VARS = ["bank", "reserve", "pot"]


@st.composite
def random_action(draw):
    """A small well-typed action over three coin vars plus one coin binder."""
    stmts = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["move", "moveall", "if"]))
        src = draw(st.sampled_from(COIN_VARS + ["c"]))
        dst = draw(st.sampled_from(COIN_VARS))
        if kind == "move":
            stmts.append(f"Coin.move({src}, {draw(st.integers(0, 6))}, {dst})")
        elif kind == "moveall":
            stmts.append(f"Coin.moveall({src}, {dst})")
        else:
            inner = f"Coin.moveall({src}, {dst})"
            stmts.append(f"if Coin.value({src}) > {draw(st.integers(0, 3))} then {inner}")
    stmts.append("Coin.moveall(c, bank)")  # keep the binder consumed
    return "; ".join(stmts)


@settings(max_examples=120, deadline=None)
@given(action=random_action(), amount=st.integers(0, 9))
def test_coin_conservation_per_step(action, amount):
    src = f"""
contract R() {{
  msg pay(coin);
  var bank, reserve, pot: coin;
  initial S;
  state S:
  | a??pay(c) -> S {{ {action}; }}
}}
"""
    prog = typecheck(parse_program(src))
    tc = prog.contract("R")
    inst = init_instance(tc, "r", {}, "a")
    inst.env["reserve"] = Coin(3)
    before = inst.coin_total()
    letter = InputLetter("pay", "x", (Coin(amount),))
    enabled = enabled_transitions(tc, inst, letter)
    t, binds = enabled[0]
    res = step_instance(tc, inst, t, binds, "x")
    if res is None:
        assert inst.coin_total() == before  # untouched on undefined steps
        return
    inst2, outputs, _ = res
    emitted = sum(a.value for o in outputs for a in o.args if isinstance(a, Coin))
    assert inst2.coin_total() + emitted == before + amount


# -- container updates and ownership -------------------------------------------


def test_seq_and_tuple_updates():
    prog = typecheck(parse_program("""
contract Seqs() {
  msg push(nat), put(nat, nat);
  var xs: seq[nat];
  var pair: tuple[nat, address];
  initial S;
  state S:
  | a??push(n) -> S { Seq.append(xs, n); Tuple.set(pair, 0, n); }
  | a??put(i, n) -> S { Seq.set(xs, i, n); }
}
"""))
    tc = prog.contract("Seqs")
    inst = init_instance(tc, "s", {}, "al")
    t, b = enabled_transitions(tc, inst, InputLetter("push", "al", (7,)))[0]
    inst, _, _ = step_instance(tc, inst, t, b, "al")
    assert inst.env["xs"].items == [7]
    assert inst.env["pair"].items[0] == 7
    t, b = enabled_transitions(tc, inst, InputLetter("put", "al", (0, 9)))[0]
    inst2, _, _ = step_instance(tc, inst, t, b, "al")
    assert inst2.env["xs"].items == [9]
    # out-of-bounds update is undefined and leaves the instance unchanged
    t, b = enabled_transitions(tc, inst2, InputLetter("put", "al", (5, 1)))[0]
    assert step_instance(tc, inst2, t, b, "al") is None
    assert inst2.env["xs"].items == [9]


def test_change_owner_semantics():
    prog = typecheck(parse_program("""
contract Owned() {
  msg handover(address);
  initial S;
  state S:
  | a??handover(next) -> S { Address.change_owner(next); }
}
"""))
    tc = prog.contract("Owned")
    inst = init_instance(tc, "o", {}, "alice")
    assert inst.owner == "alice"
    t, b = enabled_transitions(tc, inst, InputLetter("handover", "alice", ("bob",)))[0]
    inst2, _, _ = step_instance(tc, inst, t, b, "alice")
    assert inst2.owner == "bob" and inst2.creator == "alice"
    # only the current owner may hand over; never to none
    t, b = enabled_transitions(tc, inst2, InputLetter("handover", "alice", ("eve",)))[0]
    assert step_instance(tc, inst2, t, b, "alice") is None
    t, b = enabled_transitions(tc, inst2, InputLetter("handover", "bob", ("none",)))[0]
    from asp.values import ADDR_NONE
    b["next"] = ADDR_NONE
    assert step_instance(tc, inst2, t, b, "bob") is None


# -- the flat form ---------------------------------------------------------


def _t(kind, *args):
    return SemType(kind, args)


FINITIZABLE = [_t("int"), _t("nat"), _t("bool"), _t("address"), _t("coin"),
               _t("token"), _t("timer"), _t("tuple", _t("coin"), _t("timer")),
               _t("seq", _t("token")), _t("seq", _t("tuple", _t("nat"), _t("bool")))]


@pytest.mark.parametrize("t", FINITIZABLE, ids=str)
def test_flat_and_boxed_are_inverse(t):
    """Every value of the engine's domains is the flat form of one runtime
    value of its type, the zero value's among them."""
    dom = scalar_domain(t, DomainBounds(2, 2, 2), "@issuer")
    assert flat(zero_value(t)) in dom
    for x in dom:
        v = boxed(t, x)
        assert has_type(v, t)
        assert flat(v) == x
        assert boxed(t, flat(v)) == v


def test_flat_map_keeps_entries_only():
    t = _t("map", _t("address"), _t("tuple", _t("coin"), _t("timer")))
    x = {"P0": (3, ("active", 2)), "P1": (0, ("off", 0))}
    v = boxed(t, x, default=None)
    assert v == MapVal({"P0": boxed(t.args[1], x["P0"]), "P1": boxed(t.args[1], x["P1"])})
    assert flat(v) == x and has_type(v, t)
    assert flat(zero_value(t)) == {}


# -- the shared flat operations against the boxed rules -----------------------

AMOUNTS = range(-1, 4)
TOKENS = [Tok(kind, n) for kind in (None, "A", "B") for n in AMOUNTS]
TIMERS = [TIMER_OFF, TIMER_FIRED] + [Timer("active", k) for k in (1, 2, 3)]
SEQS = [SeqVal([7, 8][:n]) for n in range(3)]


def _agree(flat_op, boxed_op, *args):
    """flat(boxed_op(args)) == flat_op(flat(args)), or both are undefined."""
    try:
        want = flat(boxed_op(*args))
    except Undef:
        with pytest.raises(Undef):
            flat_op(*map(flat, args))
        return
    assert flat_op(*map(flat, args)) == want, args


def _machine_stmt(ns, op, env, remaining=None):
    """Machine's rule for `ns.op` on variables holding env's values, in
    order, at an instance of issuer "A"."""
    inst = InstanceState("C", "S", dict(env), "A", "A", "A", remaining)
    _exec_stmt(OpStmt(ns, op, tuple(map(Var, env))), StepContext(inst, {}, None))
    return inst


def _set_timer(t, k):
    """Machine's Timer.set of the timer t for k units."""
    return _machine_stmt("Timer", "set", {"t": t, "k": k}).env["t"]


def _advance(t, delta):
    """Machine's tick of the timer t by delta."""
    return advance_instance(InstanceState("C", "S", {"t": t}, "A", "A", "A"), delta).env["t"]


def _issued(n, remaining, dst):
    inst = _machine_stmt("Token", "issue", {"n": n, "dst": dst}, remaining)
    return inst.token_remaining, flat(inst.env["dst"])


def test_flat_ops_agree_with_boxed():
    """The partial operations the engine's generated code and the IR
    interpreter share are defined, and agree, exactly where the oracle's
    and the cascade's boxed rules are."""
    for a in AMOUNTS:
        for b in AMOUNTS:
            _agree(nat_sub, _BINOPS["-nat"], a, b)
            _agree(div, _BINOPS["/"], a, b)
            _agree(mod, _BINOPS["%"], a, b)
            _agree(coin_cut, lambda c, k: _machine_stmt(
                "Coin", "move", {"src": c, "k": k, "dst": Coin(0)}).env["src"], Coin(a), b)
    get = parse_expression("Seq.get(s, i)")
    for s in SEQS:
        for i in range(-1, 3):
            _agree(seq_get, lambda x, j: _eval(get, None, {"s": x, "i": j}), s, i)
    value = parse_expression("Timer.value(t)")
    for t in TIMERS:
        _agree(timer_read, lambda x: _eval(value, None, {"t": x}), t)
        for k in AMOUNTS:
            _agree(timer_start, _set_timer, t, k)
        for d in range(1, 5):
            _agree(timer_tick, _advance, t, d)
    for tok in TOKENS:
        for k in AMOUNTS:
            _agree(token_cut, lambda x, n: _machine_stmt(
                "Token", "move", {"src": x, "k": n, "dst": Tok(None, 0)}).env["src"], tok, k)
            _agree(lambda x, n: token_burn(x, n, "A"), lambda x, n: _machine_stmt(
                "Token", "burn", {"src": x, "k": n}).env["src"], tok, k)
            for kind in (None, "A", "B"):
                _agree(token_merge, _merge_tokens, tok, kind, k)
            for r in (None, *range(4)):
                _agree(lambda n, rem, dst: (issue_supply(n, rem), token_merge(dst, "A", n)),
                       _issued, k, r, tok)
