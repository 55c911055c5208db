"""SMT-LIB export: structure, determinism, and (optional) solver agreement."""
import os
import re
import shutil
import tempfile

import pytest

from asp.discharge import Counterexample, DomainBounds, Valid, discharge_bounded, discharge_naive
from asp.parser import parse_program
from asp.sketch import parse_proof_sketch
from asp.smtlib import EmitUnsupported, emit_smtlib, run_solver
from asp.typecheck import typecheck
from asp.vcgen import generate_vcs
from conftest import CRITERION_9_PAIRS, load
from goldens import GOLDEN, smtlib_digests
from test_proofs import NEG, NEG_DONE, PARTIAL_CASE, UP, _up_rank

BOUNDS = DomainBounds(addresses=3, nat_max=4, timer_max=4)


def sexp_balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def corpus_vcs():
    out = []
    for contract, proof in [("auction.asp", "auction_refunds.aspproof"),
                            ("auction.asp", "auction_closed.aspproof"),
                            ("auction_norefund.asp", "auction_refunds.aspproof"),
                            ("vending_fixed.asp", "vending_lockout.aspproof")]:
        prog = typecheck(parse_program(load(contract)))
        sk = parse_proof_sketch(load(proof), prog)
        for vc in generate_vcs(prog, sk):
            out.append((contract, vc))
    return out


def test_emission_structure_and_naming():
    emitted = unsupported = 0
    for contract, vc in corpus_vcs():
        try:
            script = emit_smtlib(vc)
        except EmitUnsupported:
            unsupported += 1
            continue
        emitted += 1
        assert sexp_balanced(script.text)
        assert "(check-sat)" in script.text
        assert "(declare-sort Addr 0)" in script.text
        assert script.filename.endswith(".smt2")
        assert script.filename.count(".") == 3  # proof.kind.transition.smt2
    assert emitted >= 20
    assert unsupported > 0  # game-rule obligations are documented as such


def test_emission_is_deterministic(auction):
    sk = parse_proof_sketch(load("auction_refunds.aspproof"), auction)
    vcs = generate_vcs(auction, sk)
    a = [emit_smtlib(vc).text for vc in vcs if vc.kind == "Inductiveness"]
    b = [emit_smtlib(vc).text for vc in vcs if vc.kind == "Inductiveness"]
    assert a == b


def test_hypothesis_false_vc_emits(auction):
    sk = parse_proof_sketch("""
safety vacuous {
  always true
  @StartAuction 1 > 2
  @AuctionOpen true
}
""", auction)
    vcs = generate_vcs(auction, sk)
    start_vcs = [vc for vc in vcs if vc.state == "StartAuction"
                 and vc.kind == "Inductiveness"]
    for vc in start_vcs:
        script = emit_smtlib(vc)
        assert "(assert" in script.text
        assert isinstance(discharge_bounded(vc, BOUNDS), Valid)  # vacuous


def test_vc_reading_the_player_exports(vending_fixed):
    """A VC that reads the adversarial player declares it as an address
    other than none; the others are emitted as before."""
    sk = parse_proof_sketch(load("vending_lockout.aspproof").replace(
        "@Choose customer != Address.none",
        "@Choose customer != Address.none\n    @Wait x != Address.none"), vending_fixed)
    reading = []
    for vc in generate_vcs(vending_fixed, sk):
        try:
            text = emit_smtlib(vc).text
        except EmitUnsupported:
            continue
        if "v___player" in text:
            assert sexp_balanced(text)
            assert "(assert (distinct v___player addr_none))" in text
            reading.append(vc.name)
    assert reading == [
        "initiality[VendingMachine.Wait]",
        "inductive[VendingMachine.pay@Wait#0]",
        "inductive[VendingMachine.cancel@Choose#2]",
        "inductive[VendingMachine.tau@Deliver#3]",
        "rank_defined[VendingMachine.Wait]"]


def test_rank_defined_requires_int_components_nonnegative():
    """A rank component of type int must be >= 0 where the rank is
    defined, as on both proof routes: at x == 0 the rank (x - 3) of `Neg`
    has no value, so rank_defined[Neg.A] is satisfiable there."""
    prog = typecheck(parse_program(NEG))
    vcs = {vc.name: vc for vc in generate_vcs(prog, parse_proof_sketch(NEG_DONE, prog))}
    text = emit_smtlib(vcs["rank_defined[Neg.A]"]).text
    assert "(assert (not true))" not in text
    assert "(assert (not (and true (>= (- v_x 3) 0))))" in text
    # the literal rank at B is a nat: no side condition
    assert "(assert (not true))" in emit_smtlib(vcs["rank_defined[Neg.B]"]).text


def _sexp(text: str):
    """The s-expressions of a script, as nested lists of tokens."""
    stack: list[list] = [[]]
    for tok in re.findall(r"\(|\)|[^\s()]+", text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def _short_connectives(e) -> list:
    """The `and`/`or` applications in e with fewer than two arguments."""
    if not isinstance(e, list):
        return []
    own = [e] if e and e[0] in ("and", "or") and len(e) < 3 else []
    return own + [x for c in e for x in _short_connectives(c)]


def test_golden_smtlib_digests():
    """Every exportable criterion-9 script is byte-identical to its pin in
    corpus/golden/smtlib.sha256 (`python tests/goldens.py` rewrites it)."""
    assert smtlib_digests() == (GOLDEN / "smtlib.sha256").read_text(encoding="utf-8")


def _criterion_9_scripts() -> list[tuple[str, str]]:
    """(VC name, script) of each exportable criterion-9 VC."""
    out = []
    for contract, proof in CRITERION_9_PAIRS:
        prog = typecheck(parse_program(load(contract)))
        for vc in generate_vcs(prog, parse_proof_sketch(load(proof), prog)):
            try:
                out.append((vc.name, emit_smtlib(vc).text))
            except EmitUnsupported:
                continue
    return out


def test_connectives_take_two_arguments():
    """The Core theory's `and` and `or` take at least two arguments: an
    empty conclusion is `true`, not `(and )`."""
    scripts = _criterion_9_scripts()
    assert len(scripts) == 42
    for name, text in scripts:
        assert _short_connectives(_sexp(text)) == [], name


# the symbols a script may use without declaring them: command and sort
# names, the Core, Ints and ArraysEx operators, `(_ is C)` and `(as const S)`,
# and the Timer datatype's constructors and selector
_SMT_BUILTINS = {
    "set-logic", "ALL", "declare-sort", "declare-const", "assert", "check-sat", "Int", "Bool",
    "Array", "true", "false", "not", "and", "or", "=>", "=", "distinct", "ite", "+", "-", "*",
    "div", "mod", "<", "<=", ">", ">=", "select", "store", "_", "is", "as", "const",
    "Timer", "T_Off", "T_Active", "T_Fired", "t_rem"}


def _unbound(e, bound=frozenset()) -> set:
    """The symbols of e that no enclosing forall/exists binds."""
    if isinstance(e, str):
        return set() if e in bound or e.isdigit() else {e}
    if e and e[0] in ("forall", "exists"):
        names = {b[0] for b in e[1]}
        return _unbound([b[1:] for b in e[1]], bound) | _unbound(e[2:], bound | names)
    return set().union(*(_unbound(x, bound) for x in e))


def _undeclared(text: str) -> set:
    """The symbols of a script that are neither declared, builtin nor
    bound by an enclosing quantifier."""
    commands = [c for c in _sexp(re.sub(r";[^\n]*", "", text)) if c[0] != "declare-datatypes"]
    declared = {c[1] for c in commands if c[0] in ("declare-const", "declare-sort")}
    return _unbound(commands) - declared - _SMT_BUILTINS


def test_exported_scripts_are_closed():
    """Every symbol of every exportable criterion-9 script is declared,
    the Timer datatype's, an SMT-LIB builtin, or bound by a quantifier
    around it: a solver accepts no script with a free symbol."""
    assert _undeclared("(declare-const v_x Int)\n(assert (forall ((q_n Int)) (> q_n v_x)))\n"
                       "(assert (>= q_n w))") == {"q_n", "w"}
    scripts = _criterion_9_scripts()
    assert len(scripts) == 42
    for name, text in scripts:
        assert _undeclared(text) == set(), name


CLUB = """
contract Club() {
  msg join, go;
  var seen: map[address, nat];
  var n: nat;
  initial A;
  state A:
  | a??join -> A { Map.set(seen, a, 1); }
  | a??go -> B { n = n + 1; }
  state B:
}
"""

CLUB_DONE = """
reachability done(1) {
  goal = { @B true }
  invariant = { }
  rank = { @A | (1) if Map.in(creator, seen)  | (2)  @B | (0) }
  witness = { @A a != Address.none }
}
"""


def test_membership_read_by_the_rank_is_declared():
    """Only the rank reads Map.in: every script that selects from the
    membership array of `seen` declares it."""
    prog = typecheck(parse_program(CLUB))
    using = []
    for vc in generate_vcs(prog, parse_proof_sketch(CLUB_DONE, prog)):
        try:
            text = emit_smtlib(vc).text
        except EmitUnsupported:
            continue
        used = set(re.findall(r"\bv_\w+_has\b", text))
        assert used == set(re.findall(r"\(declare-const (v_\w+_has) ", text)), vc.name
        if used:
            using.append(vc.name)
    assert using == ["rank_defined[Club.A]", "rank_decrease[Club.join@A#0]",
                     "rank_decrease[Club.go@A#1]"]


def test_rank_decrease_requires_the_pre_state_rank():
    """Both proof routes refute a step from a state whose rank is
    undefined, so the script negates the pre-state rank's definedness
    with the conclusion instead of assuming it."""
    prog = typecheck(parse_program(NEG))
    vcs = {vc.name: vc for vc in generate_vcs(prog, parse_proof_sketch(NEG_DONE, prog))}
    text = emit_smtlib(vcs["rank_decrease[Neg.go@A#0]"]).text
    assert "(assert (and true (>= (- v_x 3) 0)))" not in text
    assert "(assert (not (and (and true (>= (- v_x 3) 0)) (or true " in text


DN = """
contract Dn() {
  msg go;
  var x: nat;
  initial A;
  state A:
  | a??go -> A { if x > 2 then { x = x - 1; } else { x = x + 1; } }
}
"""


def test_branching_action_has_one_term_per_path():
    """An `if` in an action splits the inductiveness script's negated
    conclusion into one (=> COND CONCL) term per path, each over its
    path's post-state."""
    prog = typecheck(parse_program(DN))
    sk = parse_proof_sketch("safety bounded {\n  always x <= 3\n  @A true\n}\n", prog)
    vcs = {vc.name: vc for vc in generate_vcs(prog, sk)}
    vc = vcs["inductive[Dn.go@A#0]"]
    assert isinstance(discharge_bounded(vc, BOUNDS), Valid)
    assert ("(assert (not (and (=> (> v_x 2) (and (<= (- v_x 1) 3) true)) "
            "(=> (not (> v_x 2)) (and (<= (+ v_x 1) 3) true)))))") in emit_smtlib(vc).text


BR2 = """
contract Br2() {
  msg go;
  var x: nat;
  initial A;
  state A:
  | a??go -> A { if x > 2 then { x = x - 5; } else { x = x + 1; } }
}
"""


def test_definedness_under_a_branch_is_asserted_under_its_path():
    """Both bounded routes refute Br2's step at x == 1, which takes the
    else branch. The then branch's definedness, x >= 5, holds only on its
    path: asserted at top level it would make the script unsat, which
    reads as Valid."""
    prog = typecheck(parse_program(BR2))
    sk = parse_proof_sketch("safety bounded {\n  always x <= 1\n  @A true\n}\n", prog)
    vc = {vc.name: vc for vc in generate_vcs(prog, sk)}["inductive[Br2.go@A#0]"]
    assert not isinstance(discharge_bounded(vc, BOUNDS), Valid)
    text = emit_smtlib(vc).text
    assert "(assert (>= v_x 5))" not in text
    assert "(assert (=> (> v_x 2) (>= v_x 5)))" in text


def _vc(source: str, sketch: str, name: str):
    prog = typecheck(parse_program(source))
    return {vc.name: vc for vc in generate_vcs(prog, parse_proof_sketch(sketch, prog))}[name]


def _negation(text: str) -> str:
    """The script's `(assert (not ...))` line: what the obligation tests."""
    return next(line for line in text.splitlines() if line.startswith("(assert (not "))


def test_post_state_rank_definedness_is_required():
    """Both routes refute Up's step at x == 3, where the post-state rank
    3 - 4 is undefined. Its condition is required inside the negation;
    asserted as a hypothesis it made the script unsat, which reads as
    Valid."""
    vc = _vc(UP % ("", "", ""), _up_rank(), "rank_decrease[Up.go@A#0]")
    small = DomainBounds(2, 3, 1)
    for route in (discharge_bounded, discharge_naive):
        assert route(vc, small).valuation["x"] == 3
    text = emit_smtlib(vc).text
    assert "(assert (>= 3 (+ v_x 1)))" not in text
    assert _negation(text) == ("(assert (not (and (and true (>= 3 v_x)) (and (and true "
                               "(>= 3 (+ v_x 1))) (< (- 3 (+ v_x 1)) (- 3 v_x))))))")


def test_rank_defined_requires_nat_components_defined():
    """A nat rank component is defined only where its `-nat` is: the rank
    (3 - x) of `Up` needs x <= 3."""
    text = emit_smtlib(_vc(UP % ("", "", ""), _up_rank(), "rank_defined[Up.A]")).text
    assert _negation(text) == "(assert (not (and true (>= 3 v_x))))"


def test_undefined_rank_case_condition_is_false():
    """A rank case whose condition is undefined (4 / x at x == 0) is
    skipped on both routes, as a false one is: the condition's definedness
    is part of the case test, in rank_defined and in the rank's `ite`, and
    is not assumed."""
    sketch = "reachability r(1) { goal = { @B true } rank = { @A | (1) if 4 / x == 1 | (2) " \
        " @B | (0) } witness = { @A a != Address.none } }"
    case = "(and (distinct v_x 0) (= (div 4 v_x) 1))"
    defined = emit_smtlib(_vc(PARTIAL_CASE, sketch, "rank_defined[C.A]")).text
    assert _negation(defined) == f"(assert (not (or {case} (and (not {case}) true))))"
    decrease = emit_smtlib(_vc(PARTIAL_CASE, sketch, "rank_decrease[C.go@A#0]")).text
    assert f"(ite {case} 1 2)" in _negation(decrease)
    for text in (defined, decrease):
        assert "(assert (distinct v_x 0))" not in text


@pytest.mark.parametrize("source, sketch, name, tested, assumed", [
    (UP % ("", "", ""), "safety s { always 4 / (3 - x) >= 1 }", "inductive[Up.go@A#0]",
     "(and (>= 3 (+ v_x 1)) (distinct (- 3 (+ v_x 1)) 0) (>= (div 4 (- 3 (+ v_x 1))) 1))",
     ["(>= 3 v_x)", "(distinct (- 3 v_x) 0)"]),
    (UP % ("(nat)", "(k)", "y = 6 / k;"), _up_rank("4 / (3 - x) >= 1"),
     "rank_decrease[Up.go@A#0]",
     "(and (>= 3 (+ v_x 1)) (distinct (- 3 (+ v_x 1)) 0) (>= (div 4 (- 3 (+ v_x 1))) 1) "
     "(and true (>= 3 (+ v_x 1)))",
     ["(>= 3 v_x)", "(distinct (- 3 v_x) 0)", "(distinct v_k 0)"]),
], ids=["conclusion", "theta_at_target"])
def test_tested_division_requires_its_definedness(source, sketch, name, tested, assumed):
    """Both routes refute Up's step at x == 2, after which 4 / (3 - x)
    is undefined. Where the conclusion or theta at the target reads it, its
    definedness is required inside the negation; that of the hypothesis
    and of the action (`6 / k`) is assumed."""
    vc = _vc(source, sketch, name)
    for route in (discharge_bounded, discharge_naive):
        assert route(vc, DomainBounds(2, 3, 1)).valuation["x"] == 2
    text = emit_smtlib(vc).text
    assert tested in _negation(text)
    for cond in ("(>= 3 (+ v_x 1))", "(distinct (- 3 (+ v_x 1)) 0)"):
        assert f"(assert {cond})" not in text
    for cond in assumed:
        assert f"(assert {cond})" in text


def test_goal_disjunct_does_not_require_the_rank():
    """With the goal x >= 3 at A, both routes accept Up's step from
    x == 3, which reaches the goal although the post-state rank 3 - 4 is
    undefined. The rank's condition is inside the rank's disjunct, not
    around the disjunction."""
    vc = _vc(UP % ("", "", ""), _up_rank(goal="x >= 3"), "rank_decrease[Up.go@A#0]")
    for route in (discharge_bounded, discharge_naive):
        assert isinstance(route(vc, DomainBounds(2, 3, 1)), Valid)
    text = emit_smtlib(vc).text
    assert "(assert (>= 3 (+ v_x 1)))" not in text
    assert ("(or (>= (+ v_x 1) 3) (and (and true (>= 3 (+ v_x 1))) "
            "(< (- 3 (+ v_x 1)) (- 3 v_x))))") in _negation(text)


_N_CLOSURE = "(forall ((q_n Int)) (=> (>= q_n 0) (distinct q_n 0)))"


@pytest.mark.parametrize("body, closure", [
    ("forall n: nat : n == 0 || 4 / n >= 1", _N_CLOSURE),
    ("exists n: nat : 4 / n >= 1", _N_CLOSURE),
    ("forall n: nat : exists m: nat : 4 / (n + m) >= 1",
     "(forall ((q_n Int)) (=> (>= q_n 0) "
     "(forall ((q_m Int)) (=> (>= q_m 0) (distinct (+ q_n q_m) 0)))))"),
], ids=["forall", "exists", "nested"])
def test_quantifier_binds_its_body_conditions(body, closure):
    """Expansion evaluates every instance of a quantifier strictly, so at
    n == 0 the invariant is undefined, whichever the quantifier: both
    routes refute Up's Initiality and, as no pre-state meets the
    hypothesis, prove its step. The body's condition leaves its binder
    only as its universal closure, which Initiality requires and the step
    assumes. As an implication inside a `forall` or a conjunct inside an
    `exists` it would not be required, and `exists n: nat : 4 / n >= 1`
    would hold at Initiality (n == 1)."""
    prog = typecheck(parse_program(UP % ("", "", "")))
    sk = parse_proof_sketch(f"safety s {{ always {body} }}", prog)
    vcs = {vc.name: vc for vc in generate_vcs(prog, sk)}
    init, step = vcs["initiality[Up.A]"], vcs["inductive[Up.go@A#0]"]
    for route in (discharge_bounded, discharge_naive):
        assert isinstance(route(init, DomainBounds(2, 2, 2)), Counterexample)
        assert isinstance(route(step, DomainBounds(2, 2, 2)), Valid)
    init_text, step_text = emit_smtlib(init).text, emit_smtlib(step).text
    for text in (init_text, step_text):
        assert _undeclared(text) == set()
    assert _negation(init_text).startswith(f"(assert (not (and {closure} ")
    assert f"(assert {closure})" in step_text.splitlines()


def _solver():
    return os.environ.get("ASP_SOLVER") or shutil.which("z3") or shutil.which("cvc5")


@pytest.mark.skipif(_solver() is None,
                    reason="no external SMT solver configured (ASP_SOLVER)")
def test_solver_agrees_with_bounded_engine():
    solver = _solver()
    for contract, vc in corpus_vcs():
        try:
            script = emit_smtlib(vc)
        except EmitUnsupported:
            continue
        with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as f:
            f.write(script.text)
            path = f.name
        verdict = run_solver(solver, path)
        bounded = discharge_bounded(vc, BOUNDS)
        if verdict == "unknown":
            continue
        assert (verdict == "unsat") == isinstance(bounded, Valid), vc.name
