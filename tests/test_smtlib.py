"""SMT-LIB export: structure, determinism, and (optional) solver agreement."""
import os
import re
import shutil
import tempfile

import pytest

from asp.discharge import DomainBounds, Valid, discharge_bounded
from asp.parser import parse_program
from asp.sketch import parse_proof_sketch
from asp.smtlib import EmitUnsupported, emit_smtlib, run_solver
from asp.typecheck import typecheck
from asp.vcgen import generate_vcs
from conftest import CRITERION_9_PAIRS, load

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
    from test_proofs import NEG, NEG_DONE
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


def test_connectives_take_two_arguments():
    """The Core theory's `and` and `or` take at least two arguments: an
    empty conclusion is `true`, not `(and )`."""
    checked = 0
    for contract, proof in CRITERION_9_PAIRS:
        prog = typecheck(parse_program(load(contract)))
        for vc in generate_vcs(prog, parse_proof_sketch(load(proof), prog)):
            try:
                text = emit_smtlib(vc).text
            except EmitUnsupported:
                continue
            assert _short_connectives(_sexp(text)) == [], vc.name
            checked += 1
    assert checked == 42


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
    from test_proofs import NEG, NEG_DONE
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
