"""Lexing, parsing, printing, and the contract corpus."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asp.ast_nodes import PRIM_TYPES, Binop, Builtin, Lit, Quant, SemType, Unop, Var
from asp.diagnostics import LexError, ParseError, Pos
from asp.lexer import tokenize
from asp.parser import BINARY, parse_expression, parse_program
from asp.pretty import fmt_expr, fmt_program
from conftest import CORPUS, load


def kinds(src):
    return [t.kind for t in tokenize(src)]


def test_input_guard_lexing():
    toks = tokenize("a??bid(c)")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("ident", "a"), ("??", "??"), ("ident", "bid"),
        ("(", "("), ("ident", "c"), (")", ")"),
    ]


def test_send_token_longest_match():
    assert kinds("!!") == ["!!", "eof"]
    assert kinds("! !") == ["!", "!", "eof"]
    assert kinds("==> == =") == ["==>", "==", "=", "eof"]


def test_comments_stripped():
    toks = tokenize("a // comment\n/* block\nspanning */ b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]


def test_positions():
    toks = tokenize("ab\n  cd")
    assert (toks[0].pos.line, toks[0].pos.col) == (1, 1)
    assert (toks[1].pos.line, toks[1].pos.col) == (2, 3)


def test_illegal_character():
    with pytest.raises(LexError) as exc:
        tokenize("a $ b")
    assert exc.value.pos.col == 3


def test_full_auction_source_lexes():
    toks = tokenize(load("auction.asp"))
    assert toks[-1].kind == "eof"
    assert len(toks) > 100


def test_parse_auction_shape():
    prog = parse_program(load("auction.asp"))
    (c,) = prog.contracts
    assert c.name == "SimpleAuction"
    assert c.initial == "StartAuction"
    assert c.state_names() == ("StartAuction", "AuctionOpen", "AuctionClosed")
    assert [m.name for m in c.messages] == ["start", "bid"]
    assert len(c.transitions()) == 3


def test_parse_vending_machine_states():
    prog = parse_program(load("vending_machine.asp"))
    (c,) = prog.contracts
    assert c.name == "VendingMachine"
    assert c.state_names() == ("Wait", "Choose", "Deliver", "Halt")


def test_minimal_contract():
    prog = parse_program("contract C() { initial A; state A: }")
    (c,) = prog.contracts
    assert c.state_names() == ("A",)
    assert c.transitions() == ()


def test_two_contracts_per_file():
    prog = parse_program(load("etherstore_attack.asp"))
    assert [c.name for c in prog.contracts] == ["Etherstore", "Attacker"]


def test_grouped_var_declaration():
    prog = parse_program(
        "contract C() { var paid, total: coin, who: address; initial A; state A: }")
    names = [(v.name, v.typ.kind) for v in prog.contracts[0].vars]
    assert names == [("paid", "coin"), ("total", "coin"), ("who", "address")]


def test_syntax_error_reports_expectation():
    with pytest.raises(ParseError) as exc:
        parse_program("contract C( { }")
    assert exc.value.expected


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.asp")))
def test_parse_print_parse_fixpoint(name):
    prog = parse_program(load(name))
    assert parse_program(fmt_program(prog)) == prog


def test_expression_precedence():
    e = parse_expression("1 + 2 * 3 == 7 && !false ==> 1 < 2")
    from asp.pretty import fmt_expr
    assert fmt_expr(e) == "1 + 2 * 3 == 7 && !false ==> 1 < 2"


def test_quantifier_parses():
    e = parse_expression("forall b: address : b != Address.none")
    from asp.ast_nodes import Quant
    assert isinstance(e, Quant) and e.var == "b"


def _nested(e) -> str:
    """e printed with every operation and quantifier parenthesized."""
    if isinstance(e, Binop):
        return f"({_nested(e.left)} {e.op} {_nested(e.right)})"
    if isinstance(e, Unop):
        return f"{e.op}({_nested(e.operand)})"
    if isinstance(e, Quant):
        return f"({e.kind} {e.var}: {e.typ} : {_nested(e.body)})"
    if isinstance(e, Builtin) and e.args:
        return f"{e.ns}.{e.op}({', '.join(map(_nested, e.args))})"
    return fmt_expr(e)


@pytest.mark.parametrize("src,nested", [
    ("a ==> b ==> c", "(a ==> (b ==> c))"),
    ("a - b - c", "((a - b) - c)"),
    ("a / b % c * d", "(((a / b) % c) * d)"),
    ("a || b && c", "(a || (b && c))"),
    ("a && b || c ==> d", "(((a && b) || c) ==> d)"),
    ("a ==> b || c && d", "(a ==> (b || (c && d)))"),
    ("a - b * c + d", "((a - (b * c)) + d)"),
    ("a < b + 1 && c != d", "((a < (b + 1)) && (c != d))"),
    ("-a * b == !c", "((-(a) * b) == !(c))"),
    ("(a < b) < c", "((a < b) < c)"),
])
def test_operator_levels_and_associativity(src, nested):
    assert _nested(parse_expression(src)) == nested


@pytest.mark.parametrize("src,op,col", [
    ("a < b < c", "<", 7), ("a == b != c", "!=", 8),
    ("x && a >= b == c", "==", 13), ("a ==> b < c + 1 > d", ">", 17),
])
def test_comparisons_do_not_chain(src, op, col):
    """A comparison takes no comparison as its left operand: the second
    comparison operator is where the expression ends."""
    with pytest.raises(ParseError) as exc:
        parse_expression(src)
    assert (exc.value.message, exc.value.pos, exc.value.expected) == \
        (f"expected 'eof', found {op!r}", Pos(1, col), ("eof",))


_ATOMS = st.one_of(
    st.integers(0, 300).map(Lit), st.booleans().map(Lit),
    st.sampled_from(["a", "b", "x"]).map(Var),
    st.just(Builtin("Address", "none")))


def _compound(inner):
    return st.one_of(
        st.builds(Binop, st.sampled_from(sorted(BINARY)), inner, inner),
        st.builds(Unop, st.sampled_from(["!", "-"]), inner),
        st.builds(Builtin, st.just("Coin"), st.just("value"), st.tuples(inner)),
        st.builds(Builtin, st.just("Map"), st.just("get"), st.tuples(inner, inner)),
        st.builds(Quant, st.sampled_from(["forall", "exists"]), st.sampled_from(["a", "y"]),
                  st.sampled_from([SemType("nat"), SemType("address")]), inner))


@settings(max_examples=400, deadline=None)
@given(st.recursive(_ATOMS, _compound, max_leaves=12))
@example(Unop("!", Unop("!", Var("a"))))
def test_print_parse_round_trip(e):
    """Every expression over the operators of the table, `!`, unary `-`,
    literals, builtins and quantifiers parses back from its printed form,
    and from its fully parenthesized form. A negated negation prints as
    `! !a`: `!!` is the send token."""
    assert parse_expression(fmt_expr(e)) == e
    assert parse_expression(_nested(e)) == e


def _contract(body: str) -> str:
    return f"contract C() {{\n  var x: nat;\n  initial A;\n{body}\n}}"


@pytest.mark.parametrize("src,message,pos,expected", [
    ("a + )", "expected expression, found ')'", Pos(1, 5), ("expression",)),
    ("contract C(p: money) { initial A; state A: }",
     "unknown type 'money'", Pos(1, 15), PRIM_TYPES),
    (_contract("  state A:\n  | -> A { x + 1 = 2; }"),
     "assignment target must be a variable", Pos(5, 12), ()),
    (_contract("  state A:\n  | -> A { x + 1; }"),
     "expression is not a statement", Pos(5, 12), ("=", "!!")),
    (_contract("  func f;"), "expected contract item, found 'func'", Pos(4, 3),
     ("msg", "var", "ghost", "initial", "state")),
    ("\n contract D() { state A: }", "contract D declares no initial state",
     Pos(2, 2), ()),
])
def test_parse_error_sites(src, message, pos, expected):
    """Each of these ParseErrors keeps its message, position and
    expected tokens."""
    parse = parse_expression if src == "a + )" else parse_program
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.message, exc.value.pos, exc.value.expected) == \
        (message, pos, expected)
