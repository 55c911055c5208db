"""The two routes of a proof verdict, apart in the code: the engine's code
generator and the runtime evaluator import nothing of each other, the
engine's functions in `discharge` name none of the runtime evaluator's
entry points and never the oracle's context, so the engine route runs
generated code only, and the oracle's functions name none of the engine's
compiled code or search. The IR interpreter, the independent side of the
differential route, matches its arms by itself and generates no code, and
the runtime evaluator names none of the flat-form operations that the
engine's code runs, while every partial operation of `values` is one of
them: the reference's partial rules live in the runtime evaluator. The
runtime values that both runtimes share stay frozen."""
import ast
import dataclasses
import inspect
import itertools
from pathlib import Path

import pytest

from asp import values
from asp.compile import PRELUDE

SRC = Path(__file__).resolve().parent.parent / "src" / "asp"

# the functions and classes of discharge that only the engine runs
ENGINE = ("_compile", "_compile_conjunct", "_target", "_holds", "_witnessed", "_Leaf",
          "_pending", "_forced", "_search", "_free_actors", "_independent_tail",
          "discharge_bounded")
# what runs the runtime evaluator: the oracle's leaf checks, the evaluator's
# entry points, the oracle's context and the boxed-instance steps of `_Ctx`
RUNTIME = {"_CHECKS", "eval_expr", "all_true", "step_instance", "init_instance",
           "build_instance", "bind_key", "run_inner", "_Ctx", "cx"}
# the functions and classes of discharge that only the oracle and replay
# run, besides the leaf checks `_check_*`
ORACLE = ("_Ctx", "_vc_step", "_rank_of", "_progress_ok", "_hypothesis_schedule",
          "discharge_naive", "replay_counterexample")
# the engine's compiled code and search
COMPILED = {"Compiler", "_compile", "_Leaf", "_search", "_pending", "_forced"}
# the cascade's rules for what a transition binds, when it is enabled and
# which transitions take an input
CASCADE_MATCHING = {"guards", "binders", "action_view", "all_true", "match_input",
                    "receptions"}
# the operations on the flat form that the engine's generated code and the
# IR interpreter run, apart from the boxed rules of the runtime evaluator
FLAT_OPS = ({name for name, f in PRELUDE.items() if inspect.isfunction(f)}
            | {f.__name__ for f in PRELUDE.values() if inspect.isfunction(f)}
            | {"nat_sub", "div", "mod", "seq_get", "coin_cut", "token_cut", "token_merge",
               "token_burn", "timer_read", "timer_start", "timer_tick", "issue_supply",
               "flat", "boxed"})


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _imports(module: str) -> set[str]:
    """The modules of the package that `module` imports (`from .x import`
    or `from . import x`), at any depth of its code."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_compile_imports_only_the_ast_and_values():
    assert _imports("compile") <= {"ast_nodes", "values"}


@pytest.mark.parametrize("module, banned", [
    ("interp", {"machine", "cascade", "compile"}),
    ("lower", {"machine", "cascade", "compile"}),
    ("machine", {"compile", "interp", "lower"}),
    ("cascade", {"compile", "interp", "lower"}),
])
def test_route_modules_import_apart(module, banned):
    assert not _imports(module) & banned


def _definitions(module: str) -> dict:
    return {node.name: node for node in _tree(module).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _named(node) -> set[str]:
    """The names and attributes a definition reads anywhere in its body."""
    named = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            named.add(n.id)
        elif isinstance(n, ast.Attribute):
            named.add(n.attr)
    return named


def test_engine_names_no_runtime_evaluator():
    defs = _definitions("discharge")
    for name in ENGINE:
        assert not _named(defs[name]) & RUNTIME, (name, _named(defs[name]) & RUNTIME)


def test_oracle_names_no_compiled_code():
    defs = _definitions("discharge")
    checks = [name for name in defs if name.startswith("_check_")]
    assert len(checks) == 8
    for name in (*ORACLE, *checks):
        assert not _named(defs[name]) & COMPILED, (name, _named(defs[name]) & COMPILED)


@pytest.mark.parametrize("module", ["interp", "lower"])
def test_ir_keeps_its_own_arm_matching(module):
    """The IR's arms are transitions, but the IR interpreter and the
    lowering name none of the cascade's matching rules."""
    named = _named(_tree(module))
    assert not named & CASCADE_MATCHING, named & CASCADE_MATCHING


def test_runtime_evaluator_runs_no_flat_ops():
    """The runtime evaluator, the oracle's and the cascade's side, names
    none of the flat-form operations and generates no code."""
    tree = _tree("machine")
    named = _named(tree) | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                            for a in n.names}
    assert not named & FLAT_OPS, named & FLAT_OPS
    assert not _calls(tree) & {"exec", "eval", "compile"}


def test_values_keeps_only_flat_partial_ops():
    """Every module-level function of `values` that raises Undef is a
    flat-form operation; the boxed rules are the runtime evaluator's."""
    raising = {f.name for f in _tree("values").body if isinstance(f, ast.FunctionDef)
               and any(isinstance(n, ast.Raise) and "Undef" in _named(n) for n in ast.walk(f))}
    assert raising and raising <= FLAT_OPS, raising - FLAT_OPS


@pytest.mark.parametrize("name", ["Coin", "Tok", "Timer"])
def test_shared_values_stay_frozen(name):
    """An instance's clone shares its values, and a differential check's
    start configuration shares them across scripts, only because no value
    ever changes: the records built per step may be mutable, the values
    not."""
    cls = getattr(values, name)
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


def test_ir_interpreter_generates_no_code():
    """The IR interpreter turns its arms into closures, never into source
    code."""
    assert not _calls(_tree("interp")) & {"exec", "eval", "compile"}


def _calls(tree: ast.Module) -> set[str]:
    """The plain names a module calls."""
    return {n.func.id for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


# the modules a proof runs; its set-up lives in the store of its VCs
# (`vcgen.Store`) and dies with them. The read-only tables each binds, which
# the check below must see.
PROOF_MODULES = {"discharge": {"_CHECKS", "_METHODS"}, "vcgen": {"_GENERATORS"},
                 "prove": set(), "compile": {"PRELUDE", "_BINOPS", "_TIMER_TESTS"}}
_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__",
                  "__delitem__"}


def _dict_tables(tree: ast.Module) -> set[str]:
    """The names of the dicts a module binds at its top level or in the
    body of one of its classes."""
    def is_dict(value) -> bool:
        if isinstance(value, ast.Call):
            f = value.func
            return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in \
                {"dict", "defaultdict", "OrderedDict"}
        return isinstance(value, (ast.Dict, ast.DictComp))

    bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    names = set()
    for stmt in itertools.chain(*bodies):
        if isinstance(stmt, ast.Assign) and is_dict(stmt.value):
            names |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and is_dict(stmt.value) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _written_tables(tree: ast.Module, tables: set[str]) -> set[str]:
    """The tables that code inside a function or lambda writes: an item
    store or delete, a mutating method call, or a `global` rebinding. A
    table is named as a variable or, a class's, as an attribute."""
    written = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for n in ast.walk(fn):
            target = None
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
                target = n.value
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and n.func.attr in _DICT_MUTATORS:
                target = n.func.value
            elif isinstance(n, ast.Global):
                written |= set(n.names) & tables
            name = target.id if isinstance(target, ast.Name) else \
                target.attr if isinstance(target, ast.Attribute) else None
            if name in tables:
                written.add(name)
    return written


def _cache_decorated(tree: ast.Module) -> set[str]:
    """The functions decorated with `functools.cache` or `lru_cache`."""
    out = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in fn.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) in \
                        {"cache", "lru_cache"}:
                    out.add(fn.name)
    return out


@pytest.mark.parametrize("module", sorted(PROOF_MODULES))
def test_proof_modules_keep_no_cache(module):
    """No module of a proof run keeps a cache that outlives the VCs: it
    binds no dict that a function writes at run time and decorates no
    function with `functools.cache` or `lru_cache`. Its dispatch tables
    (and `compile.PRELUDE`) are read-only."""
    tree = _tree(module)
    tables = _dict_tables(tree)
    assert PROOF_MODULES[module] <= tables
    assert not _written_tables(tree, tables)
    assert not _cache_decorated(tree)
