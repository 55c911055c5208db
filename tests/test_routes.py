"""The two routes of a proof verdict, apart in the code: the engine's code
generator and the runtime evaluator import nothing of each other, and the
engine's functions in `discharge` name none of the runtime evaluator's
entry points, so the engine route runs generated code only."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "asp"

# the functions and classes of discharge that only the engine runs
ENGINE = ("_compile", "_compile_conjunct", "_target", "_holds", "_witnessed", "_Leaf",
          "_pending", "_forced", "_search", "_free_actors", "_independent_tail",
          "discharge_bounded")
# what runs the runtime evaluator: the oracle's leaf checks, the evaluator's
# entry points and the boxed-instance steps of `_Ctx`
RUNTIME = {"_CHECKS", "eval_expr", "step_instance", "init_instance", "build_instance",
           "run_inner"}


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


def test_engine_names_no_runtime_evaluator():
    defs = {node.name: node for node in _tree("discharge").body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ENGINE:
        named = set()
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        assert not named & RUNTIME, (name, named & RUNTIME)
