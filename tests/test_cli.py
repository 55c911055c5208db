"""End-to-end command line behavior and exit codes."""
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asp.cli import _locate
from asp.diagnostics import Pos, TypecheckError
from asp.discharge import DomainBounds
from asp.prove import check_proof
from asp.sketch import parse_proof_sketch
from conftest import CORPUS, ROOT, load, typed


def run_cli(*args, cwd=None):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "asp.cli", *args],
        capture_output=True, text=True, cwd=cwd or ROOT, env=env)


def test_check_ok_exit_zero():
    r = run_cli("check", str(CORPUS / "auction.asp"))
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "ok"


def test_check_ghost_leak_exit_one(tmp_path):
    bad = tmp_path / "bad.asp"
    bad.write_text("""
contract C() {
  msg poke;
  ghost var seen: int;
  initial A;
  state A:
  | x??poke when seen > 0 -> A { }
}
""", encoding="utf-8")
    r = run_cli("check", str(bad))
    assert r.returncode == 1
    diag = json.loads(r.stdout.splitlines()[0])
    assert diag["code"] == "GhostLeak"
    assert diag["severity"] == "error"
    assert diag["line"] > 0


def test_missing_file_exit_two():
    r = run_cli("check", "no_such_file.asp")
    assert r.returncode == 2


def test_simulate_golden_trace(tmp_path):
    r = run_cli("simulate", str(CORPUS / "etherstore_attack.asp"),
                "--script", str(CORPUS / "etherstore_attack.aspscript"),
                "--reentrancy-limit", "1")
    assert r.returncode == 0
    rules = [json.loads(line)["rule"] for line in r.stdout.splitlines()]
    assert rules == ["EnvInput", "SyncPush", "Pop", "SyncPush", "SyncPush",
                     "Pop", "LocalTau", "LocalTau", "Pop", "Pop"]


def test_simulate_failed_assert_exit_one(tmp_path):
    script = tmp_path / "bad.aspscript"
    script.write_text("""
new auction = SimpleAuction(bene, 10) by alice
input auction start from alice
assert auction @AuctionClosed
""", encoding="utf-8")
    r = run_cli("simulate", str(CORPUS / "auction.asp"), "--script", str(script))
    assert r.returncode == 1


def test_compile_writes_only_into_out(tmp_path):
    out = tmp_path / "artifacts"
    r = run_cli("compile", str(CORPUS / "auction.asp"),
                "--out", str(out), "--dump-ir")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    written = {Path(p).name for p in payload["outputs"]}
    assert written == {"SimpleAuction.sol", "ir.json"}
    for p in payload["outputs"]:
        assert Path(p).is_relative_to(out)
    # determinism: byte-identical on a second run
    first = (out / "SimpleAuction.sol").read_bytes()
    assert run_cli("compile", str(CORPUS / "auction.asp"),
                   "--out", str(out)).returncode == 0
    assert (out / "SimpleAuction.sol").read_bytes() == first


def test_prove_valid_exit_zero(tmp_path):
    r = run_cli("prove", str(CORPUS / "auction.asp"),
                "--proof", str(CORPUS / "auction_closed.aspproof"),
                "--bounds", "addr=3,nat=4,timer=4",
                "--out", str(tmp_path), "--smt-out")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["valid"] is True
    assert {v["status"] for v in report["vcs"]} == {"valid"}
    # each valid VC reports the engine's leaves
    prog = typed("auction.asp")
    rep = check_proof(prog, parse_proof_sketch(load("auction_closed.aspproof"), prog),
                      DomainBounds(3, 4, 4))
    assert [v["checked"] for v in report["vcs"]] == [r.result.checked for r in rep.results]
    assert sum(v["checked"] for v in report["vcs"]) > 0
    smt_files = list(tmp_path.glob("*.smt2"))
    assert smt_files and all(f.name.startswith("auction_closed.") for f in smt_files)


def test_prove_invalid_exit_one():
    r = run_cli("prove", str(CORPUS / "vending_machine.asp"),
                "--proof", str(CORPUS / "vending_lockout_original.aspproof"),
                "--bounds", "addr=3,nat=3,timer=3")
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["valid"] is False
    assert "Choose" in report["failed_obligations"]


@pytest.mark.parametrize("bounds", ["foo=3", "addr=x", "addr=-1", "addr=0"])
def test_prove_bad_bounds_exit_two(bounds):
    r = run_cli("prove", str(CORPUS / "auction.asp"),
                "--proof", str(CORPUS / "auction_closed.aspproof"),
                "--bounds", bounds)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stderr)["code"] == "UsageError"


HAPPY = str(CORPUS / "auction_happy.aspscript")


@pytest.mark.parametrize("args", [
    ["compile", "AUCTION", "--word-bits", "abc"],
    ["compile", "AUCTION", "--word-bits", "0"],
    ["compile", "AUCTION", "--reentrancy-limit", "abc"],
    ["compile", "AUCTION", "--reentrancy-limit", "-1"],
    ["diff", "AUCTION", "--script", HAPPY, "--trials", "2", "--word-bits", "0"],
    ["diff", "AUCTION", "--script", HAPPY, "--trials", "2", "--seed", "x"],
    ["simulate", "AUCTION", "--script", HAPPY, "--seed", "1.5"],
    ["prove", "AUCTION", "--proof", str(CORPUS / "auction_closed.aspproof"),
     "--solver", "z3", "--timeout-ms", "0"],
    ["diff", "AUCTION", "--script", HAPPY, "--trials", "-3"],
    ["diff", "AUCTION", "--script", HAPPY, "--trials", "x"],
])
def test_bad_integer_option_exit_two(args, tmp_path):
    args = [str(CORPUS / "auction.asp") if a == "AUCTION" else a for a in args]
    r = run_cli(*args, "--out", str(tmp_path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stderr)["code"] == "UsageError"


@pytest.mark.parametrize("config", ['{"reentrancy_limit": [1]}',
                                    '{"word_bits": true}', '{bad', '[1]'])
def test_bad_config_value_exit_two(config, tmp_path):
    (tmp_path / "asp.config.json").write_text(config, encoding="utf-8")
    r = run_cli("compile", str(CORPUS / "auction.asp"), cwd=tmp_path)
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "UsageError"


def test_compile_unsupported_layout_exit_one(tmp_path):
    """A contract the Solidity back end has no layout for is a diagnostic
    naming the contract and the type, and no .sol file is written."""
    src = tmp_path / "pair.asp"
    src.write_text("""
contract Pair() {
  msg put(nat);
  var pair: tuple[nat, bool];
  initial A;
  state A:
  | x??put(n) -> A { Tuple.set(pair, 0, n); }
}
""", encoding="utf-8")
    out = tmp_path / "out"
    r = run_cli("compile", str(src), "--out", str(out))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    diag = json.loads(r.stdout)
    assert diag["code"] == "CompileError"
    assert "Pair" in diag["message"] and "tuple[nat, bool]" in diag["message"]
    assert not list(tmp_path.rglob("*.sol"))


BROKEN = """contract Broken() {
  msg poke;
  initial A;
  state A:
  | x??poke -> Nowhere { }
}
"""


@pytest.mark.parametrize("broken_first", [False, True])
def test_check_reports_error_in_its_own_file(broken_first, tmp_path):
    """With several files, an error is reported against the file it is
    in, at that file's own line."""
    broken = tmp_path / "broken.asp"
    broken.write_text(BROKEN, encoding="utf-8")
    files = [str(CORPUS / "auction.asp"), str(broken)]
    r = run_cli("check", *(files[::-1] if broken_first else files))
    assert r.returncode == 1
    diag = json.loads(r.stdout)
    assert diag["code"] == "UnknownState"
    assert (diag["file"], diag["line"]) == (str(broken), 5)


def test_locate_error_without_line_names_no_file():
    """An error without a position (line 0) is not blamed on the first of
    several files; one with a line is mapped into its own file."""
    sources = [("a.asp", "x\ny"), ("b.asp", "z")]
    diag = _locate(TypecheckError("TypeError", "boom"), sources)
    assert (diag.file, diag.pos.line) == (None, 0)
    diag = _locate(TypecheckError("TypeError", "boom", Pos(3, 1)), sources)
    assert (diag.file, diag.pos.line) == ("b.asp", 1)


@pytest.mark.parametrize("what", ["directory", "non-UTF-8 file"])
def test_unreadable_input_exit_two(what, tmp_path):
    path = tmp_path
    if what == "non-UTF-8 file":
        path = tmp_path / "bad.asp"
        path.write_bytes(b"contract \xff")
    r = run_cli("check", str(path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stderr)["code"] == "IOError"


@pytest.mark.parametrize("body, answer", [("echo unsat", "unsat"),
                                          ("exec sleep 5", "unknown")])
def test_solver_pass_reports_each_exportable_vc(body, answer, tmp_path):
    """A fake solver answers every exportable VC; one that outlives
    --timeout-ms answers unknown."""
    solver = tmp_path / "fake-solver"
    solver.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
    solver.chmod(0o755)
    r = run_cli("prove", str(CORPUS / "auction.asp"),
                "--proof", str(CORPUS / "auction_closed.aspproof"),
                "--bounds", "addr=2,nat=2,timer=2", "--solver", str(solver),
                "--timeout-ms", "100")
    assert r.returncode == 0, r.stderr
    answers = [json.loads(line) for line in r.stdout.splitlines()
               if line.startswith('{"vc"')]
    assert answers and all(a["solver"] == answer and a["bounded"] == "valid"
                           and a["agree"] for a in answers)


def test_missing_solver_exit_two():
    r = run_cli("prove", str(CORPUS / "auction.asp"),
                "--proof", str(CORPUS / "auction_closed.aspproof"),
                "--bounds", "addr=2,nat=2,timer=2", "--solver", "/nonexistent/z3")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stderr)["code"] == "UsageError"


def test_diff_clean_exit_zero(tmp_path):
    r = run_cli("diff", str(CORPUS / "auction.asp"),
                "--script", str(CORPUS / "auction_happy.aspscript"),
                "--trials", "25", "--out", str(tmp_path))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["divergences"] == 0
    report = json.loads((tmp_path / "diff_report.json").read_text())
    assert report["trials"] == 25


@pytest.mark.parametrize("args", [
    ["compile", "AUCTION", "--out", "afile"],
    ["simulate", "ESTORE", "--script", "ESCRIPT", "--out", "afile/x",
     "--trace-out", "t.jsonl"],
    ["simulate", "ESTORE", "--script", "ESCRIPT", "--trace-out", "nodir/t.jsonl"],
])
def test_unwritable_output_exit_two(args, tmp_path):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    paths = {"AUCTION": CORPUS / "auction.asp",
             "ESTORE": CORPUS / "etherstore_attack.asp",
             "ESCRIPT": CORPUS / "etherstore_attack.aspscript"}
    r = run_cli(*(str(paths.get(a, a)) for a in args), cwd=tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stderr)["code"] == "UsageError"


_CONTRACTS = sorted(str(p) for p in CORPUS.glob("*.asp"))
# per flag: (valid values, invalid values); None for a switch
_VALUES = {
    "--script": (sorted(str(p) for p in CORPUS.glob("*.aspscript")), ["nofile"]),
    "--proof": (sorted(str(p) for p in CORPUS.glob("*.aspproof")), ["nofile"]),
    "--bounds": (["addr=1,nat=1,timer=1", "addr=2,nat=1,timer=2",
                  "addr=2,nat=2,timer=2"], ["addr=0", "nat=x", "seq=9"]),
    "--trials": (["0", "1", "3"], ["-1", "x"]),
    "--seed": (["0", "7"], ["1.5"]),
    "--word-bits": (["8", "256"], ["0", "w"]),
    "--reentrancy-limit": (["0", "1", "2"], ["-1"]),
    "--timeout-ms": (["1"], ["0"]),
    "--out": (["out", "out/sub"], ["afile", "afile/x"]),
    "--trace-out": (["t.jsonl"], ["nodir/t.jsonl"]),
    "--dump-ir": None,
    "--smt-out": None,
}
# each subcommand's required flags (--bounds for prove, whose default
# bounds take seconds) and optional flags
_FLAGS = {
    "check": ((), ()),
    "simulate": (("--script",), ("--reentrancy-limit", "--seed", "--out",
                                 "--trace-out")),
    "compile": ((), ("--reentrancy-limit", "--word-bits", "--out", "--dump-ir")),
    "prove": (("--proof", "--bounds"), ("--timeout-ms", "--out", "--smt-out")),
    "diff": (("--script",), ("--trials", "--reentrancy-limit", "--word-bits",
                             "--seed", "--out")),
}


@st.composite
def _command_lines(draw):
    """A command line: mostly the subcommand's own flags, sometimes one it
    does not take; values valid and invalid."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = ["--pretty"] if draw(st.booleans()) else []
    argv.append(command)
    argv += draw(st.lists(st.sampled_from(_CONTRACTS), min_size=1, max_size=2))
    required, optional = _FLAGS[command]
    flags = list(required)
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(_VALUES))))
    for flag in flags:
        argv.append(flag)
        if _VALUES[flag] is not None:
            valid, invalid = _VALUES[flag]
            pick = invalid if draw(st.integers(0, 7)) == 0 else valid
            argv.append(draw(st.sampled_from(pick)))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_lines())
def test_cli_exit_codes_over_random_command_lines(argv, tmp_path, monkeypatch):
    """Any mix of subcommand, corpus inputs, flags and values ends in exit
    0, 1 or 2; no exception escapes `main`."""
    from asp.cli import main
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("", encoding="utf-8")
    assert main(argv) in (0, 1, 2)
