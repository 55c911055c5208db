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


@pytest.mark.parametrize("command", ["simulate", "diff"])
@pytest.mark.parametrize("body, line", [
    ("input auction start from alice\nassert auction @AuctionClosed", 4),
    ("expect-reject\ninput auction start from alice", 4),
], ids=["false-assert", "accepted-expect-reject"])
def test_script_failure_exit_one(command, body, line, tmp_path):
    """A false assertion, or an accepted item marked expect-reject, fails
    both commands with a ScriptError at the item's line."""
    script = tmp_path / "bad.aspscript"
    script.write_text("\nnew auction = SimpleAuction(bene, 10) by alice\n" + body,
                      encoding="utf-8")
    r = run_cli(command, str(CORPUS / "auction.asp"), "--script", str(script),
                "--out", str(tmp_path))
    assert r.returncode == 1
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"], diag["file"]) == ("ScriptError", line, str(script))


@pytest.mark.parametrize("command", ["simulate", "diff"])
@pytest.mark.parametrize("assertion, message", [
    ("b.x == 1", "unknown instance 'b'"),
    ("get.value(loot) == 5", "unknown operation get.value"),
    ("Coin.value(bene) == 5", "Coin.value expects coin, got address"),
    ("Map.get(auction.bidded) == 0", "Map.get takes 2 argument(s)"),
], ids=["unknown-instance", "unknown-operation", "coin-of-address", "map-get-arity"])
def test_ill_typed_assertion_exit_one(command, assertion, message, tmp_path, monkeypatch,
                                      capsys):
    """An assertion is typed before any item runs: one that names an
    unknown instance or operation, or gives an operation an argument of
    the wrong type or number, is a ScriptError at its line in both
    commands, ahead of the false assertion on the line before it."""
    from asp.cli import main
    monkeypatch.chdir(tmp_path)
    script = tmp_path / "bad.aspscript"
    script.write_text("new auction = SimpleAuction(bene, 10) by alice\n"
                      f"assert auction @AuctionClosed\nassert {assertion}\n",
                      encoding="utf-8")
    assert main([command, str(CORPUS / "auction.asp"), "--script", str(script)]) == 1
    diag = json.loads(capsys.readouterr().out)
    assert (diag["code"], diag["line"]) == ("ScriptError", 3)
    assert message in diag["message"]


def test_well_typed_assertions_pass(tmp_path, monkeypatch):
    """The scope of an assertion: each instance's variables, ghost ones
    too, and parameters with their declared types, its owner, creator and
    self as addresses, and bare names as addresses."""
    from asp.cli import main
    monkeypatch.chdir(tmp_path)
    script = tmp_path / "ok.aspscript"
    script.write_text("new auction = SimpleAuction(bene, 10) by alice\n"
                      "assert auction.beneficiary == bene && auction.bidding_time == 10\n"
                      "assert Map.get(auction.bidded, bob) == 0 && auction.maxBidder == none\n"
                      "assert auction.owner == alice && auction.creator == alice\n"
                      "assert auction.self == auction && Timer.is_off(auction.tmr)\n",
                      encoding="utf-8")
    assert main(["simulate", str(CORPUS / "auction.asp"), "--script", str(script)]) == 0


PING = """
contract Ping() {
  msg poke(nat);
  var n: nat;
  initial S;
  state S:
  | a??poke(k) -> S { n = k; log!!poked(k); }
}

contract Quiet() {
  var n: nat;
  initial S;
  state S:
  | -> S { n = 1; }
}
"""


def _ping_cli(command, script, tmp_path, *flags, source=PING):
    (tmp_path / "ping.asp").write_text(source, encoding="utf-8")
    (tmp_path / "ping.aspscript").write_text(script, encoding="utf-8")
    return run_cli(command, str(tmp_path / "ping.asp"), "--script",
                   str(tmp_path / "ping.aspscript"), "--out", str(tmp_path), *flags)


def test_diff_log_send_clean_exit_zero(tmp_path):
    """A log send is the same letter on both routes: dest `none`, and its
    arguments."""
    r = _ping_cli("diff", "new p = Ping() by alice\ninput p poke(3) from bob\n", tmp_path)
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["status"] == "ok"


@pytest.mark.parametrize("command", ["simulate", "diff"])
@pytest.mark.parametrize("literal", ["coin(3)", "true"])
def test_ill_typed_literal_exit_one(command, literal, tmp_path):
    """An input literal of the wrong type for its parameter is a
    ScriptError at its line in both commands."""
    r = _ping_cli(command, f"new p = Ping() by alice\ninput p poke({literal}) from bob\n",
                  tmp_path)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"]) == ("ScriptError", 2)
    assert "expected nat" in diag["message"]


SPINNER = """
contract Spinner() {
  msg kick;
  initial A;
  state A:
  | x??kick -> B { }
  state B:
  | when true -> B { }
}
"""


def test_simulate_runaway_cascade_at_its_line(tmp_path):
    """A cascade that never quiesces is a ScriptError at the line of the
    item that started it."""
    r = _ping_cli("simulate", "new s = Spinner() by alice\ninput s kick from bob\n",
                  tmp_path, source=SPINNER)
    assert r.returncode == 1
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"]) == ("ScriptError", 2)
    assert "cascade exceeded" in diag["message"]


DEPLOY = """
contract D(n: nat) {
  msg go(nat);
  var x: nat;
  initial S;
  state S:
  | a??go(k) -> S { x = n + k; }
}
"""


@pytest.mark.parametrize("command", ["simulate", "diff"])
@pytest.mark.parametrize("literal", ["alice", "true"])
def test_ill_typed_new_literal_exit_one(command, literal, tmp_path):
    """A `new` literal of the wrong type for its contract parameter is a
    ScriptError at the `new` line in both commands: an address is not
    added to a nat, and `true` is not the number 1."""
    r = _ping_cli(command, f"new d = D({literal}) by bob\ninput d go(1) from alice\n"
                  "assert d.x == 2\n", tmp_path, source=DEPLOY)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"]) == ("ScriptError", 1)
    assert "argument 1 of 'D'" in diag["message"] and "expected nat" in diag["message"]


def test_diff_trials_container_parameter_exit_zero(tmp_path):
    """`Map.set` and `Seq.append` on a message parameter run on the IR."""
    (tmp_path / "put.asp").write_text("""
contract Put() {
  msg put(map[address, nat]), app(seq[nat]);
  var n: nat;
  initial S;
  state S:
  | a??put(m) -> S { Map.set(m, a, 1); n = Map.get(m, a); }
  | a??app(q) -> S { Seq.append(q, 3); n = Seq.len(q); }
}
""", encoding="utf-8")
    (tmp_path / "put.aspscript").write_text("new p = Put() by alice\n", encoding="utf-8")
    r = run_cli("diff", str(tmp_path / "put.asp"), "--script", str(tmp_path / "put.aspscript"),
                "--out", str(tmp_path), "--trials", "3")
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["divergences"] == 0


@pytest.mark.parametrize("script", ["", "new q = Quiet() by alice\n"],
                         ids=["no-instance", "no-message"])
def test_diff_trials_nothing_to_send_exit_one(script, tmp_path):
    r = _ping_cli("diff", script, tmp_path, "--trials", "3")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    diag = json.loads(r.stdout)
    assert diag["code"] == "ScriptError"
    assert "nothing to send" in diag["message"]


UNDEPLOYABLE = {
    "initializer": ("""
contract V() {
  msg poke;
  var y: nat := 200 + 100;
  initial S;
  state S:
  | a??poke -> S { y = y + 1; }
}
""", "new v = V() by alice\n", "'v'"),
    "constraint": ("""
contract W(x: nat) where x + 200 > 0 {
  msg poke;
  var y: nat;
  initial S;
  state S:
  | a??poke -> S { y = x; }
}
""", "new w = W(100) by alice\n", "'w'"),
}


@pytest.mark.parametrize("trials", ["0", "2"])
@pytest.mark.parametrize("case", sorted(UNDEPLOYABLE))
def test_diff_undeployable_instance_exit_one(case, trials, tmp_path):
    """An instance the cascade deploys but the target cannot, because 300
    overflows an 8-bit word in an initializer or in the constructor
    constraint, is a ScriptError at its `new` line, with and without
    random trials."""
    source, script, name = UNDEPLOYABLE[case]
    r = _ping_cli("diff", script, tmp_path, "--word-bits", "8", "--trials", trials,
                  source=source)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    diag = json.loads(r.stdout)
    assert (diag["code"], diag["line"]) == ("ScriptError", 1)
    assert f"cannot deploy {name} with 8-bit words: Overflow" in diag["message"]


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


def test_prove_invariant_naming_the_player(tmp_path):
    """An invariant that reads the adversarial player proves like the
    corpus lockout proof: exit 0 with a JSON report, no traceback."""
    proof = tmp_path / "lockout.aspproof"
    proof.write_text(load("vending_lockout.aspproof").replace(
        "@Choose customer != Address.none",
        "@Choose customer != Address.none\n    @Wait x != Address.none"),
        encoding="utf-8")
    r = run_cli("prove", str(CORPUS / "vending_fixed.asp"), "--proof", str(proof),
                "--bounds", "addr=2,nat=2,timer=2")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["valid"] is True


def test_prove_unread_timer_reports(tmp_path):
    """A step that sets one timer of a contract with two, under a sketch
    that reads only the set one, gets a JSON report with its
    counterexample, not a traceback."""
    (tmp_path / "t2.asp").write_text("""
contract T2() {
  msg go;
  var t: timer;
  var u: timer;
  initial S;
  state S:
  | a??go when Timer.is_off(t) -> S { Timer.set(t, 2); }
}
""", encoding="utf-8")
    (tmp_path / "t2.aspproof").write_text(
        "safety s { always !Timer.has_fired(t) }", encoding="utf-8")
    r = run_cli("prove", str(tmp_path / "t2.asp"), "--proof", str(tmp_path / "t2.aspproof"),
                "--bounds", "addr=2,nat=1,timer=2")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    vcs = {v["name"]: v for v in json.loads(r.stdout)["vcs"]}
    assert vcs["inductive[T2.go@S#0]"]["counterexample"] == {
        "t": ["off", 0], "a": "P0", "__delta": 2}


def test_prove_reachability_player_exit_one(tmp_path):
    """A reachability sketch has no player: a player section is a sketch
    error, reported as a JSON diagnostic."""
    proof = tmp_path / "closed.aspproof"
    proof.write_text(load("auction_closed.aspproof").replace(
        "goal = {", "player = x\n  goal = {", 1).replace(
        "@AuctionClosed true", "@AuctionClosed x != Address.none"), encoding="utf-8")
    r = run_cli("prove", str(CORPUS / "auction.asp"), "--proof", str(proof),
                "--bounds", "addr=2,nat=2,timer=2")
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    diag = json.loads(r.stdout)
    assert diag["code"] == "SketchError"
    assert "reachability sketch has no player" in diag["message"]


@pytest.mark.parametrize("bounds", ["foo=3", "addr=x", "addr=-1", "addr=0", "addr=3,addr=2"])
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


@pytest.mark.parametrize("args, message", [
    ["prove AUCTION --proof PROOF --bogus", "unrecognized arguments: --bogus"],
    ["prove AUCTION", "the following arguments are required: --proof"],
    ["bogus AUCTION", "invalid choice: 'bogus'"],
], ids=["unknown-flag", "missing-proof", "unknown-subcommand"])
def test_usage_error_is_a_json_diagnostic(args, message):
    """An error that argparse finds in the command line is one JSON
    UsageError on stderr, with exit 2."""
    corpus = {"AUCTION": "auction.asp", "PROOF": "auction_closed.aspproof"}
    r = run_cli(*(str(CORPUS / corpus[a]) if a in corpus else a for a in args.split()))
    assert r.returncode == 2
    diag = json.loads(r.stderr)
    assert diag["code"] == "UsageError" and message in diag["message"]
    assert not r.stdout


def test_help_prints_usage_exit_zero():
    r = run_cli("prove", "--help")
    assert r.returncode == 0
    assert r.stdout.startswith("usage: asp prove") and not r.stderr


@pytest.mark.parametrize("config", ['{"reentrancy_limit": [1]}',
                                    '{"word_bits": true}', '{bad', '[1]'])
def test_bad_config_value_exit_two(config, tmp_path):
    (tmp_path / "asp.config.json").write_text(config, encoding="utf-8")
    r = run_cli("compile", str(CORPUS / "auction.asp"), cwd=tmp_path)
    assert r.returncode == 2
    assert json.loads(r.stderr)["code"] == "UsageError"


def test_null_config_value_counts_as_unset(tmp_path, monkeypatch):
    """A config key set to null takes the option's default, as a missing
    key does; `"word_bits": null` used to escape `main` as a TypeError."""
    from asp.cli import main
    monkeypatch.chdir(tmp_path)
    config = {"trials": 2, "word_bits": None, "seed": None,
              "reentrancy_limit": None, "out": None}
    (tmp_path / "asp.config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["diff", str(CORPUS / "etherstore_attack.asp"),
                 "--script", str(CORPUS / "etherstore_attack.aspscript")]) == 0
    report = json.loads((tmp_path / "diff_report.json").read_text())
    assert report["trials"] == 2


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
