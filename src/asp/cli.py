"""asp command line: check, simulate, compile, prove, diff.

Machine output is JSON lines on stdout; --pretty switches to a
human-oriented rendering. Exit codes: 0 success, 1 domain failure
(type error, failed proof, failed assertion, divergence), 2 usage or IO
error. Configuration precedence: flags > ASP_* environment variables >
./asp.config.json.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .cascade import CascadeLimit, FixedPolicy, RandomPolicy, Rejected, WhereClauseViolated
from .diagnostics import AspError, InputError, UsageError
from .discharge import DomainBounds
from .parser import parse_program
from .typecheck import typecheck

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _read_config(path: Path) -> dict:
    """The settings in the config file, if there is one; a UsageError if
    it cannot be read or does not hold a JSON object."""
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise UsageError(f"{path}: {e}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return data


def _config_value(args, name: str, default):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    env = os.environ.get("ASP_" + name.upper())
    if env is not None:
        return env
    return args.config.get(name, default)


def _int_option(args, name: str, default, least: int | None = None):
    """An integer option from its flag, ASP_* variable or config key,
    whichever comes first; a UsageError unless it is an integer of at
    least `least`."""
    value = _config_value(args, name, default)
    if value is None:
        return None
    flag = "--" + name.replace("_", "-")
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        n = int(value)
    except ValueError:
        raise UsageError(f"{flag} needs an integer, got {value!r}") from None
    if least is not None and n < least:
        raise UsageError(f"{flag} must be at least {least}, got {n}")
    return n


def _read_text(path) -> str:
    """The UTF-8 text of an input file; an InputError if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _emit(args, payload: dict):
    if getattr(args, "pretty", False):
        for k, v in payload.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(payload))


def _load_program(paths, args):
    sources = [(str(Path(p)), _read_text(p)) for p in paths]
    try:
        program = parse_program("\n".join(text for _, text in sources))
        return typecheck(program)
    except AspError as e:
        print(_locate(e, sources).to_json())
        raise SystemExit(EXIT_FAIL)


def _locate(e: AspError, sources):
    """The diagnostic of an error in the joined sources, against the file
    and the line of that file it comes from; without a line (0) it names
    no file."""
    line = e.pos.line
    if line == 0:
        return e.diagnostic(None)
    for path, text in sources:
        lines = text.count("\n") + 1  # the join adds one line break
        if line <= lines:
            break
        line -= lines
    return replace(e.diagnostic(path), pos=replace(e.pos, line=line))


def _write_out(args, name: str, text: str) -> Path:
    """Write an output file under --out, creating that directory; a
    UsageError if the directory or the file cannot be written."""
    out = Path(str(_config_value(args, "out", ".")))
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from None
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    _load_program(args.files, args)
    _emit(args, {"status": "ok", "files": list(args.files)})
    return EXIT_OK


def cmd_simulate(args) -> int:
    prog = _load_program(args.contracts, args)
    from .script import run_script_text
    text = _read_text(args.script)
    seed = _int_option(args, "seed", None)
    policy = RandomPolicy(seed) if seed is not None else FixedPolicy()
    R = _int_option(args, "reentrancy_limit", 1, least=0)
    try:
        result = run_script_text(prog, text, R, policy)
    except (AspError, CascadeLimit, WhereClauseViolated, Rejected) as e:
        print(e.diagnostic(str(Path(args.script))).to_json())
        return EXIT_FAIL
    trace_lines = [e.to_json() for e in result.events]
    if args.trace_out:
        out = _write_out(args, args.trace_out, "\n".join(trace_lines) + "\n")
        _emit(args, {"status": "ok", "events": len(trace_lines),
                     "trace": str(out)})
    else:
        for line in trace_lines:
            print(line)
    return EXIT_OK


def cmd_compile(args) -> int:
    prog = _load_program(args.contracts, args)
    from .lower import lower
    from .solidity import emit_system
    R = _int_option(args, "reentrancy_limit", 1, least=0)
    word_bits = _int_option(args, "word_bits", 256, least=1)
    system = lower(prog, R, word_bits)
    texts = emit_system(system)
    written = [str(_write_out(args, f"{name}.sol", text))
               for name, text in texts.items()]
    if args.dump_ir:
        written.append(str(_write_out(args, "ir.json", _ir_dump(system))))
    _emit(args, {"status": "ok", "outputs": written})
    return EXIT_OK


def _ir_dump(system) -> str:
    from .pretty import fmt_expr, fmt_stmt
    data = {}
    for name, ir in system.contracts.items():
        data[name] = {
            "states": list(ir.states),
            "initial": ir.initial,
            "methods": {
                msg: [
                    {"state": a.state, "target": a.target, "label": a.label,
                     "when": fmt_expr(a.when) if a.when is not None else None,
                     "body": [l for s in a.body for l in fmt_stmt(s, "")]}
                    for a in arms
                ]
                for msg, arms in ir.methods.items()
            },
            "taus": {
                state: [
                    {"target": a.target, "label": a.label,
                     "when": fmt_expr(a.when) if a.when is not None else None,
                     "body": [l for s in a.body for l in fmt_stmt(s, "")]}
                    for a in arms
                ]
                for state, arms in ir.taus.items() if arms
            },
        }
    return json.dumps({"reentrancy_limit": system.reentrancy_limit,
                       "word_bits": system.word_bits,
                       "contracts": data}, indent=2)


def cmd_prove(args) -> int:
    prog = _load_program(args.contracts, args)
    from .prove import check_proof
    from .sketch import parse_proof_sketch
    from .smtlib import EmitUnsupported, emit_smtlib
    text = _read_text(args.proof)
    try:
        bounds = DomainBounds.parse(str(_config_value(args, "bounds", "")))
    except ValueError as e:
        raise UsageError(f"--bounds: {e}") from None
    solver = _config_value(args, "solver", None)
    timeout_ms = _int_option(args, "timeout_ms", 30000, least=1) if solver else None
    try:
        sketch = parse_proof_sketch(text, prog)
        report = check_proof(prog, sketch, bounds)
    except AspError as e:
        print(e.diagnostic(str(Path(args.proof))).to_json())
        return EXIT_FAIL
    if args.smt_out:
        for r in report.results:
            try:
                script = emit_smtlib(r.vc)
            except EmitUnsupported:
                continue
            _write_out(args, script.filename, script.text)
    if solver:
        _solver_pass(args, report, solver, timeout_ms)
    print(report.to_json())
    return EXIT_OK if report.valid else EXIT_FAIL


def _solver_pass(args, report, solver, timeout_ms):
    """Run the external solver on each exportable VC and compare its
    answer with the bounded verdict the report already holds."""
    import tempfile

    from .smtlib import EmitUnsupported, emit_smtlib, run_solver
    with tempfile.TemporaryDirectory() as tmp:
        for i, r in enumerate(report.results):
            try:
                script = emit_smtlib(r.vc)
            except EmitUnsupported:
                continue
            path = Path(tmp) / f"{i}.smt2"
            path.write_text(script.text, encoding="utf-8")
            verdict = run_solver(solver, str(path), timeout_ms)
            agree = (verdict == "unsat") == r.ok or verdict == "unknown"
            _emit(args, {"vc": r.vc.name, "solver": verdict,
                         "bounded": r.result.status, "agree": agree})


def cmd_diff(args) -> int:
    prog = _load_program(args.contracts, args)
    from .diff import differential_check
    from .script import parse_script
    news, fixed_items = parse_script(_read_text(args.script))
    R = _int_option(args, "reentrancy_limit", 1, least=0)
    word_bits = _int_option(args, "word_bits", 256, least=1)
    seed = _int_option(args, "seed", 0)
    trials = _int_option(args, "trials", 0, least=0)
    if trials:
        report = differential_check(prog, news, R, word_bits, trials, seed=seed)
    else:
        from .diff import run_differential
        report = run_differential(prog, news, fixed_items, R, word_bits)
    out = _write_out(args, "diff_report.json", report.to_json())
    _emit(args, {"status": "ok" if report.clean else "divergent",
                 "items": report.items, "overflow_gaps": report.overflow_gaps,
                 "divergences": len(report.divergences), "report": str(out)})
    return EXIT_OK if report.clean else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="asp", description=__doc__)
    ap.add_argument("--pretty", action="store_true",
                    help="human-readable output instead of JSON lines")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type-check contracts")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("simulate", help="run a cascade script")
    p.add_argument("contracts", nargs="+")
    p.add_argument("--script", required=True)
    p.add_argument("--reentrancy-limit", dest="reentrancy_limit")
    p.add_argument("--seed")
    p.add_argument("--out", dest="out")
    p.add_argument("--trace-out", dest="trace_out",
                   help="write the JSONL trace to this file under --out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compile", help="emit Solidity and the IR dump")
    p.add_argument("contracts", nargs="+")
    p.add_argument("--reentrancy-limit", dest="reentrancy_limit")
    p.add_argument("--word-bits", dest="word_bits")
    p.add_argument("--out", dest="out")
    p.add_argument("--dump-ir", action="store_true")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("prove", help="check a proof sketch")
    p.add_argument("contracts", nargs="+")
    p.add_argument("--proof", required=True)
    p.add_argument("--bounds", help="addr=3,nat=4,timer=5")
    p.add_argument("--solver", help="external SMT solver executable")
    p.add_argument("--timeout-ms", dest="timeout_ms")
    p.add_argument("--out", dest="out")
    p.add_argument("--smt-out", action="store_true",
                   help="export VCs as .smt2 files under --out")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("diff", help="differential compiled-vs-cascade check")
    p.add_argument("contracts", nargs="+")
    p.add_argument("--script", required=True,
                   help="script with `new` lines (plus items unless --trials)")
    p.add_argument("--trials",
                   help="random scripts instead of the file's items")
    p.add_argument("--reentrancy-limit", dest="reentrancy_limit")
    p.add_argument("--word-bits", dest="word_bits")
    p.add_argument("--seed")
    p.add_argument("--out", dest="out")
    p.set_defaults(fn=cmd_diff)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        args.config = _read_config(Path("asp.config.json"))
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except UsageError as e:
        print(e.diagnostic().to_json(), file=sys.stderr)
        return EXIT_USAGE
    except AspError as e:
        print(e.diagnostic().to_json())
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
