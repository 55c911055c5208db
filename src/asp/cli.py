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
from pathlib import Path

from .cascade import CascadeLimit, FixedPolicy, RandomPolicy, Rejected, WhereClauseViolated
from .diagnostics import AspError, Diagnostic
from .discharge import DomainBounds
from .parser import parse_program
from .typecheck import typecheck

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _config_value(args, name: str, default):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    env = os.environ.get("ASP_" + name.upper())
    if env is not None:
        return env
    cfg = Path("asp.config.json")
    if cfg.exists():
        try:
            data = json.loads(cfg.read_text())
            if name in data:
                return data[name]
        except (OSError, json.JSONDecodeError):
            pass
    return default


def _emit(args, payload: dict):
    if getattr(args, "pretty", False):
        for k, v in payload.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(payload))


def _load_program(paths, args):
    sources = []
    for p in paths:
        path = Path(p)
        if not path.exists():
            print(Diagnostic("error", "IOError", f"no such file: {p}").to_json(),
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        sources.append((str(path), path.read_text(encoding="utf-8")))
    try:
        program = parse_program("\n".join(text for _, text in sources))
        return typecheck(program)
    except AspError as e:
        print(e.diagnostic(sources[0][0] if sources else None).to_json())
        raise SystemExit(EXIT_FAIL)


def _out_dir(args) -> Path:
    out = Path(_config_value(args, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    script = Path(args.script)
    if not script.exists():
        print(Diagnostic("error", "IOError", f"no such file: {script}").to_json(),
              file=sys.stderr)
        return EXIT_USAGE
    seed = _config_value(args, "seed", None)
    policy = RandomPolicy(int(seed)) if seed is not None else FixedPolicy()
    R = int(_config_value(args, "reentrancy_limit", 1))
    try:
        result = run_script_text(prog, script.read_text(encoding="utf-8"), R,
                                 policy)
    except (AspError, CascadeLimit, WhereClauseViolated, Rejected) as e:
        print(e.diagnostic(str(script)).to_json())
        return EXIT_FAIL
    trace_lines = [e.to_json() for e in result.events]
    if args.trace_out:
        out = _out_dir(args) / args.trace_out
        out.write_text("\n".join(trace_lines) + "\n", encoding="utf-8")
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
    R = int(_config_value(args, "reentrancy_limit", 1))
    word_bits = int(_config_value(args, "word_bits", 256))
    system = lower(prog, R, word_bits)
    out = _out_dir(args)
    written = []
    for name, text in emit_system(system).items():
        path = out / f"{name}.sol"
        path.write_text(text, encoding="utf-8")
        written.append(str(path))
    if args.dump_ir:
        ir_path = out / "ir.json"
        ir_path.write_text(_ir_dump(system), encoding="utf-8")
        written.append(str(ir_path))
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
    proof_path = Path(args.proof)
    if not proof_path.exists():
        print(Diagnostic("error", "IOError", f"no such file: {proof_path}").to_json(),
              file=sys.stderr)
        return EXIT_USAGE
    try:
        bounds = DomainBounds.parse(str(_config_value(args, "bounds", "")))
    except ValueError as e:
        print(Diagnostic("error", "UsageError", f"--bounds: {e}").to_json(),
              file=sys.stderr)
        return EXIT_USAGE
    try:
        sketch = parse_proof_sketch(proof_path.read_text(encoding="utf-8"), prog)
        report = check_proof(prog, sketch, bounds)
    except AspError as e:
        print(e.diagnostic(str(proof_path)).to_json())
        return EXIT_FAIL
    if args.smt_out:
        out = _out_dir(args)
        from .vcgen import generate_vcs
        for vc in generate_vcs(prog, sketch):
            try:
                script = emit_smtlib(vc)
            except EmitUnsupported:
                continue
            (out / script.filename).write_text(script.text, encoding="utf-8")
    solver = _config_value(args, "solver", None)
    if solver:
        _solver_pass(args, prog, sketch, bounds, solver)
    print(report.to_json())
    return EXIT_OK if report.valid else EXIT_FAIL


def _solver_pass(args, prog, sketch, bounds, solver):
    import tempfile

    from .discharge import Valid, discharge_bounded
    from .smtlib import EmitUnsupported, emit_smtlib, run_solver
    from .vcgen import generate_vcs
    timeout_ms = int(_config_value(args, "timeout_ms", 30000))
    for vc in generate_vcs(prog, sketch):
        try:
            script = emit_smtlib(vc)
        except EmitUnsupported:
            continue
        with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as f:
            f.write(script.text)
            path = f.name
        verdict = run_solver(solver, path, timeout_ms)
        bounded = discharge_bounded(vc, bounds)
        agree = (verdict == "unsat") == isinstance(bounded, Valid) or verdict == "unknown"
        _emit(args, {"vc": vc.name, "solver": verdict,
                     "bounded": bounded.status, "agree": agree})


def cmd_diff(args) -> int:
    prog = _load_program(args.contracts, args)
    from .diff import differential_check
    from .script import parse_script
    script_path = Path(args.script)
    if not script_path.exists():
        print(Diagnostic("error", "IOError", f"no such file: {script_path}").to_json(),
              file=sys.stderr)
        return EXIT_USAGE
    news, fixed_items = parse_script(script_path.read_text(encoding="utf-8"))
    R = int(_config_value(args, "reentrancy_limit", 1))
    word_bits = int(_config_value(args, "word_bits", 256))
    seed = int(_config_value(args, "seed", 0))
    if args.trials:
        report = differential_check(prog, news, R, word_bits, args.trials,
                                    seed=seed)
    else:
        from .diff import run_differential
        report = run_differential(prog, news, fixed_items, R, word_bits)
    out = _out_dir(args) / "diff_report.json"
    out.write_text(report.to_json(), encoding="utf-8")
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
    p.add_argument("--trials", type=int, default=0,
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
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except AspError as e:
        print(e.diagnostic().to_json())
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
