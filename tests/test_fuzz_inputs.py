"""Seeded token-mutation fuzzing of every input file the command line reads.

Each input is a corpus contract, proof sketch or script, or an
asp.config.json, with one to three of its tokens deleted, duplicated,
swapped with the next, or replaced by another token of the corpus, a
lexer punctuation or a few literals. It runs through `cli.main`
in-process, from a temporary directory, with its unmutated partner files:

- a contract: `compile --dump-ir`;
- a proof sketch: `prove` of its criterion-9 contract at
  addr=1,nat=1,timer=1;
- a script: `simulate` or `diff` of its contract, in turn;
- the config: `diff --trials` of the Etherstore attack or `prove` of the
  auction's refunds, in turn, with their options left to the config.

Every input must end in exit 0, 1 or 2 with no exception escaping `main`.
A non-zero exit prints exactly one JSON diagnostic, unless it is a
verdict: a proof report that is not valid, or a divergent diff.

Tier-1 runs 1,200 inputs on seed 0. A longer run on other seeds:

    PYTHONPATH=src python tests/test_fuzz_inputs.py --inputs 20000 --seed 1

prints the exit codes and every escape with its input, and exits 1 if
anything escaped.
"""
import argparse
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import CORPUS, CRITERION_9_PAIRS  # noqa: E402

from asp.cli import main  # noqa: E402
from asp.lexer import PUNCT  # noqa: E402

CONFIG = json.dumps({"bounds": "addr=1,nat=1,timer=1", "reentrancy_limit": 1,
                     "seed": 3, "trials": 2, "word_bits": 16, "out": "out"})
BOUNDS = ("--bounds", "addr=1,nat=1,timer=1")
SCRIPTS = {"auction_happy.aspscript": "auction.asp",
           "etherstore_attack.aspscript": "etherstore_attack.asp"}

# A word, a string literal, a lexer punctuation (longest first), or any
# other single character; whitespace and comments separate tokens.
_SPACE = re.compile(r"(?:\s+|//[^\n]*|/\*.*?\*/)+", re.S)
_TOKEN = re.compile(r'\w+|"[^"\n]*"|' + "|".join(map(re.escape, PUNCT)) + r"|\S")
_LITERALS = ("0", "1", "2", "256", "99999999999999999999", '"x"', "null", "#")


def tokens(text: str) -> list[str]:
    """The text split into alternating separators and tokens: the pieces
    at even indices are whitespace or comments (possibly empty), those at
    odd indices tokens, so joining them gives the text back."""
    out, i = [], 0
    while i < len(text):
        sep = _SPACE.match(text, i)
        j = sep.end() if sep else i
        out.append(text[i:j])
        if j == len(text):
            return out
        tok = _TOKEN.match(text, j)
        out.append(tok.group())
        i = tok.end()
    out.append("")
    return out


def _vocabulary() -> list[str]:
    texts = [p.read_text(encoding="utf-8") for p in CORPUS.glob("*.asp*")]
    words = {tok for text in texts + [CONFIG] for tok in tokens(text)[1::2]}
    return sorted(words) + list(PUNCT) + list(_LITERALS)


VOCABULARY = _vocabulary()


def mutate(text: str, rng: random.Random) -> str:
    """The text with one to three token mutations."""
    pieces = tokens(text)
    for _ in range(rng.randint(1, 3)):
        slots = range(1, len(pieces), 2)
        if not slots:
            break
        i = rng.choice(slots)
        kind = rng.randrange(5)
        if kind == 0:  # delete
            pieces[i] = ""
        elif kind == 1:  # duplicate
            pieces[i] = f"{pieces[i]} {pieces[i]}"
        elif kind == 2 and i + 2 < len(pieces):  # swap with the next
            pieces[i], pieces[i + 2] = pieces[i + 2], pieces[i]
        elif kind == 3:  # another token of the same text
            pieces[i] = rng.choice(pieces[1::2])
        else:
            pieces[i] = rng.choice(VOCABULARY)
    return "".join(pieces)


def _bases():
    """(file name, text, argv builder) for each fuzzed input; the builder
    takes the input's path and its index."""
    proofs = {proof: contract for contract, proof in CRITERION_9_PAIRS}
    out = []
    for path in sorted(CORPUS.glob("*.asp*")):
        name, text = path.name, path.read_text(encoding="utf-8")
        if path.suffix == ".asp":
            argv = lambda f, i: ["compile", f, "--dump-ir", "--out", "out"]
        elif path.suffix == ".aspproof":
            argv = lambda f, i, c=str(CORPUS / proofs[name]): \
                ["prove", c, "--proof", f, *BOUNDS]
        else:
            argv = lambda f, i, c=str(CORPUS / SCRIPTS[name]): \
                [("simulate", "diff")[i % 2], c, "--script", f]
        out.append((name, text, argv))
    out.append(("asp.config.json", CONFIG, lambda f, i: (
        ["diff", str(CORPUS / "etherstore_attack.asp"),
         "--script", str(CORPUS / "etherstore_attack.aspscript")],
        ["prove", str(CORPUS / "auction.asp"),
         "--proof", str(CORPUS / "auction_refunds.aspproof")])[i % 2]))
    return out


def _json_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except ValueError:
        return {}
    return obj if isinstance(obj, dict) else {}


def _is_diagnostic(line: str) -> bool:
    return {"severity", "code", "message"} <= _json_object(line).keys()


def _is_failed_verdict(stdout: str) -> bool:
    """A proof report that is not valid, or a divergent diff."""
    last = stdout.splitlines()[-1] if stdout else ""
    return (_json_object(stdout).get("valid") is False
            or _json_object(last).get("status") == "divergent")


def run_one(name: str, text: str, argv: list[str]):
    """Run one input from the current directory: (exit code, problem or
    None). The problem is a traceback, or what is wrong with the output."""
    Path(name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException:  # noqa: B036 - any escape is the finding
        return None, traceback.format_exc()
    finally:
        Path(name).unlink()
    if code not in (0, 1, 2):
        return code, f"exit code {code!r}"
    if code == 0 or code == 1 and _is_failed_verdict(out.getvalue()):
        return code, None
    lines = (out.getvalue() + err.getvalue()).splitlines()
    n = sum(map(_is_diagnostic, lines))
    return code, None if n == 1 else f"{n} JSON diagnostics on exit {code}"


def fuzz(inputs: int, seed: int, workdir: Path):
    """Run `inputs` mutated inputs from `workdir`: (exit code counts,
    problems as (index, argv, mutated text, problem))."""
    bases = _bases()
    counts: dict = {}
    problems = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i in range(inputs):
            name, text, argv = bases[i % len(bases)]
            mutated = mutate(text, random.Random(f"{seed}/{i}"))
            args = argv(name, i // len(bases))
            code, problem = run_one(name, mutated, args)
            counts[code] = counts.get(code, 0) + 1
            if problem:
                problems.append((i, args, mutated, problem))
    finally:
        os.chdir(cwd)
    return counts, problems


def test_mutation_keeps_separators():
    text = "contract A() { msg m(nat); }  // c\n"
    assert "".join(tokens(text)) == text
    assert tokens(text)[1::2][:4] == ["contract", "A", "(", ")"]
    assert tokens(CONFIG)[1::2][:3] == ["{", '"bounds"', ":"]


def test_token_mutations_end_cleanly(tmp_path):
    """1,200 mutated inputs each end in exit 0, 1 or 2, no exception
    escapes, and every failure that is not a verdict is one JSON
    diagnostic."""
    counts, problems = fuzz(1200, 0, tmp_path)
    assert not problems, problems[0]
    assert counts.get(0, 0) > 0 and counts.get(1, 0) > 0
    assert sum(counts.values()) == 1200


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--inputs", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=1)
    opts = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        counts, problems = fuzz(opts.inputs, opts.seed, Path(tmp))
    for i, args, mutated, problem in problems:
        print(f"--- input {i} (seed {opts.seed}): asp {' '.join(args)}\n"
              f"{mutated}\n{problem}")
    print(f"{opts.inputs} inputs, seed {opts.seed}: exit codes "
          f"{dict(sorted(counts.items(), key=str))}, {len(problems)} problems")
    sys.exit(1 if problems else 0)
