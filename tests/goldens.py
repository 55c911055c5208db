"""The golden compiler outputs under corpus/golden: for each source that
the differential benchmark runs, the Solidity of each of its contracts
(`<contract>.sol`) and its IR dump (`<stem>.ir.json`), as
`asp compile --dump-ir` writes them at reentrancy limit 1 and 256-bit
words; and `smtlib.sha256`, the sha256 of the SMT-LIB script of each
exportable VC of the criterion-9 pairs, one line per VC in VC order.

    python tests/goldens.py

run from the repository root, rewrites every golden file and prints the
name of each one that changed.
"""
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import CORPUS, CRITERION_9_PAIRS, load, typed  # noqa: E402

from asp.cli import _ir_dump  # noqa: E402
from asp.lower import lower  # noqa: E402
from asp.sketch import parse_proof_sketch  # noqa: E402
from asp.smtlib import EmitUnsupported, emit_smtlib  # noqa: E402
from asp.solidity import emit_system  # noqa: E402
from asp.vcgen import generate_vcs  # noqa: E402

GOLDEN = CORPUS / "golden"
SOURCES = ("auction.asp", "etherstore_attack.asp", "vending_fixed.asp", "basic_coin.asp")


def outputs(source: str) -> dict[str, str]:
    """Golden file name -> text, for one source."""
    system = lower(typed(source), 1, 256)
    out = {f"{name}.sol": text for name, text in emit_system(system).items()}
    out[f"{Path(source).stem}.ir.json"] = _ir_dump(system)
    return out


def smtlib_digests() -> str:
    """`<sha256>  <contract>:<proof>:<vc>` for each exportable VC."""
    lines = []
    for contract, proof in CRITERION_9_PAIRS:
        prog = typed(contract)
        for vc in generate_vcs(prog, parse_proof_sketch(load(proof), prog)):
            try:
                text = emit_smtlib(vc).text
            except EmitUnsupported:
                continue
            digest = hashlib.sha256(text.encode()).hexdigest()
            lines.append(f"{digest}  {contract}:{proof}:{vc.name}\n")
    return "".join(lines)


def regenerate() -> list[str]:
    """Rewrite the golden files; the names of those that changed."""
    files = {name: text for source in SOURCES for name, text in outputs(source).items()}
    files["smtlib.sha256"] = smtlib_digests()
    changed = []
    for name, text in files.items():
        path = GOLDEN / name
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            changed.append(name)
            path.write_text(text, encoding="utf-8")
    return changed


if __name__ == "__main__":
    for name in regenerate():
        print(name)
