"""The golden compiler outputs under corpus/golden: for each source that
the differential benchmark runs, the Solidity of each of its contracts
(`<contract>.sol`) and its IR dump (`<stem>.ir.json`), as
`asp compile --dump-ir` writes them at reentrancy limit 1 and 256-bit
words.

    python tests/goldens.py

run from the repository root, rewrites every golden file and prints the
name of each one that changed.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import CORPUS, typed  # noqa: E402

from asp.cli import _ir_dump  # noqa: E402
from asp.lower import lower  # noqa: E402
from asp.solidity import emit_system  # noqa: E402

GOLDEN = CORPUS / "golden"
SOURCES = ("auction.asp", "etherstore_attack.asp", "vending_fixed.asp", "basic_coin.asp")


def outputs(source: str) -> dict[str, str]:
    """Golden file name -> text, for one source."""
    system = lower(typed(source), 1, 256)
    out = {f"{name}.sol": text for name, text in emit_system(system).items()}
    out[f"{Path(source).stem}.ir.json"] = _ir_dump(system)
    return out


def regenerate() -> list[str]:
    """Rewrite the golden files; the names of those that changed."""
    changed = []
    for source in SOURCES:
        for name, text in outputs(source).items():
            path = GOLDEN / name
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                changed.append(name)
                path.write_text(text, encoding="utf-8")
    return changed


if __name__ == "__main__":
    for name in regenerate():
        print(name)
