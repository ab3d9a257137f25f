"""Locate the checkout's ``src/contrafact`` and import it from there.

The benchmark measures the code next to it, never an installed copy, and
fails without a result when the package source is absent.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_contrafact() -> None:
    if not (SRC / "contrafact" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'contrafact'}")
    sys.path.insert(0, str(SRC))
    import contrafact

    if Path(contrafact.__file__).resolve().parent != SRC / "contrafact":
        sys.exit(f"perfbench: imported contrafact from {contrafact.__file__}, not {SRC}")
