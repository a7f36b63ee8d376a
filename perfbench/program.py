"""Locate and import the cusumkit sources of the checkout the benchmark sits in.

The benchmark always measures the sources next to it (``<checkout>/src``),
never an installed copy, and refuses to run when they are absent.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cusumkit"


def load():
    """Import cusumkit and cusumkit.cli from ``<checkout>/src``.

    Exits with a non-zero status when the sources are missing or when the
    import resolves to another copy of the package.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cusumkit sources at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import cusumkit
    import cusumkit.cli  # noqa: F401  (part of what every workload imports)

    if Path(cusumkit.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"perfbench: imported cusumkit from {cusumkit.__file__}")
    return cusumkit
