#!/usr/bin/env python3
"""Regenerate ``tests/golden_stats.json``, the golden behaviour oracle.

Run from the repository root::

    python tools/update_golden.py

It recomputes every cell ``tests/test_golden.py`` pins, with the current
simulator, and rewrites the file.  Only a change that is meant to alter
simulated behaviour should do this, and its ``CHANGES.md`` line must say
why the numbers moved.  The cell list and the computation live in the test
module, so the oracle and its regenerator can never disagree.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import GOLDEN_PATH, record_golden_trace, render_golden  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden-") as directory:
        text = render_golden(record_golden_trace(Path(directory)))
    changed = not GOLDEN_PATH.exists() or GOLDEN_PATH.read_text() != text
    GOLDEN_PATH.write_text(text)
    print(f"{GOLDEN_PATH.relative_to(ROOT)}: {'updated' if changed else 'unchanged'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
