"""Self-tests of the ledger (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parents[1]
ROOT = LEDGER_DIR.parents[1]

# The ledger's modules import each other as siblings, the way run.py sees them.
for path in (str(ROOT / "src"), str(LEDGER_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)
