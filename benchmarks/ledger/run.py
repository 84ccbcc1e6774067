#!/usr/bin/env python3
"""The perf ledger: one command, seven workloads, end-to-end and per-layer numbers.

Two ways in::

    python benchmarks/ledger/run.py [--seed N] [--trace] [--record]
        every workload, every metric by name with its unit, correctness
        checked, exit 1 if any check fails (README.md has the tables)

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, the contract BENCHMARK.json describes: the last line of
        standard output is one JSON object {correct, attempted, failed, metrics}

Every repeat of every workload runs in a fresh child interpreter, one at a
time, so heap growth and peak RSS do not leak between repeats.  ``src/`` is
put on ``sys.path`` from this file's location; no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"ledger: {SRC}/repro not found: the benchmark runs the program from source", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ledger

    return ledger.main()


if __name__ == "__main__":
    sys.exit(main())
