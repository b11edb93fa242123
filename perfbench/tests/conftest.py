"""Make the benchmark modules and the program importable in these tests.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
