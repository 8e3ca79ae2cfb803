"""Puts the benchmark's modules and the package source on the path for
its self-tests: ``python3 -m pytest perfbench -q`` from the checkout."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
