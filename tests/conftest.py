"""Puts the checkout's ``src`` on the import path after ``PYTHONPATH``, so
that bare ``pytest`` tests the checkout and a run with ``PYTHONPATH`` at
another copy of the package tests that copy."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))
