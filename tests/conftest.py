"""Expose the in-tree package to the CLI tests that start a subprocess.

pytest itself finds ``src`` through ``pythonpath`` in pyproject.toml; a
child interpreter only sees it through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
