"""Interpreters started by the tests import birat2 from src/, as the test
process itself does through ``pythonpath`` in pyproject.toml."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
