"""Interpreters started by the tests import birat2 from src/, as the test
process itself does through ``pythonpath`` in pyproject.toml.  Reference
helpers that several test modules share are fixtures here."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def genus_2rank():
    """Reference 2-rank of the narrow class group of a fundamental D by genus
    theory: one less than the number of prime discriminants dividing D, that
    is, than the number of primes dividing it."""
    from birat2 import factorize, is_fundamental_discriminant

    def rank(D):
        assert is_fundamental_discriminant(D), D
        return len(factorize(abs(D))) - 1

    return rank
