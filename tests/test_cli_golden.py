"""Behaviour gate: the stdout of fixed CLI runs, pinned by sha256.

A performance change must leave these payloads byte-identical.
"""

import hashlib

import pytest

from birat2.cli import main

GOLDEN = {
    ("verify", "--bound", "800"): (
        "7b50421785a79d1c5797ff3b397b0025d8254044c15321fbb32fc46549b290bc"
    ),
    ("classgroups", "--bound", "3000", "--format", "csv"): (
        "d8184e4460aeee6c3098f2071023d6d19ddc934f9548445b58ceb99791f9d055"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda argv: argv[0])
def test_cli_stdout_sha256(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
