"""Behaviour gate: the stdout of fixed CLI runs, pinned by sha256.

A performance change or a refactor must leave these payloads byte-identical.
Each test id is the whole command line, so an id names one fixed command.
"""

import hashlib
import shlex

import pytest

from birat2.cli import main

GOLDEN = {
    ("enumerate", "--kind", "quad-birational", "--bound", "20000"): (
        "71e3439db8bee9844a2ae3ca03fd9e96d0f38e519219560b3579f754341f1ead"
    ),
    ("enumerate", "--kind", "multiquad-rational", "--bound", "3000", "--format", "csv"): (
        "ec1f1fbadfd7a8c318be1a7634048d4de42ed0d0b5b4a28e4321750a6b73d813"
    ),
    ("verify", "--bound", "800"): (
        "7b50421785a79d1c5797ff3b397b0025d8254044c15321fbb32fc46549b290bc"
    ),
    ("classgroups", "--bound", "3000", "--format", "csv"): (
        "d8184e4460aeee6c3098f2071023d6d19ddc934f9548445b58ceb99791f9d055"
    ),
    ("rayclass", "--p", "5", "--q", "3", "--levels", "12"): (
        "aa92c7e78a9d5f3c2ff4b41ba29aac10e78df3079a1278a64d8f3fc264ad2fb5"
    ),
    ("rayclass", "--p", "1000000000001669", "--q", "3", "--levels", "24"): (
        "74f16d43f1eec10ce586b1aa535b8f5617a5627e5685d19aa758c6140f78ab79"
    ),
    ("rayclass", "--p", "3", "--q", "5", "--levels", "12", "--table"): (
        "48e81783954529aeae223aa012dc9eaad872508050862554f1a083895f048410"
    ),
    ("tower", "--p", "3", "--q", "5", "--choices", "PQP", "--realize"): (
        "6bbed389d60d882480bdbf3fe13c5b27338e942a92e9be3fec70994b0d3cfe7b"
    ),
    ("tower", "--p", "11", "--q", "13", "--choices", "QP", "--realize"): (
        "198e5dfe31f24f11002283417b8320285cd00b7b115e2610c4b7c9b3e74e4d7c"
    ),
    # without --realize step 1 is still built and checked, and not printed
    ("tower", "--p", "3", "--q", "5", "--choices", "PQ"): (
        "113f57a02c4208757852abc936c09267731c50cd8720dbc07409fb82e3b0e8dd"
    ),
    ("tower", "--p", "1000000123", "--q", "1000000021", "--choices", "QPQ"): (
        "5910a6f74c6e8bfce143700476fe04a776815b49196a1439633715591356c2be"
    ),
    ("tower", "--p", "11", "--q", "13", "--choices", ""): (
        "4531df1c2eabcc88610da5784fa95182bc84ff8b0922d3339ff203e6bcd09ca6"
    ),
    ("kprime", "--p", "3", "--q", "5"): (
        "b81ed8ad1f38c7317a32cc065ee073bbd38cff964aa5cb9a70172a213c8c9589"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=shlex.join)
def test_cli_stdout_sha256(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
