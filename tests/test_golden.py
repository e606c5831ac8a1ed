"""Byte-identity of CLI output: sha256 of stdout for five fixed commands.

The digests depend on mpmath's exact rounding, so the test runs only on the
mpmath release and backend they were recorded with.  A change that moves a
digest on purpose (a correctness fix) updates it here and says why in
CHANGES.md.
"""

import hashlib

import mpmath
import pytest

from tetraclausen.cli import main

pytestmark = pytest.mark.skipif(
    mpmath.__version__ != "1.3.0" or mpmath.libmp.BACKEND != "python",
    reason="digests recorded with mpmath 1.3.0 on its pure-Python backend; got %s on %s"
    % (mpmath.__version__, mpmath.libmp.BACKEND))

GOLDEN = [
    ("verify --suite all --samples 20 --seed 42 --digits 60 --json",
     "58c3c9df23d79f40bd8d8230ca9085fcc2bc817747b44fa1868ea6a040bbedc2"),
    ("pslq --builtin conj14 --digits 200 --json",
     "e06a0408570a230411adba866c0558449437e64a55e63a49b3a2ff1776ceda1e"),
    ("pslq --builtin r19 --a 1/pi --b 1/e --digits 200 --json",
     "8a4f1645097e505c709ec596bdba6f39f1ec1022d0ab750cf5df5e5d5a96b97d"),
    ("feynman --a 1 --b 1 --digits 50 --json",
     "2556c46457f99acda7f91959c53fe2d964fb9a4f49a62ef9fb5dae72804ca8d8"),
    ("feynman --a 0.7 --b 1.1 --method all --digits 100 --json",
     "25050fdf8af59eac24d59f39a3a0eed5f4149dbb572d12b1ed7cad1cb8e84cc4"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
