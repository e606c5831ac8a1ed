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
     "b816e7d19f968ca133953a9f09686dbda0a2130b0a7f42e0edbb232e0a3add30"),
    ("pslq --builtin conj14 --digits 200 --json",
     "0467b21d069aab1ad4d6c5e43b32fe6a75a6c6811bdf5192941956c7685d527b"),
    ("pslq --builtin r19 --a 1/pi --b 1/e --digits 200 --json",
     "ac545d3cb77883b165393e1ac690a617f98c01cf69631a1a2028b46055c2c020"),
    ("feynman --a 1 --b 1 --digits 50 --json",
     "0c51a9bd845b904128b7a4a445fd73735825e7ec6770ec93dbf4254443a719f9"),
    ("feynman --a 0.7 --b 1.1 --method all --digits 100 --json",
     "6dce954045053f0e4a403cbb61709cbea560e2a631245eddca3365e164045d52"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
