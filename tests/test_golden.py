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
     "951ce9449bc2eadd7de7439b9de3b62dcd481de9358c8c5534a629707be82b91"),
    ("pslq --builtin conj14 --digits 200 --json",
     "ffaa629f9874cd1e70489c71e016288da14def297ddf281fd42df9830bf56ba9"),
    ("pslq --builtin r19 --a 1/pi --b 1/e --digits 200 --json",
     "d885995f28a3e6a358eb7c5d614b6db2fbff16b233faf148d3ef269b662639cf"),
    ("feynman --a 1 --b 1 --digits 50 --json",
     "b8978acf023d73c1589afa5c4ecf3fa89dd09297434edd46eda39345f7842d54"),
    ("feynman --a 0.7 --b 1.1 --method all --digits 100 --json",
     "f15fa9e44f1f5cd7da44841a7c070ab5fb4194b320c35d9874be2b27874b3771"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
