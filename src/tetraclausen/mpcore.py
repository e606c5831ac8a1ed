"""Explicit-precision real and complex arithmetic.

Every numeric routine in this package receives a :class:`PrecisionCtx` and
performs its arithmetic through it.  There is no ambient precision state:
two contexts built with the same ``(digits, guard_digits)`` produce bitwise
identical results for the same call sequence, and contexts from different
parts of a program never interfere.

A context computes at ``digits + guard_digits`` decimal digits.  Kernels
and the sums built on them keep that precision; only public returns round,
each value once, to ``digits`` (:func:`round_out`).  Non-finite values never
escape: any overflow or domain violation raises :class:`DomainError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath import libmp
from mpmath.ctx_mp import MPContext

__all__ = [
    "DomainError",
    "PrecisionCtx",
    "get_ctx",
    "round_out",
    "to_decimal",
    "from_decimal",
]

class DomainError(ValueError):
    """An input lies outside a function's domain, or a result is non-finite."""


@dataclass(frozen=True)
class PrecisionCtx:
    """Carrier of working precision for all numeric operations.

    Parameters
    ----------
    digits : int
        Decimal digits of delivered precision (>= 15).
    guard_digits : int
        Extra digits used internally to absorb cancellation (>= 5).
    """

    digits: int = 50
    guard_digits: int = 10
    _mp: MPContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.digits < 15:
            raise ValueError("digits must be >= 15, got %r" % (self.digits,))
        if self.guard_digits < 5:
            raise ValueError("guard_digits must be >= 5, got %r" % (self.guard_digits,))
        mp = MPContext()
        mp.dps = self.digits + self.guard_digits
        object.__setattr__(self, "_mp", mp)

    # -- precision bookkeeping ------------------------------------------------

    @property
    def work_dps(self) -> int:
        return self.digits + self.guard_digits

    @property
    def prec_work(self) -> int:
        """Working precision in bits."""
        return self._mp.prec

    @property
    def prec_out(self) -> int:
        """Output precision in bits (``digits`` decimal digits)."""
        return libmp.libmpf.dps_to_prec(self.digits)

    def pow10(self, k: int):
        return self._mp.mpf(10) ** k

    # -- construction ---------------------------------------------------------

    def mpf(self, x):
        """Convert ``x`` (int, float, str, Fraction, mpf) to a working-precision real."""
        if isinstance(x, Fraction):
            return self._mp.mpf(x.numerator) / x.denominator
        return self._mp.mpf(x)

    def mpc(self, re, im=0):
        return self._mp.mpc(self.mpf(re), self.mpf(im))

    def isfinite(self, x) -> bool:
        return bool(self._mp.isfinite(x))

    # -- constants (working precision) ----------------------------------------

    @property
    def pi(self):
        return +self._mp.pi

    @property
    def ln2(self):
        return +self._mp.ln2

    @property
    def inf(self):
        return self._mp.inf

    # -- checked elementary functions (working precision) ---------------------

    def _finite(self, value):
        if not self._mp.isfinite(value):
            raise DomainError("non-finite result")
        return value

    def exp(self, x):
        return self._finite(self._mp.exp(x))

    def log(self, x):
        if isinstance(x, self._mp.mpf) or isinstance(x, (int, float)):
            if x <= 0:
                raise DomainError("log requires a positive real argument, got %s" % x)
            return self._finite(self._mp.log(x))
        if x == 0:
            raise DomainError("log(0) is undefined")
        return self._finite(self._mp.log(x))

    def sqrt(self, x):
        x = self.mpf(x) if isinstance(x, (int, float, Fraction)) else x
        if isinstance(x, self._mp.mpf) and x < 0:
            raise DomainError("sqrt of a negative real, got %s" % x)
        return self._finite(self._mp.sqrt(x))

    def sin(self, x):
        return self._finite(self._mp.sin(x))

    def cos(self, x):
        return self._finite(self._mp.cos(x))

    def tan(self, x):
        return self._finite(self._mp.tan(x))

    def atan(self, x):
        return self._finite(self._mp.atan(x))

    def asin(self, x):
        x = self.mpf(x) if isinstance(x, (int, float, Fraction)) else x
        if isinstance(x, self._mp.mpf) and abs(x) > 1:
            raise DomainError("asin requires |x| <= 1, got %s" % x)
        return self._finite(self._mp.asin(x))

    def nint(self, x) -> int:
        """Nearest integer as a Python int."""
        return int(self._mp.nint(x))


@lru_cache(maxsize=64)
def get_ctx(digits: int = 50, guard_digits: int = 10) -> PrecisionCtx:
    """Shared-context factory; equivalent to PrecisionCtx(...) but memoized."""
    return PrecisionCtx(digits, guard_digits)


def round_out(x, ctx: PrecisionCtx):
    """Round a working-precision value to the context's delivered precision.

    The result is still exact binary data usable in further arithmetic; only
    its mantissa is shortened to ``digits`` decimal digits' worth of bits.
    """
    mp = ctx._mp
    if isinstance(x, mp.mpc):
        re = libmp.mpf_pos(x.real._mpf_, ctx.prec_out, "n")
        im = libmp.mpf_pos(x.imag._mpf_, ctx.prec_out, "n")
        return mp.make_mpc((re, im))
    if not isinstance(x, mp.mpf):
        x = ctx.mpf(x)
    return mp.make_mpf(libmp.mpf_pos(x._mpf_, ctx.prec_out, "n"))


def to_decimal(x, ctx: PrecisionCtx) -> str:
    """Serialize a real value as a decimal string.

    The string carries ``digits + 3`` significant digits, enough that
    :func:`from_decimal` reproduces the value exactly at the context's
    delivered precision.
    """
    mp = ctx._mp
    if not isinstance(x, mp.mpf):
        x = ctx.mpf(x)
    return libmp.to_str(x._mpf_, ctx.digits + 3)


def from_decimal(s: str, ctx: PrecisionCtx):
    """Parse a decimal string produced by :func:`to_decimal` (or hand-written)."""
    try:
        return ctx._mp.mpf(s.strip())
    except ValueError as exc:
        raise ValueError("not a decimal number: %r" % (s,)) from exc
