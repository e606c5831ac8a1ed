"""Fixed CPU work that measures how fast the machine runs right now.

On a shared host the speed of a core drifts by 30% over minutes (other
guests, frequency changes), and CPU time does not remove that.  The warm
worker times ``calibrate`` just before and just after every job; dividing
the job's CPU time by the mean of the two and multiplying by
``REFERENCE_S`` gives the job's cost at a fixed reference speed.  The loop
uses its own mpmath context, so nothing the program under test does can
change its cost.

A cold job is a fresh interpreter, and a short loop timed in one tracks its
speed badly (see ``run.ref_seconds``).  So before every cold job the
benchmark runs ``python bench/calib.py``, a fresh interpreter that imports
mpmath and does fixed high-precision work from cold caches, as a cold CLI
job does; its CPU time against ``COLD_REFERENCE_S`` gives the cold job's
speed factor.  It uses mpmath only, never the program under test.
"""

import time

import mpmath

# CPU seconds the loop takes at the reference speed (about its time on an
# idle 2-core x86-64 box with mpmath's pure-Python backend).
REFERENCE_S = 0.005

_CTX = mpmath.MPContext()
_CTX.dps = 60


def calibrate() -> float:
    """CPU seconds spent on a fixed mix of 60-digit mpmath arithmetic."""
    ctx = _CTX
    t = time.process_time()
    x = ctx.mpf(1) / 3
    s = ctx.mpf(0)
    for k in range(1, 90):
        s += ctx.exp(x / k) * ctx.sqrt(x + k) - ctx.log(k + x)
    return time.process_time() - t


# CPU seconds of ``python bench/calib.py`` at the reference speed.
COLD_REFERENCE_S = 0.7


def cold_work():
    mpmath.mp.dps = 300
    mpmath.clsin(2, 1)
    mpmath.zeta(3)
    mpmath.polylog(2, 0.3)
    +mpmath.catalan
    mpmath.quad(lambda t: mpmath.log(1 + t * t), [0, 1])


if __name__ == "__main__":
    cold_work()
