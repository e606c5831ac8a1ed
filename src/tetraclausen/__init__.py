"""High-precision toolkit around the two-mass tetrahedral vacuum integral.

Evaluates C(a,b) by three independent routes (closed Clausen form, direct
double-exponential quadrature, and the full stepwise reduction), verifies a
catalog of Clausen-function and dilogarithm identities numerically at
configurable precision, and rediscovers the catalog's integer relations
with a PSLQ engine.
"""

from .mpcore import (
    DomainError,
    PrecisionCtx,
    from_decimal,
    get_ctx,
    round_out,
    to_decimal,
)
from .quad import QuadratureError, QuadratureResult, integrate
from .polylog import cl2, cl2_series_reference, li2
from .feynman import (
    DerivedAngles,
    MassPair,
    RouteMismatchError,
    StepReport,
    c_closed,
    c_direct,
    derive,
    stepwise,
)
from .pslq import InsufficientPrecision, RelationResult, check_relation, find_relation
from .identities import (
    BroadhurstSeries,
    ChainReport,
    IdentityReport,
    IdentitySpec,
    appendix_chain,
    broadhurst_series,
    catalog,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "PrecisionCtx", "from_decimal", "get_ctx", "round_out",
    "to_decimal",
    "QuadratureError", "QuadratureResult", "integrate",
    "cl2", "cl2_series_reference", "li2",
    "DerivedAngles", "MassPair", "RouteMismatchError",
    "StepReport", "c_closed", "c_direct", "derive", "stepwise",
    "InsufficientPrecision", "RelationResult", "check_relation", "find_relation",
    "BroadhurstSeries", "ChainReport", "IdentityReport", "IdentitySpec",
    "appendix_chain", "broadhurst_series", "catalog", "verify",
    "__version__",
]
