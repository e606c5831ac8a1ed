"""Catalog of Clausen/dilogarithm identities with residual evaluators.

Each entry is an :class:`IdentitySpec` whose builder maps parameter values
to the absolute residual |LHS - RHS| of one identity (differences, never
ratios, so zeros of either side are harmless).  Proven entries must vanish
identically; the single conjectural entry (``conj-1.4``) is verified
numerically at its fixed parameter point and labeled as such.

Fixed angle conventions used throughout:

* ``alpha`` with tan(alpha) = 1/sqrt(2) and ``beta`` with
  tan(beta) = sqrt(8)+sqrt(3) parameterize the fixed-point identities
  conj-1.1 .. conj-1.4;
* ``alpha_B`` with sin(alpha_B) = 1/3 parameterizes the series identity for
  C(1,1); the two conventions are linked by 2*alpha = pi/2 - alpha_B.

Mass-parameterized entries take their angles from ``feynman``'s reduction.
The dilogarithm chain is evaluated once per precision: one cached table of
its residuals serves ``appendix_chain`` and the nine ``chain-2.k`` entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .mpcore import PrecisionCtx, round_out
from .polylog import _cl2 as cl2, _li2 as li2  # unrounded kernels
from . import feynman

__all__ = [
    "IdentitySpec",
    "IdentityReport",
    "ChainReport",
    "BroadhurstSeries",
    "catalog",
    "catalog_names",
    "get_spec",
    "evaluate",
    "verify",
    "broadhurst_series",
    "appendix_chain",
    "conj14_values",
    "PASS_EXPONENT_MARGIN",
]

# An identity passes when max residual < 10^(-digits + PASS_EXPONENT_MARGIN).
PASS_EXPONENT_MARGIN = 10


@dataclass(frozen=True)
class IdentitySpec:
    """One verifiable identity: stable key, parameter domains, residual builder."""

    name: str
    parameters: tuple            # of (param_name, domain_description)
    status: str                  # "proven" | "conjectural"
    builder: object              # callable(params: dict, ctx) -> abs residual
    sampler: object              # callable(rng, index) -> params dict
    description: str = ""


@dataclass(frozen=True)
class IdentityReport:
    name: str
    samples: int
    max_residual: object
    digits: int
    passed: bool
    status: str


@dataclass(frozen=True)
class ChainReport:
    """Residuals of the dilogarithm derivation chain and its substitutions."""

    residuals: dict
    digits: int
    passed: bool

    @property
    def max_residual(self):
        return max(self.residuals.values())


@dataclass(frozen=True)
class BroadhurstSeries:
    """Partial sum of the alternating harmonic-number series for C(1,1)."""

    value: object
    tail_bound: object
    terms: int


# ---------------------------------------------------------------------------
# Shared fixed quantities.
# ---------------------------------------------------------------------------

def _alpha(ctx):
    return ctx.atan(1 / ctx.sqrt(2))


def _beta(ctx):
    return ctx.atan(ctx.sqrt(8) + ctx.sqrt(3))


def _c11_clausen_form(ctx):
    """Broadhurst's form of C(1,1): 4 sqrt(2) (Cl2(4a) - Cl2(2a)), sin(a) = 1/3."""
    al = ctx.asin(ctx.mpf(1) / 3)
    return 4 * ctx.sqrt(2) * (cl2(4 * al, ctx) - cl2(2 * al, ctx))


# ---------------------------------------------------------------------------
# Residual builders.  Each returns |LHS - RHS| as a working-precision real.
# Those of mass entries take the pair's angles, not params (``_mass_spec``).
# ---------------------------------------------------------------------------

def _conj_11(params, ctx):
    al = _alpha(ctx)
    pi = ctx.pi
    lhs = (cl2(al, ctx) + cl2(pi - al, ctx) + cl2(pi / 3 - al, ctx)
           - cl2(2 * pi / 3 - al, ctx))
    rhs = ctx.mpf(7) / 4 * cl2(2 * pi / 3, ctx)
    return abs(lhs - rhs)


def _conj_12(params, ctx):
    al = _alpha(ctx)
    pi = ctx.pi
    return abs(cl2(6 * al - pi, ctx) + cl2(pi + 2 * al, ctx)
               - 2 * cl2(2 * al, ctx) + 2 * cl2(pi - 4 * al, ctx))


def _conj_13(params, ctx):
    al, be = _alpha(ctx), _beta(ctx)
    pi = ctx.pi
    return abs(cl2(pi - 2 * be, ctx) + cl2(2 * be - 4 * al, ctx)
               + cl2(2 * be - 2 * al, ctx) - cl2(2 * be + 2 * al - pi, ctx)
               - cl2(2 * al, ctx) - 2 * cl2(pi - 4 * al, ctx)
               - 2 * cl2(pi + 2 * al, ctx))


def conj14_values(ctx):
    """The five Cl2 values of conj-1.4, in the order of its relation."""
    al, be = _alpha(ctx), _beta(ctx)
    pi = ctx.pi
    return [cl2(2 * be - 2 * al, ctx), cl2(pi - 4 * al, ctx), cl2(pi - 2 * be, ctx),
            cl2(pi + 2 * al, ctx), cl2(4 * al, ctx)]


def _conj_14(params, ctx):
    v = conj14_values(ctx)
    return abs(-12 * v[0] + 4 * v[1] - 12 * v[2] - 18 * v[3] + 7 * v[4])


def _theorem_1(params, ctx):
    t = ctx.mpf(params["t"])
    al = 2 * ctx.atan(t)
    be = 2 * ctx.atan(ctx.sin(al))   # sin(alpha) = tan(beta/2)
    pi = ctx.pi
    return abs(cl2(pi - 2 * be, ctx) - 2 * cl2(be, ctx) - 2 * cl2(pi - be, ctx)
               + 2 * cl2(al, ctx) + 2 * cl2(pi - al, ctx) + 2 * cl2(be - al, ctx)
               - 2 * cl2(pi - al - be, ctx))


def _prop_1(angles, ctx):
    _, _, phi, pha, _, ga = angles
    pi = ctx.pi
    return abs(2 * cl2(2 * ga + 2 * pha - pi, ctx) + 2 * cl2(2 * ga + 2 * phi - pi, ctx)
               + cl2(2 * pha - 4 * phi, ctx) - 2 * cl2(2 * ga - 2 * phi + 2 * pha - pi, ctx)
               + 2 * cl2(pi - 2 * ga, ctx) + cl2(4 * phi, ctx)
               - cl2(2 * pha, ctx) - 4 * cl2(2 * phi, ctx))


def _prop_2(angles, ctx):
    _, _, phi, pha, phb, _ = angles
    return abs(2 * cl2(2 * phi, ctx) - 4 * cl2(2 * phb, ctx) + cl2(4 * phb, ctx)
               + 2 * cl2(2 * phb - 2 * phi, ctx) - 2 * cl2(2 * pha - 2 * phi, ctx)
               + cl2(2 * pha - 4 * phi, ctx) + 2 * cl2(2 * pha + 2 * phb - 2 * phi, ctx)
               - cl2(2 * pha + 4 * phb - 4 * phi, ctx))


def _duplication(params, ctx):
    x = ctx.mpf(params["x"])
    return abs(cl2(2 * x, ctx) - 2 * cl2(x, ctx) + 2 * cl2(ctx.pi - x, ctx))


def _vector_relations(relations, vectors):
    def build(ang, ctx):
        values = {}
        for vec in vectors:
            values.update(getattr(feynman, vec)(ang, ctx))
        worst = ctx._mp.mpf(0)
        for _, combo in relations:
            worst = max(worst, abs(feynman.relation_residual(values, combo)))
        return worst

    return build


def _i1_plus_i2(ang, ctx):
    closed = feynman.closed_integrals(ang, feynman.q_vector(ang, ctx), ctx)
    return abs(closed["I1"] + closed["I2"])


def _angle_relations(ang, ctx):
    residuals = feynman.angle_identity_residuals(ang, ctx)
    return max(abs(v) for v in residuals.values())


def _broadhurst_c11(params, ctx):
    m = feynman.MassPair(ctx.mpf(1), ctx.mpf(1))
    return abs(feynman.c_closed(m, ctx) - _c11_clausen_form(ctx))


def _prop1_t_checks(angles, ctx):
    # The three unit ratios produced by differentiating the eight-term sum:
    # each residual is numerator - denominator of one ratio.
    _, _, phi, pha, _, ga = angles
    half_pi = ctx.pi / 2
    sin = ctx.sin
    t1 = (sin(ga + pha - half_pi) * sin(ga + phi - half_pi)
          - sin(ga - phi + pha - half_pi) * sin(half_pi - ga))
    t2 = (sin(ga + pha - half_pi) ** 2 * sin(pha - 2 * phi)
          - sin(ga - phi + pha - half_pi) ** 2 * sin(pha))
    t3 = (sin(ga + phi - half_pi) * sin(ga - phi + pha - half_pi) * sin(2 * phi)
          - sin(pha - 2 * phi) * sin(phi) ** 2)
    return max(abs(t1), abs(t2), abs(t3))


def _prop2_log_checks(angles, ctx):
    _, _, phi, pha, phb, _ = angles
    sin = ctx.sin
    u1 = (sin(phi) * sin(pha - phi) * sin(pha + 2 * phb - 2 * phi)
          - sin(phb - phi) * sin(pha - 2 * phi) * sin(pha + phb - phi))
    u2 = (sin(pha - 2 * phi) * sin(pha + phb - phi) ** 2
          - sin(pha - phi) ** 2 * sin(pha + 2 * phb - 2 * phi))
    u3 = (sin(2 * phb) * sin(phb - phi) * sin(pha + phb - phi)
          - sin(phb) ** 2 * sin(pha + 2 * phb - 2 * phi))
    return max(abs(u1), abs(u2), abs(u3))


def _lewin_11(params, ctx):
    x = ctx.mpf(params["x"])
    return abs(li2(x, ctx) + li2(-x, ctx) - li2(x * x, ctx) / 2)


def _lewin_12(params, ctx):
    x = ctx.mpf(params["x"])
    return abs(li2(x, ctx) + li2(-x / (1 - x), ctx) + ctx.log(1 - x) ** 2 / 2)


def _lewin_13(params, ctx):
    x = ctx.mpf(params["x"])
    return abs(li2(1 / (1 + x), ctx) - li2(-x, ctx) - ctx.pi ** 2 / 6
               + ctx.log(1 + x) * ctx.log((1 + x) / (x * x)) / 2)


def _lewin_14(params, ctx):
    x, y = ctx.mpf(params["x"]), ctx.mpf(params["y"])
    lhs = li2((x / (1 - x)) * (y / (1 - y)), ctx)
    rhs = (li2(x / (1 - y), ctx) + li2(y / (1 - x), ctx) - li2(x, ctx) - li2(y, ctx)
           - ctx.log(1 - x) * ctx.log(1 - y))
    return abs(lhs - rhs)


def _lewin_15(params, ctx):
    x = ctx.mpf(params["x"])
    return abs(li2(x, ctx) + li2(1 - x, ctx) - ctx.pi ** 2 / 6
               + ctx.log(x) * ctx.log(1 - x))


def _harmonic_series(z, odd, ctx):
    """sum_{n>=1} H_n z^(2n+1)/(2n+1) if ``odd``, else sum_{n>=1} H_n z^(2n),
    for |z| < 1 (real or complex)."""
    mp = ctx._mp
    eps = mp.mpf(2) ** (-ctx.prec_work - 12)
    z2 = z * z
    power, scale = (z * z2, abs(z)) if odd else (z2, abs(z2))
    h = mp.mpf(0)
    total = mp.mpf(0)
    n = 1
    while True:
        h += mp.mpf(1) / n
        term = h * power / (2 * n + 1) if odd else h * power
        total += term
        if abs(term) < eps * max(abs(total), scale):
            return total
        power *= z2
        n += 1


def _harmonic_closed_form(params, ctx):
    if params.get("point") == "complex":
        z = ctx.mpc(0, -1) / ctx.sqrt(8)
    else:
        z = ctx.mpf(params["z"])
    lhs = _harmonic_series(z, True, ctx)
    log1m = ctx.log(1 - z)
    log1p = ctx.log(1 + z)
    rhs = (log1m ** 2 / 2 - log1p ** 2 / 2 + ctx.ln2 * (log1m - log1p)
           + li2((1 + z) / 2, ctx) - li2((1 - z) / 2, ctx)) / 2
    return abs(lhs - rhs)


def _harmonic_gf(params, ctx):
    x = ctx.mpf(params["x"])
    x2 = x * x
    rhs = -ctx.log(1 - x2) / (1 - x2)
    return abs(_harmonic_series(x, False, ctx) - rhs)


# -- dilogarithm chain ------------------------------------------------------

@lru_cache(maxsize=8)
def _chain(ctx):
    """Residuals of the chain's substitutions and nine steps, at working precision.

    One table per precision serves ``appendix_chain`` and the nine
    ``chain-2.k`` entries.  Each distinct ``li2`` value is computed once: ten,
    as z is purely imaginary, so conj(z) = -z."""
    mp, log = ctx._mp, ctx.log
    i = ctx.mpc(0, 1)
    x = (1 + i / ctx.sqrt(8)) / 2
    y = ctx.mpf(1) / 2
    u = (ctx.sqrt(8) + i) / 3
    z = -i / ctx.sqrt(8)
    li_u2, li_mu2, li_u4 = li2(u * u, ctx), li2(-u * u, ctx), li2(u ** 4, ctx)
    li_x, li_xc, li_y = li2(x, ctx), li2(mp.conj(x), ctx), li2(y, ctx)
    li_z, li_mz = li2(z, ctx), li2(-z, ctx)
    li_1mz, li_inv = li2(1 - z, ctx), li2(1 / (1 + z), ctx)
    pi2_6 = ctx.pi ** 2 / 6
    log_1mx = log(1 - x)
    zz = log(z) * log(1 - z)
    inv = log(1 + z) * log((1 + z) / (z * z)) / 2
    rest = ctx.ln2 * log_1mx - log_1mx ** 2 - zz - inv
    rhs_9 = (li_mz - li_z) / i - 3 * (li_x - li_xc) / (2 * i) + rest.imag
    # Step (2.k) is |LHS - (RHS)|, each side summed in its written order.
    return {
        "subst-x-over-1mx": abs(x / (1 - x) - u * u),
        "subst-y-over-1my": abs(y / (1 - y) - 1),
        "subst-x-over-1my": abs(x / (1 - y) - (1 - z)),
        "subst-y-over-1mx": abs(y / (1 - x) - 1 / (1 + z)),
        "u-unit-modulus": abs(abs(u) - 1),
        "chain-2.1": abs(li_u2 - (li_1mz + li_inv - li_x - li_y + ctx.ln2 * log_1mx)),
        "chain-2.2": abs(li_1mz - (-li_z + pi2_6 - zz)),
        "chain-2.3": abs(li_inv - (li_mz + pi2_6 - inv)),
        "chain-2.4": abs(li_u2 - (li_mz - li_z - li_x + ctx.pi ** 2 / 3 - li_y
                                  + ctx.ln2 * log_1mx - zz - inv)),
        "chain-2.5": abs(li_x + li_mu2 - (-log_1mx ** 2 / 2)),
        "chain-2.6": abs(li_u2 + li_mu2 - li_u4 / 2),
        "chain-2.7": abs(li_u4 - (2 * li_u2 - 2 * li_x - log_1mx ** 2)),
        "chain-2.8": abs(li_u4 - li_u2 - (li_mz - li_z - 3 * li_x + ctx.pi ** 2 / 3 - li_y
                                          + ctx.ln2 * log_1mx - log_1mx ** 2 - zz - inv)),
        "chain-2.9": abs((li_u4 - li_u2).imag - rhs_9.real) + abs(rhs_9.imag),
    }


def _chain_step(k):
    """Builder of chain step (2.k): its entry in the table of ``_chain``."""
    return lambda params, ctx: _chain(ctx)["chain-2.%d" % k]


def broadhurst_series(ctx: PrecisionCtx, terms: int) -> BroadhurstSeries:
    """Partial sum of the PSLQ-discovered series equal to C(1,1)/1, i.e.

        sum_{n>=0} (-1/2)^{3n} (1/(n+1/2)) (1/(n+1/2) - 3 log 2)
        - 3 sum_{n>=1} (-1/2)^{3n} H_n/(n+1/2),

    with a rigorous geometric tail bound (ratio 1/8) reported alongside.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    mp = ctx._mp
    log2 = ctx.ln2
    total = mp.mpf(0)
    h = mp.mpf(0)
    eighth = mp.mpf(1) / 8
    power = mp.mpf(1)          # carries (-1/2)^(3n) including the sign
    for n in range(terms):
        half = n + mp.mpf(1) / 2
        term = power * (1 / half) * (1 / half - 3 * log2)
        if n >= 1:
            h += mp.mpf(1) / n
            term -= 3 * power * h / half
        total += term
        power *= -eighth
    h_next = h + mp.mpf(1) / max(terms, 1)
    tail = eighth ** terms * (10 + 8 * h_next)
    return BroadhurstSeries(round_out(total, ctx), round_out(tail, ctx), terms)


def _broadhurst_series_identity(params, ctx):
    # Enough terms that the geometric tail sits below the evaluation noise.
    terms = int((ctx.digits + 8) / 0.903) + 2
    series = broadhurst_series(ctx, terms)
    return abs(series.value - _c11_clausen_form(ctx)) + series.tail_bound


def appendix_chain(ctx: PrecisionCtx) -> ChainReport:
    """Residuals of every step of the dilogarithm chain plus its substitutions,
    from the table the ``chain-2.k`` entries share (``_chain``)."""
    residuals = {k: round_out(v, ctx) for k, v in _chain(ctx).items()}
    threshold = ctx.pow10(-ctx.digits + PASS_EXPONENT_MARGIN)
    passed = all(v < threshold for v in residuals.values())
    return ChainReport(residuals=residuals, digits=ctx.digits, passed=passed)


# ---------------------------------------------------------------------------
# Samplers and catalog entries.
# ---------------------------------------------------------------------------

_MARGIN = 1e-3


def _sample_none(rng, index):
    return {}


def _sample_masses(rng, index):
    while True:
        a = rng.uniform(_MARGIN, 2 - _MARGIN)
        b = rng.uniform(_MARGIN, 2 - _MARGIN)
        if a * a + b * b <= 4 - 2 * _MARGIN:
            return {"a": a, "b": b}


def _sample_xy_abel(rng, index):
    while True:
        x = rng.uniform(_MARGIN, 1 - _MARGIN)
        y = rng.uniform(_MARGIN, 1 - _MARGIN)
        if x + y < 1 - _MARGIN:
            return {"x": x, "y": y}


def _sample_z_series(rng, index):
    if index == 0:
        # The chain applies the identity at imaginary argument; always
        # exercise that branch alongside the random real samples.
        return {"point": "complex"}
    return {"z": rng.uniform(_MARGIN, 0.95)}


def _uniform_spec(name, var, lo, hi, builder, description, note=""):
    """A proven identity in one variable drawn uniformly from (lo, hi)."""
    def sample(rng, index):
        return {var: rng.uniform(lo, hi)}

    return IdentitySpec(name, ((var, "(%s, %s)%s" % (lo, hi, note)),), "proven",
                        builder, sample, description)


_MASS_PARAMS = (("a", "(0.001, 2) with a^2+b^2 <= 4-0.002"),
                ("b", "(0.001, 2) with a^2+b^2 <= 4-0.002"))


def _reduction(a, b, ctx):
    return feynman.derive(feynman.MassPair(a, b), ctx)


def _mass_spec(name, angles, builder, description):
    """A proven identity at sampled masses a, b; ``builder`` gets ``angles(a, b, ctx)``."""
    def build(params, ctx):
        return builder(angles(ctx.mpf(params["a"]), ctx.mpf(params["b"]), ctx), ctx)

    return IdentitySpec(name, _MASS_PARAMS, "proven", build, _sample_masses, description)


_UNIT = (_MARGIN, 1 - _MARGIN)

_CATALOG = (
    IdentitySpec("conj-1.1", (), "proven", _conj_11, _sample_none,
                 "four Cl2 values at tan(alpha)=1/sqrt(2) sum to 7/4 Cl2(2pi/3)"),
    IdentitySpec("conj-1.2", (), "proven", _conj_12, _sample_none,
                 "Cl2(6a-pi)+Cl2(pi+2a)-2Cl2(2a)+2Cl2(pi-4a) = 0"),
    IdentitySpec("conj-1.3", (), "proven", _conj_13, _sample_none,
                 "seven-term relation at tan(beta)=sqrt(8)+sqrt(3)"),
    IdentitySpec("conj-1.4", (), "conjectural", _conj_14, _sample_none,
                 "-12,4,-12,-18,7 relation; numerically confirmed only"),
    _uniform_spec("theorem-1", "t", 0.01, 0.99, _theorem_1,
                  "seven-term family with sin(alpha) = tan(beta/2)", "; tan(alpha/2)=t"),
    _mass_spec("prop-1", feynman._prop_angles, _prop_1,
               "eight-term family in gamma, phi, phi_a"),
    _mass_spec("prop-2", feynman._prop_angles, _prop_2,
               "eight-term family in phi, phi_a, phi_b"),
    _uniform_spec("duplication", "x", _MARGIN, 3.14, _duplication,
                  "Cl2(2x) = 2Cl2(x) - 2Cl2(pi-x)"),
    _mass_spec("q-relations", _reduction,
               _vector_relations(feynman.Q_RELATIONS, ("q_vector",)),
               "duplication consequences among q1..q13"),
    _mass_spec("i1-plus-i2", _reduction, _i1_plus_i2,
               "closed forms of the mass-free pieces cancel"),
    _mass_spec("r-relations", _reduction,
               _vector_relations(feynman.R_RELATIONS, ("r_vector",)),
               "six integer relations among r1..r19"),
    _mass_spec("rs-relations", _reduction,
               _vector_relations(feynman.RS_RELATIONS, ("r_vector", "s_vector")),
               "seven relations tying r to s values"),
    _mass_spec("angle-relations", _reduction, _angle_relations,
               "seven angle identities behind the r-s map"),
    IdentitySpec("broadhurst-c11", (), "proven", _broadhurst_c11, _sample_none,
                 "C(1,1) = 4 sqrt(2) (Cl2(4a)-Cl2(2a)), sin(a)=1/3"),
    _mass_spec("prop1-T-checks", feynman._prop_angles, _prop1_t_checks,
               "the three unit ratios in the derivative of prop-1"),
    _mass_spec("prop2-log-checks", feynman._prop_angles, _prop2_log_checks,
               "the three unit ratios in the derivative of prop-2"),
    _uniform_spec("lewin-1.1", "x", *_UNIT, _lewin_11, "Li2(x)+Li2(-x) = Li2(x^2)/2"),
    _uniform_spec("lewin-1.2", "x", *_UNIT, _lewin_12, "Landen transformation"),
    _uniform_spec("lewin-1.3", "x", *_UNIT, _lewin_13, "inversion-reflection combination"),
    IdentitySpec("lewin-1.4", (("x", "(0.001, 0.999), x+y<1"),
                               ("y", "(0.001, 0.999), x+y<1")), "proven",
                 _lewin_14, _sample_xy_abel, "Abel's two-variable functional equation"),
    _uniform_spec("lewin-1.5", "x", *_UNIT, _lewin_15, "reflection Li2(x)+Li2(1-x)"),
    IdentitySpec("harmonic-closed-form",
                 (("z", "(0.001, 0.95) real; sample 0 fixed at -i/sqrt(8)"),),
                 "proven", _harmonic_closed_form, _sample_z_series,
                 "sum H_n/(2n+1) z^(2n+1) in dilogarithms"),
    _uniform_spec("harmonic-gf", "x", _MARGIN, 0.95, _harmonic_gf,
                  "sum H_n x^(2n) = -log(1-x^2)/(1-x^2)"),
    *(IdentitySpec("chain-2.%d" % k, (), "proven", _chain_step(k),
                   _sample_none, "dilogarithm chain step (2.%d)" % k)
      for k in range(1, 10)),
    IdentitySpec("broadhurst-series", (), "proven", _broadhurst_series_identity,
                 _sample_none, "alternating harmonic series equals the Cl2 form of C(1,1)"),
)

_BY_NAME = {spec.name: spec for spec in _CATALOG}


def catalog() -> list:
    """The full identity catalog, stable-keyed and ordered."""
    return list(_CATALOG)


def catalog_names() -> list:
    return [spec.name for spec in _CATALOG]


def get_spec(name: str) -> IdentitySpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError("unknown identity %r" % name) from None


def evaluate(name: str, params: dict, ctx: PrecisionCtx):
    """Residual of one identity at explicit parameter values."""
    spec = get_spec(name)
    return round_out(spec.builder(params, ctx), ctx)


def verify(name: str, sample_count: int, seed: int, ctx: PrecisionCtx) -> IdentityReport:
    """Evaluate an identity at seeded random parameter samples.

    Deterministic for fixed (name, sample_count, seed, digits).  Identities
    without parameters are evaluated once.
    """
    spec = get_spec(name)
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = random.Random(seed)
    n_eval = sample_count if spec.parameters else 1
    worst = ctx._mp.mpf(0)
    for index in range(n_eval):
        params = spec.sampler(rng, index)
        residual = spec.builder(params, ctx)
        if residual > worst:
            worst = residual
    worst = round_out(worst, ctx)
    passed = worst < ctx.pow10(-ctx.digits + PASS_EXPONENT_MARGIN)
    return IdentityReport(name=name, samples=n_eval, max_residual=worst,
                          digits=ctx.digits, passed=passed, status=spec.status)
