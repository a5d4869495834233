"""Closed-form evaluation of the sharp bound in the five curvature regimes.

For scalar curvature pairs (k1, k2) the Riccati bound has explicit
solutions built from three scalar functions s0, s1, s2 (and the
derivative s0'), with the regime decided by the sign of k2^2 - 2 k1:

    CASE1  k2^2 > 2 k1 > 0     two hyperbolic rates
    CASE2  k2^2 = 2 k1 > 0     degenerate double rate
    CASE3  k2^2 < 2 k1         mixed hyperbolic / trigonometric
    CASE4  k2^2 > 2 k1 = 0     single hyperbolic rate
    CASE5  k1 = k2 = 0         free kinetic transport (polynomial)

Two of the published regime formulas disagree with the matrix-exponential
oracle: the CASE4 triple has flipped signs and one mismatched argument,
and the CASE5 s1, s2 are half the oracle value.  eval_sfuncs returns the
corrected CASE4 triple; printed_sfuncs preserves the literal published
one.  assemble_bound applies the published global 1/2 either literally
(PRINTED) or with the per-block factors that reproduce the oracle
(ORACLE_CALIBRATED, the default), and reconcile tabulates the
discrepancies as errata rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _csv
from .riccati_engine import BlockSym2n, CapError, CurvatureBound, InputError
from .riccati_engine import S_from_M, fundamental_M

HYP_ARG_CAP = 700.0
EQ_TOL_DEFAULT = 1e-12
# reconcile reports a block whose printed and oracle entries differ by more
# than this, relative to max(1, |oracle|)
ERRATA_REL_TOL = 1e-9

CASE1 = "CASE1"
CASE2 = "CASE2"
CASE3 = "CASE3"
CASE4 = "CASE4"
CASE5 = "CASE5"

PRINTED = "PRINTED"
ORACLE_CALIBRATED = "ORACLE_CALIBRATED"


class DomainError(InputError):
    """s0 <= 0: the closed form has cancelled to no precision at all."""


@dataclass(frozen=True)
class Regime:
    """Curvature regime with its spectral parameters.

    params holds the rates the regime formulas use: lambda1/lambda2
    (CASE1), lam (CASE2), mu1/mu2 (CASE3), beta (CASE4), empty (CASE5).
    """

    tag: str
    k1: float
    k2: float
    params: dict


@dataclass(frozen=True)
class SFuncs:
    """Scalar bound functions at one time."""

    t: float
    s0: float
    s1: float
    s2: float
    s0dot: float
    regime: Regime


def classify(k1, k2):
    """Classify (k1, k2) into one of the five regimes.

    The CASE2 boundary k2^2 = 2 k1 is matched with relative tolerance
    EQ_TOL_DEFAULT * max(1, k2^2).  The bound is continuous across the
    boundary, so nearby pairs may land on either side; the s-functions are not:
    the CASE1 and CASE3 ones carry a common factor (4 b^2, mu2^2) that
    vanishes on the boundary and cancels in assemble_bound.  A pair that
    is not finite and nonnegative raises ValueError.
    """
    k1, k2 = float(k1), float(k2)
    if not (0 <= k1 < math.inf and 0 <= k2 < math.inf):
        raise ValueError(f"curvature pair must be nonnegative and finite, got ({k1}, {k2})")
    disc = k2 * k2 - 2.0 * k1
    if k1 == 0.0 and k2 == 0.0:
        return Regime(CASE5, k1, k2, {})
    # before the discriminant test: k2 * k2 may underflow to 0 for tiny k2
    if k1 == 0.0:
        return Regime(CASE4, k1, k2, {"beta": math.sqrt(k2 / 2.0)})
    if abs(disc) <= EQ_TOL_DEFAULT * max(1.0, k2 * k2) and k1 > 0:
        return Regime(CASE2, k1, k2, {"lam": math.sqrt(k2)})
    if disc > 0:
        r = math.sqrt(disc)
        return Regime(
            CASE1,
            k1,
            k2,
            {"lambda1": math.sqrt(k2 + r), "lambda2": math.sqrt(k2 - r)},
        )
    root = math.sqrt(2.0 * k1)
    return Regime(
        CASE3,
        k1,
        k2,
        {"mu1": math.sqrt(root + k2), "mu2": math.sqrt(root - k2)},
    )


def _check_arg_cap(regime, t):
    """Raise CapError if the closed forms of regime overflow at time t."""
    # the s0' formulas double the fastest rate (cosh(2*rate*t) terms),
    # so the doubled argument is what must stay under the exp cap
    arg = 2.0 * max(regime.params.values(), default=0.0) * t
    if arg > HYP_ARG_CAP:
        raise CapError(f"hyperbolic argument {arg:.3g} exceeds cap {HYP_ARG_CAP:g} "
                       f"for regime {regime.tag} at t={t:.6g}")


def _raw_sfuncs(regime, t):
    """Corrected s-triple and s0' for one regime at time t > 0."""
    k1, k2 = regime.k1, regime.k2
    if regime.tag == CASE1:
        # With lambda1,2 = a +- b every function is 4 b^2 times a term free
        # of the cancellation that the lambda form suffers as b -> 0 (near
        # CASE2); b = r / (lambda1 + lambda2) avoids subtracting the rates.
        l1, l2 = regime.params["lambda1"], regime.params["lambda2"]
        a, b = (l1 + l2) / 2, math.sqrt(k2 * k2 - 2 * k1) / (l1 + l2)
        sh, q = math.sinh(a * t), a * math.sinh(b * t) / b  # q = a t sinhc(b t)
        sh2, q2 = math.sinh(2 * a * t), a * math.sinh(2 * b * t) / b
        c = 4 * b * b
        s0 = c * (sh - q) * (sh + q)
        s1 = c * a * (a * a - b * b) * (sh2 + q2)
        s2 = c * (a * a - b * b) * (sh * sh + q * q)
        s0dot = c * a * (sh2 - q2)
        return s0, s1, s2, s0dot
    if regime.tag == CASE2:
        rk = regime.params["lam"]
        sh, ch = math.sinh(rk * t), math.cosh(rk * t)
        s0 = sh**2 - k2 * t**2
        s1 = 2 * k2**1.5 * (rk * t + sh * ch)
        s2 = k2 * (sh**2 + k2 * t**2)
        s0dot = 2 * rk * sh * ch - 2 * k2 * t
        return s0, s1, s2, s0dot
    if regime.tag == CASE3:
        m1, m2 = regime.params["mu1"], regime.params["mu2"]
        a, b = m1 / math.sqrt(2), m2 / math.sqrt(2)
        sh, ch = math.sinh(a * t), math.cosh(a * t)
        sn, cn = math.sin(b * t), math.cos(b * t)
        s0 = m2**2 * sh**2 - m1**2 * sn**2
        s1 = 2 * math.sqrt(k1) * m1 * m2 * (m1 * sn * cn + m2 * ch * sh)
        s2 = math.sqrt(2 * k1) * (m1**2 * sn**2 + m2**2 * sh**2)
        s0dot = m2**2 * a * math.sinh(2 * a * t) - m1**2 * b * math.sin(2 * b * t)
        return s0, s1, s2, s0dot
    if regime.tag == CASE4:
        b = regime.params["beta"]
        sh, ch = math.sinh(b * t), math.cosh(b * t)
        s0 = math.sqrt(2 * k2) * t * ch * sh - 2 * sh**2
        s1 = 2 * math.sqrt(2 * k2**3) * sh * ch
        s2 = 2 * k2 * sh**2
        s0dot = 2 * b * b * t * math.cosh(2 * b * t) - b * math.sinh(2 * b * t)
        return s0, s1, s2, s0dot
    return t**4, 6 * t, 3 * t**2, 4 * t**3


def eval_sfuncs(k1, k2, t):
    """Evaluate (s0, s1, s2, s0') at time t with the corrected formulas.

    In exact arithmetic s0 > 0 for every t > 0 in every regime, so the
    bound is defined on the whole time axis:

        CASE1  s0 = 4 b^2 (sh - q)(sh + q), sh - q = a t (sinhc(a t) -
               sinhc(b t)) > 0, as a > b > 0 and sinhc x = sinh x / x
               increases
        CASE2  s0 = sinh^2(lam t) - (lam t)^2 > 0
        CASE3  s0 = (2 / t^2)(y^2 sinh^2 x - x^2 sin^2 y), x = mu1 t / sqrt 2,
               y = mu2 t / sqrt 2, > 0 as sinh x / x > 1 >= |sin y| / y
        CASE4  s0 = 2 sinh(beta t)(beta t cosh(beta t) - sinh(beta t)) > 0
        CASE5  s0 = t^4

    The formulas cancel catastrophically as t -> 0, or as the rates
    vanish; below t ~ 1e-3 use the Riccati expansion path instead.

    Raises
    ------
    ValueError
        If t is not positive and finite, or the pair is not finite and
        nonnegative.
    CapError
        An InputError and an OverflowError: twice the regime's fastest
        rate times t exceeds HYP_ARG_CAP, where the hyperbolic functions
        would overflow.
    DomainError
        An InputError: s0 evaluates nonpositive, which only floating-point
        cancellation can cause.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    regime = classify(k1, k2)
    _check_arg_cap(regime, t)
    s0, s1, s2, s0dot = _raw_sfuncs(regime, t)
    if not s0 > 0:
        raise DomainError(
            f"s0({t:.6g}) = {s0:.3e} for regime {regime.tag}: the closed form "
            "lost all precision (s0 > 0 for every t > 0, but it cancelled to 0); "
            "use the exponential route (fundamental_M, S_from_M) or the Riccati "
            "route (bound_N) instead"
        )
    return SFuncs(t=float(t), s0=s0, s1=s1, s2=s2, s0dot=s0dot, regime=regime)


def printed_sfuncs(k1, k2, t):
    """The literal published s-triple (CASE4 signs and argument as printed).

    Only CASE4 differs from eval_sfuncs at the s-function level; the
    CASE5 factor-of-two sits in the published global 1/2 and shows up in
    assemble_bound / reconcile instead.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    regime = classify(k1, k2)
    _check_arg_cap(regime, t)
    if regime.tag == CASE4:
        k2 = regime.k2
        b = regime.params["beta"]
        sh, ch = math.sinh(b * t), math.cosh(b * t)
        s0 = 2 * math.sinh(math.sqrt(2 * k2) * t) ** 2 - math.sqrt(2 * k2) * t * ch * sh
        s1 = -2 * math.sqrt(2 * k2**3) * sh * ch
        s2 = -2 * k2 * sh**2
        # literal d/dt of the printed s0
        s0dot = 4 * math.sqrt(2 * k2) * math.sinh(math.sqrt(2 * k2) * t) * math.cosh(
            math.sqrt(2 * k2) * t
        ) - (math.sqrt(2 * k2) * ch * sh + k2 * t * math.cosh(2 * b * t))
        return SFuncs(t=float(t), s0=s0, s1=s1, s2=s2, s0dot=s0dot, regime=regime)
    return eval_sfuncs(k1, k2, t)


def assemble_bound(sf, n=1, normalization=ORACLE_CALIBRATED):
    """Assemble the 2n x 2n bound matrix from an SFuncs value.

    PRINTED applies the published global factor 1/2 to the raw matrix

        [[-s1/s0 I, s2/s0 I], [s2/s0 I, -s0'/s0 I]].

    ORACLE_CALIBRATED (default) additionally applies the per-block
    factors that make the result agree with the matrix-exponential
    oracle: (1, 1, 1) in CASE1-CASE4, (2, 2, 1) on (xx, xv, vv) in
    CASE5.
    """
    if normalization not in (PRINTED, ORACLE_CALIBRATED):
        raise ValueError(f"unknown normalization {normalization!r}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    cxx = cxv = cvv = 0.5
    if normalization == ORACLE_CALIBRATED and sf.regime.tag == CASE5:
        cxx, cxv = 1.0, 1.0
    I = np.eye(n)
    top = np.hstack([cxx * (-sf.s1 / sf.s0) * I, cxv * (sf.s2 / sf.s0) * I])
    bot = np.hstack([cxv * (sf.s2 / sf.s0) * I, cvv * (-sf.s0dot / sf.s0) * I])
    return BlockSym2n(np.vstack([top, bot]))


@dataclass(frozen=True)
class ErrataRow:
    """One block-level discrepancy between printed and oracle bounds."""

    regime: str
    k1: float
    k2: float
    t: float
    block: str
    printed: float
    oracle: float
    ratio: float


def reconcile(k1, k2, t_grid):
    """Compare the literal printed bound against the exponential oracle.

    Returns the ErrataRow list for every (t, block) whose relative
    mismatch exceeds ERRATA_REL_TOL; an empty list means the printed
    formulas agree with the oracle on the whole grid.
    """
    rows = []
    K = CurvatureBound(k1=k1, k2=k2, n=1)
    oracles = S_from_M(fundamental_M(K, t_grid))
    for t, oracle in zip(t_grid, oracles):
        sf = printed_sfuncs(k1, k2, t)
        printed = assemble_bound(sf, n=1, normalization=PRINTED).entries
        for block, (i, j) in (("xx", (0, 0)), ("xv", (0, 1)), ("vv", (1, 1))):
            p, o = float(printed[i, j]), float(oracle.entries[i, j])
            if abs(p - o) > ERRATA_REL_TOL * max(1.0, abs(o)):
                rows.append(
                    ErrataRow(
                        regime=sf.regime.tag,
                        k1=float(k1),
                        k2=float(k2),
                        t=float(t),
                        block=block,
                        printed=p,
                        oracle=o,
                        ratio=p / o,
                    )
                )
    return rows


def errata_csv(rows):
    """Serialize errata rows: regime,k1,k2,t,block,printed,oracle,ratio."""
    header = ["regime", "k1", "k2", "t", "block", "printed", "oracle", "ratio"]
    columns = ([getattr(r, name) for r in rows] for name in header)
    return _csv.csv_text(header, [
        col if name in ("regime", "block") else _csv.floats(col)
        for name, col in zip(header, columns)
    ])
