"""Exact Gaussian solutions of the free kinetic equation.

The equation rho_t = Delta_v rho - <v, grad_x rho> (zero potential) has
the explicit fundamental solution started from a point (x0, v0):

    mean(t) = (x0 + t v0, v0),
    Sigma(t) = [[2t^3/3 I, t^2 I], [t^2 I, 2t I]].

The velocity diffusion enters with unit coefficient in front of
Delta_v, so the velocity marginal has variance 2t, not t.  These states
are the ground truth the Riccati bound must be sharp against: the log
density has constant Hessian -Sigma(t)^{-1}, which equals the bound
matrix N(t) at zero curvature exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import sys

import numpy as np

from .riccati_engine import BlockSym2n, CurvatureBound, InputError, bound_N

SPD_TOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Gaussian phase-space density at a fixed time.

    mean has shape (2n,), cov is symmetric positive definite (2n, 2n);
    t records the time the state describes.
    """

    mean: np.ndarray
    cov: np.ndarray
    t: float
    n: int

    @staticmethod
    def make(mean, cov, t):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2:
            raise ValueError(f"mean must have shape (2n,), got {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean {mean.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        if np.abs(cov - cov.T).max() > SPD_TOL:
            raise ValueError("cov must be symmetric")
        # Cholesky, not the smallest eigenvalue: eigvalsh's error is absolute,
        # and it reads free_covariance(t, n >= 2) as indefinite below t ~ 1e-8
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            lo = float(np.linalg.eigvalsh(cov)[0])
            raise ValueError(f"cov must be positive definite; min eig {lo:.3e}") from None
        return GaussianState(mean=mean, cov=0.5 * (cov + cov.T), t=float(t),
                             n=mean.size // 2)


def free_covariance(t, n=1):
    """Kernel covariance Sigma(t) of the zero-potential equation.

    Block (i, j) is the (i, j) entry of the 2 x 2 Sigma(t) of n = 1
    times I_n, built in one broadcast multiply: the products, and the
    +0.0 off the block diagonals, of np.block over the four blocks.

    Raises InputError when t^3 overflows, or is so small that the
    largest entry 6 / t^3 of Sigma(t)^{-1} overflows: Sigma(t) is then
    not a positive definite matrix of finite floats with a finite inverse.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    try:
        cube = t**3
    except OverflowError:  # Python floats raise where numpy gives inf
        cube = math.inf
    if not 6.0 / sys.float_info.max < cube < math.inf:
        raise InputError(f"t={t!r}: the kernel covariance, with entries up to "
                         "2 t^3 / 3 and inverse entries up to 6 / t^3, overflows")
    # divide first: 2 t^3 overflows for t^3 in [max / 2, max)
    blocks = np.array([[2.0 * (cube / 3.0), t**2], [t**2, 2.0 * t]])
    return (blocks[:, None, :, None] * np.eye(n)[:, None, :]).reshape(2 * n, 2 * n)


def transport_matrix(tau, n=1):
    """Free-streaming flow map Phi(tau) = [[I, tau I], [0, I]]."""
    I = np.eye(n)
    Z = np.zeros((n, n))
    return np.block([[I, tau * I], [Z, I]])


def kernel_state(x0, v0, t):
    """Fundamental solution started at the point (x0, v0), seen at time t."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    if x0.shape != v0.shape or x0.ndim != 1:
        raise ValueError("x0 and v0 must be 1-d arrays of equal length")
    n = x0.size
    mean = np.concatenate([x0 + t * v0, v0])
    return GaussianState.make(mean, free_covariance(t, n), t)


def propagate(state, tau):
    """Evolve a Gaussian state forward by tau under the free equation.

    The mean follows the transport flow; the covariance picks up the
    kernel covariance of the elapsed interval (Chapman-Kolmogorov).
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    Phi = transport_matrix(tau, state.n)
    mean = Phi @ state.mean
    cov = Phi @ state.cov @ Phi.T + free_covariance(tau, state.n)
    return GaussianState.make(mean, cov, state.t + tau)


def log_density(state, points):
    """Log of the Gaussian density at points of shape (..., 2n)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 2 * state.n:
        raise ValueError(f"points must have last axis {2 * state.n}")
    d = pts - state.mean
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise ValueError("covariance lost positive definiteness")
    sol = np.einsum("...i,ij,...j->...", d, np.linalg.inv(state.cov), d)
    return -state.n * np.log(2.0 * np.pi) - 0.5 * logdet - 0.5 * sol


def density(state, points):
    """Gaussian density at points of shape (..., 2n)."""
    return np.exp(log_density(state, points))


def grid_density(state, xs, vs):
    """Density on a tensor grid (n = 1): returns shape (len(xs), len(vs))."""
    if state.n != 1:
        raise ValueError("grid_density requires n = 1")
    X, V = np.meshgrid(np.asarray(xs, float), np.asarray(vs, float), indexing="ij")
    pts = np.stack([X, V], axis=-1)
    return density(state, pts)


def log_hessian(state):
    """Hessian of log density: the constant matrix -Sigma^{-1}."""
    return BlockSym2n(-np.linalg.inv(state.cov), symmetrize=True)


def pde_residual(state, points):
    """Scaled residual of rho_t = Delta_v rho - <v, grad_x rho>.

    All derivatives are analytic in the Gaussian parameters; the time
    derivative uses the exact mean and covariance flow of the kernel
    state (mean' = (v0, 0), Sigma' = A Sigma + Sigma A^T + diag(0, 2I)).
    The residual is normalized by the peak density, so for a true
    solution it sits at rounding level regardless of t.
    """
    n = state.n
    pts = np.asarray(points, dtype=float).reshape(-1, 2 * n)
    Sinv = np.linalg.inv(state.cov)
    d = pts - state.mean

    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    dSigma = A @ state.cov + state.cov @ A.T
    dSigma[n:, n:] += 2.0 * np.eye(n)
    dmean = np.concatenate([state.mean[n:], np.zeros(n)])

    rho = density(state, pts)
    Sd = d @ Sinv.T  # Sigma^{-1} d per row
    # d/dt log rho = -tr(Sinv dSigma)/2 + d.Sinv.dmean + d.Sinv.dSigma.Sinv.d/2
    dt_log = (
        -0.5 * np.trace(Sinv @ dSigma)
        + Sd @ dmean
        + 0.5 * np.einsum("ri,ij,rj->r", Sd, dSigma, Sd)
    )
    grad = -Sd  # gradient of log rho is -Sinv d; density gradient is rho * that
    # Delta_v rho = rho * (|(Sinv d)_v|^2 - tr(Sinv_vv))
    lap_v = np.einsum("ri,ri->r", Sd[:, n:], Sd[:, n:]) - np.trace(Sinv[n:, n:])
    transport = np.einsum("ri,ri->r", pts[:, n:], grad[:, :n])
    residual = rho * (dt_log - lap_v + transport)
    peak = float(np.exp(log_density(state, state.mean[None, :]))[0])
    return float(np.abs(residual).max()) / peak


def sharpness_gap(state):
    """Max-entry gap between the exact log Hessian and the bound N(t).

    Zero (to rounding) exactly when the state is a kernel state: the
    free fundamental solution saturates the zero-curvature bound.

    `state` is one GaussianState, or a sequence of them that share n;
    a sequence takes every N(t) from one bound_N call over its times (one
    integration) and returns a list of gaps, one per state.  The log
    Hessians -Sigma^{-1} of all states come from one inversion over the
    stack of covariances, symmetrized as log_hessian does, with the bits
    of inverting each covariance alone.
    """
    single = isinstance(state, GaussianState)
    states = [state] if single else list(state)
    if not states:
        raise ValueError("sharpness_gap needs at least one state")
    n = states[0].n
    if any(st.n != n for st in states):
        raise ValueError("states must share the dimension n")
    Ns = bound_N(CurvatureBound(k1=0.0, k2=0.0, n=n), [st.t for st in states])
    H = -np.linalg.inv(np.array([st.cov for st in states]))
    H = 0.5 * (H + H.transpose(0, 2, 1))
    gaps = np.abs(H - np.array([N.entries for N in Ns])).max(axis=(1, 2)).tolist()
    return gaps[0] if single else gaps


def scalar_sharpness_gap(state):
    """Gap in the scalar (velocity-trace) form of the bound.

    Compares tr_v of the log Hessian with -n s0'/(2 s0) evaluated at
    zero curvature, where the trace bound is -2n/t.
    """
    H = log_hessian(state)
    trace_vv = float(np.trace(H.A_vv))
    return trace_vv - (-2.0 * state.n / state.t)


def chapman_gap(s, t, n=1):
    """Max-entry defect of Phi(t-s) Sigma(s) Phi(t-s)^T + Sigma(t-s) - Sigma(t)."""
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    Phi = transport_matrix(t - s, n)
    lhs = Phi @ free_covariance(s, n) @ Phi.T + free_covariance(t - s, n)
    return float(np.abs(lhs - free_covariance(t, n)).max())
