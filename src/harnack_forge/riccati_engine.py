"""Matrix Riccati machinery for the kinetic Harnack bounds.

The central objects are the structural matrices C, D of the kinetic
generator, a curvature matrix K (positive semidefinite), and two Riccati
flows tied together by inversion:

    S' = -C S - S C^T - D + S K S,   S(0) = 0,
    N  = S^{-1},  N' = N C + C^T N + N D N - K,  lim_{t->0} N^{-1} = 0.

N(t) is the sharp lower bound for the Hessian of the log-density of a
solution (shifted by half the potential Hessian).  Everything downstream
calibrates against this module, so it carries two independent pipelines:
direct adaptive integration of S, and the fundamental matrix exponential
M(t) = exp(tH) with S recovered from the block ratio M1 M3^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, solve_continuous_are

from . import _csv

SYMMETRY_TOL = 1e-12
SYMMETRY_ABORT = 1e-9
PSD_TOL = 1e-12
T_MIN_DEFAULT = 1e-3
EXP_ARG_CAP = 700.0


class StepUnderflowError(RuntimeError):
    """Adaptive step size collapsed; carries the last time reached."""

    def __init__(self, last_valid_time):
        super().__init__(
            f"step-size underflow; last valid time {last_valid_time:.6g}"
        )
        self.last_valid_time = last_valid_time


class SymmetryDriftError(RuntimeError):
    """Integration state lost symmetry beyond the abort threshold."""


class SingularityError(RuntimeError):
    """A matrix that must be inverted is numerically singular."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class BlockSym2n:
    """Symmetric 2n x 2n matrix with named (xx, xv, vv) block views.

    Parameters
    ----------
    entries : (2n, 2n) array_like
        Symmetric matrix; symmetry is enforced to 1e-12 at construction.
    symmetrize : bool
        If True, project onto the symmetric part instead of raising when
        the asymmetry is within the abort threshold.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries, symmetrize=False):
        A = np.array(entries, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2:
            raise ValueError(f"expected square 2n x 2n matrix, got {A.shape}")
        drift = float(np.abs(A - A.T).max()) if A.size else 0.0
        if symmetrize:
            A = 0.5 * (A + A.T)
        elif drift > SYMMETRY_TOL:
            raise ValueError(f"matrix not symmetric: max|A - A^T| = {drift:.3e}")
        self.n = A.shape[0] // 2
        self.entries = A

    @property
    def A_xx(self):
        return self.entries[: self.n, : self.n]

    @property
    def A_xv(self):
        return self.entries[: self.n, self.n :]

    @property
    def A_vv(self):
        return self.entries[self.n :, self.n :]

    def max_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.entries)[-1])

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.entries)[0])

    def __repr__(self):
        return f"BlockSym2n(n={self.n},\n{self.entries!r})"


@dataclass(frozen=True)
class StructuralPair:
    """The constant structural matrices C, D of the kinetic generator."""

    C: np.ndarray
    D: np.ndarray


class CurvatureBound:
    """Curvature matrix K, either diag(k1 I, k2 I) or a general PSD matrix.

    Parameters
    ----------
    k1, k2 : float, optional
        Scalar curvature pair; builds K = diag(k1 I_n, k2 I_n).
    matrix : array_like, optional
        General symmetric PSD 2n x 2n matrix (mutually exclusive with
        the scalar form).
    n : int
        Spatial dimension (scalar form only; inferred from `matrix`).
    """

    __slots__ = ("n", "K", "k1", "k2")

    def __init__(self, k1=None, k2=None, matrix=None, n=1):
        if matrix is not None:
            if k1 is not None or k2 is not None:
                raise ValueError("pass either (k1, k2) or matrix, not both")
            K = np.array(matrix, dtype=float)
            if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % 2:
                raise ValueError(f"K must be square 2n x 2n, got {K.shape}")
            if not np.isfinite(K).all():
                raise ValueError("K must be finite")
            if np.abs(K - K.T).max() > SYMMETRY_TOL:
                raise ValueError("K must be symmetric")
            self.n = K.shape[0] // 2
            self.k1 = None
            self.k2 = None
        else:
            if k1 is None or k2 is None:
                raise ValueError("scalar form needs both k1 and k2")
            if n < 1:
                raise ValueError("n must be a positive integer")
            k1, k2 = float(k1), float(k2)
            if not (np.isfinite(k1) and np.isfinite(k2)):
                raise ValueError(f"k1 and k2 must be finite, got ({k1}, {k2})")
            I = np.eye(n)
            K = np.zeros((2 * n, 2 * n))
            K[:n, :n] = k1 * I
            K[n:, n:] = k2 * I
            self.n = n
            self.k1 = k1
            self.k2 = k2
        lo = float(np.linalg.eigvalsh(K)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"K must be positive semidefinite; min eig {lo:.3e}")
        self.K = K

    def __repr__(self):
        if self.k1 is not None:
            return f"CurvatureBound(k1={self.k1}, k2={self.k2}, n={self.n})"
        return f"CurvatureBound(matrix=..., n={self.n})"


def build_structural(n):
    """Structural pair C, D in dimension 2n.

    C carries -I in the (x, v) block, D carries 2I in the (v, v) block;
    entries are exact integers.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"invalid dimension n={n}; need a positive integer")
    I = np.eye(n)
    C = np.zeros((2 * n, 2 * n))
    D = np.zeros((2 * n, 2 * n))
    C[:n, n:] = -I
    D[n:, n:] = 2 * I
    return StructuralPair(C=C, D=D)


def small_time_S(K, t):
    """Leading small-time expansion of S(t).

    S ~ [[-2t^3/3 I, -t^2 I], [-t^2 I, -2t I + 4t^3/3 K_vv]]; the K
    coupling enters the (v,v) block first, at third order.
    """
    K = _as_curvature(K)
    n = K.n
    I = np.eye(n)
    Kvv = K.K[n:, n:]
    top = np.hstack([-2.0 * t**3 / 3.0 * I, -(t**2) * I])
    bot = np.hstack([-(t**2) * I, -2.0 * t * I + 4.0 * t**3 / 3.0 * Kvv])
    return BlockSym2n(np.vstack([top, bot]), symmetrize=True)


def _as_curvature(K, n=1):
    if isinstance(K, CurvatureBound):
        return K
    if np.isscalar(K):
        return CurvatureBound(k1=float(K), k2=float(K), n=n)
    return CurvatureBound(matrix=K)


def _riccati_rhs(S, C, D, K):
    return -C @ S - S @ C.T - D + S @ K @ S


# Dormand-Prince 5(4) tableau, zero-padded to 7 x 7; row 7 doubles as the
# 5th-order weights (FSAL).  _DP_E holds the 5th- minus 4th-order weights.
_DP_A = np.array(
    [
        [0.0] * 7,
        [1 / 5] + [0.0] * 6,
        [3 / 40, 9 / 40] + [0.0] * 5,
        [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_DP_E = _DP_A[6] - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def integrate_S(K, t_end, tol=1e-10, eval_times=None):
    """Integrate S' = -CS - SC^T - D + SKS from S(0) = 0.

    Adaptive embedded Runge-Kutta 5(4) with per-step symmetry projection.

    Parameters
    ----------
    K : CurvatureBound or array_like or scalar
    t_end : float
        Final time, > 0.
    tol : float
        Local error tolerance, in (1e-14, 1e-2).
    eval_times : sequence of float, optional
        Times that must appear exactly in the output grid.

    Returns
    -------
    list of (t, BlockSym2n)
        The solution on the adaptive grid (eval_times included).

    Raises
    ------
    StepUnderflowError
        If the step size collapses (stiff blow-up).
    SymmetryDriftError
        If max|S - S^T| exceeds 1e-9 before projection.
    """
    K = _as_curvature(K)
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not (1e-14 < tol < 1e-2):
        raise ValueError(f"tol must lie in (1e-14, 1e-2), got {tol}")
    sp = build_structural(K.n)
    C, D, Km = sp.C, sp.D, K.K

    extra = [] if eval_times is None else list(np.asarray(eval_times, dtype=float).ravel())
    targets = sorted({float(t_end)} | {float(t) for t in extra})
    if targets[0] <= 0 or targets[-1] > t_end:
        raise ValueError("eval_times must lie in (0, t_end]")

    dim = 2 * K.n
    S = np.zeros((dim, dim))
    t = 0.0
    out = [(0.0, BlockSym2n(S.copy()))]
    h = min(1e-3, t_end / 10.0)
    ks = np.empty((7, dim, dim))  # stage derivatives; ks[0] is the FSAL slot
    flat = ks.reshape(7, dim * dim)  # view: tableau rows contract it in one matmul
    ks[0] = _riccati_rhs(S, C, D, Km)
    ti = 0  # next target index

    while ti < len(targets):
        t_next = targets[ti]
        if t >= t_next - 1e-15:
            ti += 1
            continue
        hits_target = h >= t_next - t
        if hits_target:
            h = t_next - t
        if h < 1e-14 * max(t_end, 1.0):
            raise StepUnderflowError(t)
        for i in range(1, 7):
            stage = S + h * (_DP_A[i, :i] @ flat[:i]).reshape(dim, dim)
            ks[i] = _riccati_rhs(stage, C, D, Km)
        S5 = stage  # the last stage is taken at the 5th-order solution (FSAL)
        scale = tol * (1.0 + np.abs(S5).max())
        err = float(h * np.abs(_DP_E @ flat).max() / scale)
        if err <= 1.0:
            # land on the target exactly: t + (t_next - t) can miss it by an ulp
            t = t_next if hits_target else t + h
            drift = float(np.abs(S5 - S5.T).max())
            if drift > SYMMETRY_ABORT:
                raise SymmetryDriftError(
                    f"symmetry drift {drift:.3e} at t={t:.6g} exceeds {SYMMETRY_ABORT}"
                )
            S = 0.5 * (S5 + S5.T)
            ks[0] = _riccati_rhs(S, C, D, Km)  # refresh FSAL after projection
            out.append((t, BlockSym2n(S.copy())))
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))

    return out


def _scaled_inverse(S, t, n):
    """Invert S with the diag(t^{3/2}, t^{1/2}) symmetric scaling.

    The raw S has condition number O(t^-2) near zero; the scaled matrix
    is O(1), so the inverse keeps full precision for small t.
    """
    tsc = np.concatenate([np.full(n, t**1.5), np.full(n, t**0.5)])
    Shat = S / np.outer(tsc, tsc)
    cond = float(np.linalg.cond(Shat))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularityError(
            f"S(t) numerically singular at t={t:.3g} "
            f"(scaled condition {cond:.3e}); conditioning threshold "
            f"t_min={T_MIN_DEFAULT} applies below that time",
            cond=cond,
        )
    Ninv = np.linalg.inv(Shat) / np.outer(tsc, tsc)
    return Ninv


def bound_curve(K, times, tol=1e-10, t_min=T_MIN_DEFAULT, trajectory=None):
    """Sharp bound matrices N(t) = S(t)^{-1} at every requested time.

    One integration of S to the largest requested time supplies every
    N(t); times below t_min use the analytic small-time expansion
    instead (inversion there would lose ~3 digits per decade).

    Parameters
    ----------
    K : CurvatureBound or array_like or scalar
    times : sequence of float
        Positive times, in any order; duplicates are allowed.
    tol : float
        Local error tolerance of the integration.
    t_min : float
        Crossover time of the small-time expansion.
    trajectory : list of (t, BlockSym2n), optional
        An integrate_S trajectory of K whose grid already contains every
        requested time >= t_min; it replaces the integration.

    Returns
    -------
    list of BlockSym2n
        Symmetric negative-definite N(t), in the order of `times`.

    Raises
    ------
    ValueError
        If a time is not positive, or `trajectory` lacks a requested time.
    """
    K = _as_curvature(K)
    times = np.asarray(times, dtype=float).ravel()
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not (times > 0).all():
        raise ValueError(f"times must be positive, got {times[~(times > 0)][0]}")
    late = times[times >= t_min]
    if late.size:
        if trajectory is None:
            trajectory = integrate_S(K, late.max(), tol=tol, eval_times=late)
        grid = np.array([t for t, _ in trajectory])
    out = []
    for t in times:
        if t < t_min:
            S = small_time_S(K, t).entries
        else:
            # integrate_S skips a target within 1e-15 of a grid time
            row = int(np.abs(grid - t).argmin())
            if abs(grid[row] - t) > 1e-15:
                raise ValueError(f"trajectory has no grid time at t={t!r}")
            S = trajectory[row][1].entries
        out.append(BlockSym2n(_scaled_inverse(S, t, K.n), symmetrize=True))
    return out


def bound_N(K, t, tol=1e-10, t_min=T_MIN_DEFAULT):
    """Sharp bound matrix N(t) = S(t)^{-1}; bound_curve at a single time.

    Returns
    -------
    BlockSym2n
        Symmetric negative-definite N(t).
    """
    return bound_curve(K, [t], tol=tol, t_min=t_min)[0]


def stationary_N(K):
    """Large-time limit of N(t), from the algebraic Riccati equation.

    N_inf solves 0 = N C + C^T N + N D N - K; it is -X for the
    stabilising solution X of the continuous algebraic Riccati equation
    with A = C, B = [0; I], Q = K, R = I/2 (Laub's Schur method).  It is
    independent of both the integration and the exponential route.

    Raises
    ------
    ValueError
        If the K_xx block is singular: (K, C) is then not detectable,
        the equation has no stabilising solution, and N(t) converges
        only algebraically (k1 = 0).
    """
    K = _as_curvature(K)
    n = K.n
    if float(np.linalg.eigvalsh(K.K[:n, :n])[0]) <= PSD_TOL:
        raise ValueError(
            "stationary bound needs a nonsingular K_xx block; with k1 = 0 "
            "N(t) converges only algebraically"
        )
    sp = build_structural(n)
    B = np.vstack([np.zeros((n, n)), np.eye(n)])
    X = solve_continuous_are(sp.C, B, K.K, 0.5 * np.eye(n))
    return BlockSym2n(-X, symmetrize=True)


def hamiltonian_matrix(K):
    """Hamiltonian block matrix H = [[C^T, -K], [-D, -C]] (4n x 4n)."""
    K = _as_curvature(K)
    sp = build_structural(K.n)
    dim = 2 * K.n
    H = np.empty((2 * dim, 2 * dim))
    H[:dim, :dim] = sp.C.T
    H[:dim, dim:] = -K.K
    H[dim:, :dim] = -sp.D
    H[dim:, dim:] = -sp.C
    return H


def fundamental_M(K, t):
    """Fundamental matrix M(t) = exp(t H) by scaling-and-squaring.

    Parameters
    ----------
    K : CurvatureBound or array_like or scalar
    t : float or 1-D array_like of float
        One time, or a grid of times (any order, zero allowed).

    Returns
    -------
    (4n, 4n) ndarray for a scalar t; an (m, 4n, 4n) stack, one slice
    per time, for a grid of m times.  H and the overflow guard are built
    once per call, and each slice equals the scalar-t result bit for bit.

    Raises
    ------
    ValueError
        If a time is not finite.
    OverflowError
        If |t| ||H||_2 exceeds EXP_ARG_CAP at some time: double
        exponentials would overflow there, so no Inf is returned.
    """
    K = _as_curvature(K)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D grid, got shape {ts.shape}")
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise ValueError(f"t must be finite, got {bad[0]}")
    H = hamiltonian_matrix(K)
    spread = np.abs(ts) * float(np.linalg.norm(H, 2))
    over = spread[spread > EXP_ARG_CAP]
    if over.size:
        raise OverflowError(
            f"|t|*||H|| = {over[0]:.3g} exceeds the exponential cap {EXP_ARG_CAP:g}"
        )
    return expm(ts[..., None, None] * H)


def S_from_M(M):
    """Riccati solution with N^{-1} -> 0 recovered from M: N = M1 M3^{-1}.

    Parameters
    ----------
    M : (4n, 4n) or (m, 4n, 4n) array_like
        Fundamental matrix, or a stack of them (fundamental_M of a time
        grid); every lower-left block M3 must be invertible.

    Returns
    -------
    BlockSym2n, or a list of m of them for a stack
        The same object bound_N produces (named S in the block-ratio
        formula; it is the N-normalized solution).

    Raises
    ------
    SingularityError
        For the first M3 block whose condition number exceeds 1e14.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] % 4:
        raise ValueError(f"expected square 4n x 4n matrices, got {M.shape}")
    dim = M.shape[-1] // 2
    M1 = M[..., :dim, :dim]
    M3 = M[..., dim:, :dim]
    cond = np.linalg.cond(M3)
    bad = cond[~(cond <= 1e14)]  # NaN counts as singular
    if bad.size:
        raise SingularityError(
            f"M3 block numerically singular (condition {bad[0]:.3e})", cond=float(bad[0])
        )
    N = M1 @ np.linalg.inv(M3)
    if N.ndim == 2:
        return BlockSym2n(N, symmetrize=True)
    return [BlockSym2n(Nt, symmetrize=True) for Nt in N]


@dataclass
class ComparisonReport:
    """Outcome of a Riccati comparison check on a time grid."""

    status: str  # "ok" or "hypothesis-failed"
    hypothesis_min_eig: float
    ordering_holds: bool
    worst_violation: float
    per_time: list = field(default_factory=list)  # (t, max eig of S_small - S_large)


def comparison_check(K_small, K_large, t_grid, tol=1e-10, slack=1e-8):
    """Check the comparison-theorem ordering S_small(t) <= S_large(t).

    The hypothesis is the semidefinite ordering of the coefficient block
    matrices [[-D, -C], [-C^T, K]]; with shared C, D it reduces to
    K_large - K_small >= 0, checked by eigensolve.  If the hypothesis
    fails the report says so instead of passing or failing the ordering.
    """
    K_small = _as_curvature(K_small)
    K_large = _as_curvature(K_large)
    if K_small.n != K_large.n:
        raise ValueError("curvature bounds must share the dimension")
    diff = K_large.K - K_small.K
    hyp_min = float(np.linalg.eigvalsh(diff)[0])
    if hyp_min < -PSD_TOL:
        return ComparisonReport(
            status="hypothesis-failed",
            hypothesis_min_eig=hyp_min,
            ordering_holds=False,
            worst_violation=np.nan,
        )
    t_grid = sorted(float(t) for t in t_grid)
    t_end = t_grid[-1]
    traj_s = {t: S for t, S in integrate_S(K_small, t_end, tol, eval_times=t_grid)}
    traj_l = {t: S for t, S in integrate_S(K_large, t_end, tol, eval_times=t_grid)}
    per_time = []
    worst = -np.inf
    for t in t_grid:
        gap = traj_s[t].entries - traj_l[t].entries
        top = float(np.linalg.eigvalsh(gap)[-1])
        per_time.append((t, top))
        worst = max(worst, top)
    return ComparisonReport(
        status="ok",
        hypothesis_min_eig=hyp_min,
        ordering_holds=worst <= slack,
        worst_violation=worst,
        per_time=per_time,
    )


def residual_defect(K, trajectory):
    """Re-integration defect of an integrate_S trajectory.

    Between each pair of consecutive snapshots, advance the earlier one
    with 8 fixed RK4 substeps (an integrator independent of the adaptive
    pair) and measure the mismatch with the stored later snapshot,
    scaled the same way the step controller scales its local error.
    All intervals advance together as one stack.  Returns the max over
    the trajectory.
    """
    K = _as_curvature(K)
    if len(trajectory) < 2:
        return 0.0
    sp = build_structural(K.n)
    C, D, Km = sp.C, sp.D, K.K
    ts = np.array([t for t, _ in trajectory])
    snaps = np.array([S.entries for _, S in trajectory])
    S, S1 = snaps[:-1], snaps[1:]
    h = ((ts[1:] - ts[:-1]) / 8.0)[:, None, None]
    for _ in range(8):
        k1 = _riccati_rhs(S, C, D, Km)
        k2 = _riccati_rhs(S + 0.5 * h * k1, C, D, Km)
        k3 = _riccati_rhs(S + 0.5 * h * k2, C, D, Km)
        k4 = _riccati_rhs(S + h * k3, C, D, Km)
        S = S + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    scale = 1.0 + np.abs(S1).max(axis=(1, 2))
    return _worst(np.abs(S - S1).max(axis=(1, 2)) / scale)


def exponential_route_residual(K, t_grid):
    """Residual of the N-equation along the exponential pipeline.

    N_dot computed from the analytic derivative of the block ratio,
    N_dot = (M1_dot - N M3_dot) M3^{-1} with M_dot = H M, compared to
    the Riccati right-hand side N C + C^T N + N D N - K, on one
    fundamental_M stack over the whole grid.
    """
    K = _as_curvature(K)
    sp = build_structural(K.n)
    H = hamiltonian_matrix(K)
    dim = 2 * K.n
    M = fundamental_M(K, np.ravel(t_grid))
    Mdot = H @ M
    M3inv = np.linalg.inv(M[:, dim:, :dim])
    N = M[:, :dim, :dim] @ M3inv
    Ndot = (Mdot[:, :dim, :dim] - N @ Mdot[:, dim:, :dim]) @ M3inv
    rhs = N @ sp.C + sp.C.T @ N + N @ sp.D @ N - K.K
    scale = 1.0 + np.abs(rhs).max(axis=(1, 2))
    return _worst(np.abs(Ndot - rhs).max(axis=(1, 2)) / scale)


def _worst(values):
    """Largest value, at least 0.0; NaNs are skipped, as max(worst, v) does."""
    return float(np.fmax.reduce(values, initial=0.0))


def trajectory_to_csv(trajectory):
    """Serialize a trajectory as CSV: header t,entry_00,entry_01,... row-major."""
    dim = trajectory[0][1].entries.shape[0]
    header = ["t"] + [f"entry_{i}{j}" for i in range(dim) for j in range(dim)]
    ts, states = zip(*trajectory)
    entries = np.array([S.entries.ravel() for S in states])
    return _csv.csv_text(header, [_csv.floats(ts), *map(_csv.floats, entries.T)])
