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
from itertools import product, tee
from math import factorial, fsum, isfinite, nan
from operator import mul

import numpy as np

from . import _csv

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-12
# the largest argument of exp the package takes: exp(700) ~ 1e304 is below overflow
EXP_ARG_CAP = 700.0
# integrate_S takes no step shorter than STEP_FLOOR * max(t_end, 1)
STEP_FLOOR = 1e-14
# integrate_S merges a target within MERGE_TOL of the time it has reached,
# and bound_N matches requested times to the grid with the same tolerance
MERGE_TOL = 1e-15
# comparison_check counts a top eigenvalue of S_small - S_large up to this
# as ordered
COMPARISON_SLACK = 1e-8
# stationary_N's sign iteration settles in 3 to 7 steps for curvatures in
# [1e-8, 1e12]; past this many it stops and leaves the rest to Newton-Kleinman
SIGN_STEPS = 50


class InputError(ValueError):
    """An input outside the domain of the routine that refuses it.

    Each routine raises it, or a subclass, before it takes the work the
    input would break; any other error is a fault of the computation.
    """


class CapError(OverflowError, InputError):
    """A time past the cap beyond which double exponentials overflow."""


class StepUnderflowError(RuntimeError):
    """Adaptive step size collapsed; carries the last time reached."""

    def __init__(self, last_valid_time):
        super().__init__(
            f"step-size underflow; last valid time {last_valid_time:.6g}"
        )
        self.last_valid_time = last_valid_time


class SingularityError(RuntimeError):
    """A matrix that must be inverted is numerically singular.

    cond is its condition number; index is its position in the stack it
    came from (None for a single matrix).
    """

    def __init__(self, message, cond=None, index=None):
        super().__init__(message)
        self.cond = cond
        self.index = index


class M3SingularityError(SingularityError, InputError):
    """The M3 block of a fundamental matrix is too ill-conditioned to invert:
    the exponential route cannot reach that time."""


class BlockSym2n:
    """Symmetric 2n x 2n matrix with named (xx, xv, vv) block views.

    Parameters
    ----------
    entries : (2n, 2n) array_like, n >= 1
        Symmetric matrix; symmetry is enforced to 1e-12 at construction.
    symmetrize : bool
        If True, store the symmetric part 0.5 (A + A^T) whatever the
        asymmetry; no asymmetry scan runs.  If False, raise ValueError
        unless max|A - A^T| is at most SYMMETRY_TOL, so an entry that is
        NaN or infinite is refused.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries, symmetrize=False):
        A = np.array(entries, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2 or not A.size:
            raise ValueError(f"entries must be a square 2n x 2n matrix with n >= 1, "
                             f"got shape {A.shape}")
        if symmetrize:
            A = 0.5 * (A + A.T)
        else:
            with np.errstate(invalid="ignore"):  # inf - inf is a NaN drift, refused
                drift = float(np.abs(A - A.T).max())
            if not drift <= SYMMETRY_TOL:
                raise ValueError(f"matrix not symmetric: max|A - A^T| = {drift:.3e}")
        self.n = A.shape[0] // 2
        self.entries = A

    @classmethod
    def _wrap(cls, A):
        """Wrap a fresh, exactly symmetric float (2n, 2n) array as it is.

        For arrays this module has just symmetrized itself: no copy and
        no second asymmetry scan.
        """
        self = object.__new__(cls)
        self.n = A.shape[0] // 2
        self.entries = A
        return self

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
        Spatial dimension (scalar form only; inferred from `matrix`); a
        positive integer, else ValueError, as in build_structural.
    """

    __slots__ = ("n", "K", "k1", "k2")

    def __init__(self, k1=None, k2=None, matrix=None, n=1):
        if matrix is not None:
            if k1 is not None or k2 is not None:
                raise ValueError("pass either (k1, k2) or matrix, not both")
            K = np.array(matrix, dtype=float)
            if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % 2 or not K.size:
                raise ValueError(f"K must be square 2n x 2n with n >= 1, got {K.shape}")
            if not np.isfinite(K).all():
                raise ValueError("K must be finite")
            if np.abs(K - K.T).max() > SYMMETRY_TOL:
                raise ValueError("K must be symmetric")
            self.n = K.shape[0] // 2
            self.k1 = None
            self.k2 = None
            lo = float(np.linalg.eigvalsh(K)[0])
        else:
            if k1 is None or k2 is None:
                raise ValueError("scalar form needs both k1 and k2")
            _check_dimension(n)
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
            lo = min(k1, k2)  # the eigenvalues of diag(k1 I, k2 I)
        if lo < -PSD_TOL:
            raise ValueError(f"K must be positive semidefinite; min eig {lo:.3e}")
        self.K = K

    def __repr__(self):
        if self.k1 is not None:
            return f"CurvatureBound(k1={self.k1}, k2={self.k2}, n={self.n})"
        return f"CurvatureBound(matrix=..., n={self.n})"


def _check_dimension(n):
    """Raise ValueError unless n is a positive integer (bool is not one)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"invalid dimension n={n!r}; need a positive integer")


def build_structural(n):
    """Structural pair C, D in dimension 2n.

    C carries -I in the (x, v) block, D carries 2I in the (v, v) block;
    entries are exact integers.  n must be a positive integer (ValueError).
    """
    _check_dimension(n)
    I = np.eye(n)
    C = np.zeros((2 * n, 2 * n))
    D = np.zeros((2 * n, 2 * n))
    C[:n, n:] = -I
    D[n:, n:] = 2 * I
    return StructuralPair(C=C, D=D)


def small_time_S(K, t):
    """Leading small-time expansion of S(t).

    S ~ [[-2t^3/3 I, -t^2 I], [-t^2 I, -2t I + 4t^3/3 K_vv]]; the K
    coupling enters the (v,v) block first, at third order.  t must be
    finite and >= 0 (S(0) = 0), else InputError.
    """
    K = _as_curvature(K)
    if not 0 <= float(t) < np.inf:
        raise InputError(f"t={t!r} must be finite and >= 0")
    n = K.n
    I = np.eye(n)
    Kvv = K.K[n:, n:]
    top = np.hstack([-2.0 * t**3 / 3.0 * I, -(t**2) * I])
    bot = np.hstack([-(t**2) * I, -2.0 * t * I + 4.0 * t**3 / 3.0 * Kvv])
    return BlockSym2n(np.vstack([top, bot]), symmetrize=True)


def _as_curvature(K):
    if not isinstance(K, CurvatureBound):
        raise TypeError(f"K must be a CurvatureBound, got {type(K).__name__}")
    return K


def _riccati_rhs(S, negC, CT, D, K, out, work):
    """Write -C S - S C^T - D + S K S into out, given -C and C^T built once
    by the caller.

    The operations are those of ((-C S) - (S C^T)) - D + (S K) S, each on
    the same operands, so out holds the bits of that expression.  S may be
    one matrix or a stack; out and the two arrays of work have the shape
    of the result and must not overlap S or each other.
    """
    a, b = work
    np.matmul(S, K, out=b)
    np.matmul(b, S, out=out)
    np.matmul(negC, S, out=a)
    np.matmul(S, CT, out=b)
    np.subtract(a, b, out=a)
    np.subtract(a, D, out=a)
    np.add(a, out, out=out)


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
# the same weights as Python floats, for the packed stepper: (i, the first i
# weights of row i) for each stage i, and the error weights
_DP_ROWS = [(i, tuple(_DP_A[i, :i].tolist())) for i in range(1, 7)]
_DP_E_ROW = tuple(_DP_E.tolist())


def integrate_S(K, t_end, tol=1e-10, eval_times=None):
    """Integrate S' = -CS - SC^T - D + SKS from S(0) = 0.

    Adaptive embedded Runge-Kutta 5(4) (Dormand-Prince).  Its grid rule:
    no step is shorter than the floor STEP_FLOOR * max(t_end, 1); a step
    is cut short to land exactly on the next target (an eval time or
    t_end); a target within MERGE_TOL of the time reached merges with
    it.  The step size follows h *= min(5, max(0.2, 0.9 err^-0.2)), where
    err is h max|E . k| / (tol (1 + max|S5|)) over the entries of the
    5th-order solution S5 and of the error weights E contracted with the
    stages k.

    The form of K picks the state the steps carry; one loop holds the
    grid rule for both:

    - A scalar pair (K.k1 is not None) keeps S = [[a I, b I], [b I, c I]]
      for every t, so the steps carry the three floats (a, b, c) of the
      n = 1 block:

          a' = 2b + k1 a^2 + k2 b^2
          b' = c + k1 ab + k2 bc
          c' = -2 + k1 b^2 + k2 c^2

      Each stage and error sum is math.fsum over the rounded products of
      the tableau row with the stages; a step whose sums meet inf - inf
      or overflow is rejected, as a NaN error would be, and Python floats
      raise no float warnings on the way.  The trajectory is built once,
      at the end: each S is a view of one stack, with s (x) I_n on the
      diagonals of its blocks and +0.0 everywhere else.
    - A matrix K steps the 2n x 2n S in numpy, in a workspace allocated
      once per call (the stage state, its increment, the error vector
      and the right-hand side's temporaries are written in place), and
      only each accepted S is a fresh array.  Each stage state takes
      every entry below the diagonal from its mirror above it; otherwise
      each operation, operand and order is that of the plain per-step
      expressions, so the trajectory has their bits.  The stages run
      with numpy's overflow and invalid warnings off, and a step whose
      S5 or error is not finite is rejected, so a blow-up ends in
      StepUnderflowError, as for a scalar pair.

    Either state is symmetric by construction, so no projection runs and
    the last stage, taken at S5, is always the next first stage (FSAL).

    Parameters
    ----------
    K : CurvatureBound
    t_end : float
        Final time, finite and > 0.
    tol : float
        Local error tolerance, in (1e-14, 1e-2).
    eval_times : sequence of float, optional
        Times that must appear exactly in the output grid.  A time
        within MERGE_TOL (1e-15) of the previous grid time merges with
        it and does not appear again; bound_N and comparison_check read
        the grid with the same tolerance.

    Returns
    -------
    list of (t, BlockSym2n)
        The solution on the adaptive grid (eval_times included).

    Raises
    ------
    InputError
        Before the first step: if t_end is not finite and positive, tol
        lies outside (1e-14, 1e-2), or the first step min(1e-3,
        t_end / 10) or the smallest eval time lies under the floor.
        After the integration up to it: at a time from which the next
        target lies more than MERGE_TOL but less than the floor ahead,
        whether the loop landed there on an eval time or by an adaptive
        step (the message names both times).  Either way no trajectory
        is returned, so a caller that writes it writes nothing.
    ValueError
        If an eval time does not lie in (0, t_end] (NaN does not).
    StepUnderflowError
        If the adaptive step size collapses under the floor (stiff
        blow-up).
    """
    K = _as_curvature(K)
    t_end = float(t_end)
    if not 0 < t_end < np.inf:
        raise InputError(f"t_end={t_end!r} must be finite and positive")
    if not (1e-14 < tol < 1e-2):
        raise InputError(f"tol={tol!r} must lie in (1e-14, 1e-2)")

    extra = [] if eval_times is None else list(np.asarray(eval_times, dtype=float).ravel())
    targets = sorted({t_end} | {float(t) for t in extra})
    if not all(0 < t <= t_end for t in targets):  # a NaN sorts anywhere
        raise ValueError("eval_times must lie in (0, t_end]")
    floor = STEP_FLOOR * max(t_end, 1.0)
    h = min(1e-3, t_end / 10.0)
    if h < floor:
        raise InputError(f"t_end={t_end!r} cannot be resolved: the first step "
                         f"{h:.3g} falls under the step floor {floor:.3g}")
    if targets[0] < floor:  # before the loop, which would merge it with t = 0
        raise InputError(f"eval time t={targets[0]!r} cannot be resolved at "
                         f"t_end={t_end!r}: it lies under the step floor {floor:.3g}")

    stepper = _MatrixStepper(K) if K.k1 is None else _PackedStepper(K)
    t = 0.0
    times = [t]
    ti = 0  # next target index

    while ti < len(targets):
        t_next = targets[ti]
        if t >= t_next - MERGE_TOL:
            ti += 1
            continue
        if t_next - t < floor:
            raise InputError(
                f"t={t!r} and t={t_next!r} cannot both be resolved at t_end={t_end!r}: "
                f"they are {t_next - t:.3g} apart, under the step floor {floor:.3g}, "
                f"and more than {MERGE_TOL:g} apart, so they do not merge"
            )
        hits_target = h >= t_next - t
        if hits_target:
            h = t_next - t
        if h < floor:
            raise StepUnderflowError(t)
        err = stepper.trial(h, tol)
        if err <= 1.0:
            # land on the target exactly: t + (t_next - t) can miss it by an ulp
            t = t_next if hits_target else t + h
            stepper.accept()
            times.append(t)
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))

    return stepper.trajectory(times)


class _MatrixStepper:
    """integrate_S's steps for a matrix K: the 2n x 2n state in numpy.

    trial(h, tol) takes one step from the accepted S and returns its
    scaled error; accept() keeps it; trajectory(times) pairs the
    accepted states with their times.
    """

    def __init__(self, K):
        sp = build_structural(K.n)
        self.rhs_args = (-sp.C, sp.C.T, sp.D, K.K)
        dim = 2 * K.n
        self.S = np.zeros((dim, dim))  # every S is a fresh array, never written to
        self.states = [self.S]
        self.ks = np.empty((7, dim, dim))  # stage derivatives; ks[0] is the FSAL slot
        self.flat = self.ks.reshape(7, dim * dim)  # tableau rows contract it in one matmul
        # the flat index of each entry (i, j)'s upper-triangle mirror
        # (min(i, j), max(i, j)): every stage takes its entries through it
        i, j = np.indices((dim, dim))
        self.mirror = np.minimum(i, j) * dim + np.maximum(i, j)
        # the workspace, written in place at every step: the stage state, its
        # increment, the error vector, a scratch matrix for the norm, and the
        # right-hand side's two temporaries
        self.stage = np.empty((dim, dim))
        self.inc = np.empty(dim * dim)
        self.errv = np.empty(dim * dim)
        self.sq = np.empty((dim, dim))
        self.work = (np.empty((dim, dim)), np.empty((dim, dim)))
        # stage i contracts tableau row i with the i stages before it
        self.stages = [(self.ks[i], _DP_A[i, :i], self.flat[:i]) for i in range(1, 7)]
        _riccati_rhs(self.S, *self.rhs_args, self.ks[0], self.work)

    def trial(self, h, tol):
        S, stage, inc = self.S.reshape(-1), self.stage, self.inc
        # a stage that overflows leaves inf or NaN behind, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k, row, done in self.stages:  # stage = S + h * (row @ done), mirrored
                np.matmul(row, done, out=inc)
                np.multiply(h, inc, out=inc)
                np.add(S, inc, out=inc)
                # every index is in range: "clip" writes out unbuffered
                np.take(inc, self.mirror, out=stage, mode="clip")
                _riccati_rhs(stage, *self.rhs_args, k, self.work)
            # the last stage is taken at the 5th-order solution S5 (FSAL)
            scale = tol * (1.0 + np.abs(stage, out=self.sq).max())
            errv = self.errv
            np.matmul(_DP_E, self.flat, out=errv)
            err = float(h * np.abs(errv, out=errv).max() / scale)
        # reject a step whose error or S5 is not finite (an S5 with an inf
        # entry would scale its error to 0)
        return err if isfinite(err) and isfinite(scale) else nan

    def accept(self):
        self.ks[0] = self.ks[6]  # rhs(S5), and S5 is the new S (FSAL)
        self.S = self.stage.copy()
        self.states.append(self.S)

    def trajectory(self, times):
        return [(t, BlockSym2n._wrap(S)) for t, S in zip(times, self.states)]


class _PackedStepper:
    """integrate_S's steps for a scalar pair: the floats (a, b, c) of the
    n = 1 block of S, with the interface of _MatrixStepper."""

    def __init__(self, K):
        self.n, self.k1, self.k2 = K.n, K.k1, K.k2
        self.s = (0.0, 0.0, 0.0)
        self.states = [self.s]
        # stage derivatives of a, b and c; slot 0 is the FSAL slot
        self.ka, self.kb, self.kc = ([d] * 7 for d in self._rhs(*self.s))

    def _rhs(self, a, b, c):
        k1, k2 = self.k1, self.k2
        return (2.0 * b + (k1 * a * a + k2 * b * b),
                c + (k1 * a * b + k2 * b * c),
                -2.0 + (k1 * b * b + k2 * c * c))

    def trial(self, h, tol):
        a, b, c = self.s
        ka, kb, kc = self.ka, self.kb, self.kc
        try:
            for i, row in _DP_ROWS:  # y = s + h * fsum(row * k), then k = rhs(y)
                ya = a + h * fsum(map(mul, row, ka))
                yb = b + h * fsum(map(mul, row, kb))
                yc = c + h * fsum(map(mul, row, kc))
                ka[i], kb[i], kc[i] = self._rhs(ya, yb, yc)
            ea, eb, ec = (fsum(map(mul, _DP_E_ROW, k)) for k in (ka, kb, kc))
        except (OverflowError, ValueError):  # fsum met inf - inf or overflowed: reject
            return nan
        self.s5 = (ya, yb, yc)  # the last stage is taken at the 5th-order solution
        scale = tol * (1.0 + max(abs(ya), abs(yb), abs(yc)))
        return h * max(abs(ea), abs(eb), abs(ec)) / scale

    def accept(self):
        ka, kb, kc = self.ka, self.kb, self.kc
        ka[0], kb[0], kc[0] = ka[6], kb[6], kc[6]  # rhs(S5), and S5 is the new S (FSAL)
        self.s = self.s5
        self.states.append(self.s)

    def trajectory(self, times):
        n = self.n
        blocks = np.array(self.states)[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
        stack = np.zeros((len(blocks), 2, n, 2, n))
        for i in range(n):  # s (x) I_n, with +0.0 off the block diagonals
            stack[:, :, i, :, i] = blocks
        stack = stack.reshape(-1, 2 * n, 2 * n)
        return [(t, BlockSym2n._wrap(S)) for t, S in zip(times, stack)]


def _scaled_inverse(S, times, n):
    """Invert a stack of S(t) with the diag(t^{3/2}, t^{1/2}) symmetric scaling.

    The raw S has condition number O(t^-2) near zero; the scaled matrix
    is O(1), so the inverse keeps full precision for small t.  One
    condition estimate and one inversion cover the whole stack; the first
    time, in stack order, whose scaled matrix is singular raises.  A
    scaled matrix that is not finite, as where t^3 underflows to 0 (t
    below about 1.7e-108), skips both and has a NaN inverse; the caller
    ignores the float errors and refuses what is not finite.
    """
    # scalar powers: numpy's vectorized power need not round as pow does
    tsc = np.array([[t**1.5] * n + [t**0.5] * n for t in times])
    outer = tsc[:, :, None] * tsc[:, None, :]
    Shat = S / outer
    finite = np.isfinite(Shat).all(axis=(1, 2))
    cond = np.linalg.cond(Shat[finite])  # one NaN would stop the SVD of all
    bad = np.flatnonzero(~(cond <= 1e12))  # NaN and Inf count as singular
    if bad.size:
        t, c = times[finite][bad[0]], float(cond[bad[0]])
        raise SingularityError(
            f"S(t) numerically singular at t={t:.3g} (scaled condition {c:.3e})",
            cond=c,
        )
    N = np.full_like(Shat, np.nan)
    N[finite] = np.linalg.inv(Shat[finite]) / outer[finite]
    return N


def _states_at(trajectory, times):
    """The S entries of an integrate_S trajectory at each of times (1-D).

    Each time reads the nearest grid time, which must lie within
    MERGE_TOL of it, as integrate_S merges a target that close with the
    grid time it has reached; else ValueError.
    """
    grid = np.array([tg for tg, _ in trajectory])  # increasing
    # each time's neighbours on the grid; the nearer wins, the earlier on a tie
    hi = np.clip(np.searchsorted(grid, times), 1, grid.size - 1)
    lo = hi - 1
    rows = np.where(np.abs(grid[lo] - times) <= np.abs(grid[hi] - times), lo, hi)
    missing = np.abs(grid[rows] - times) > MERGE_TOL
    if missing.any():
        raise ValueError(f"trajectory has no grid time at t={float(times[missing][0])!r}")
    return np.array([trajectory[row][1].entries for row in rows])


def bound_N(K, t, tol=1e-10, trajectory=None):
    """Sharp bound matrix N(t) = S(t)^{-1}, at one time or on a time grid.

    One integration of S to the largest requested time T supplies every
    N(t) from its reach STEP_FLOOR * max(T, 10) up: integrate_S's step
    floor, but no less than the ten floors T's first step T / 10 needs.
    Below the reach the analytic small-time expansion, at rounding there,
    answers instead.  The scaled inversions of the grid run as one stack.

    Parameters
    ----------
    K : CurvatureBound
    t : float or 1-D array_like of float
        One positive time, or a grid of them in any order; duplicates
        are allowed.
    tol : float
        Local error tolerance of the integration.
    trajectory : list of (t, BlockSym2n), optional
        An integrate_S trajectory of K whose grid already contains every
        requested time at or above the reach; it replaces the integration.

    Returns
    -------
    BlockSym2n for a scalar t; a list of them, in the order of the grid,
    for a grid.  Each is the symmetric negative-definite N(t).

    Raises
    ------
    ValueError
        If the grid is empty or not 1-D, a time is not positive, or
        `trajectory` lacks a requested time.
    SingularityError
        For the first time, in grid order, whose scaled S(t) is singular.
    InputError
        For the first time, in grid order, whose N(t) is not a finite
        float matrix: below about 4e-103 its t^-3 entries overflow.
        Also, from integrate_S, for two requested times at or above the
        reach that lie closer than its step floor but more than
        MERGE_TOL apart, e.g. [0.5, 0.5 + 5e-15]; the message names
        both.  The whole grid is refused, although the two bounds agree
        far below rounding.  With T <= 10 the reach is 1e-13, so this
        holds in [1e-13, 1e-3) as well, where the small-time expansion
        would also be at rounding.
    """
    K = _as_curvature(K)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D grid, got shape {ts.shape}")
    times = ts.ravel()
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not (times > 0).all():
        raise ValueError(f"times must be positive, got {times[~(times > 0)][0]}")
    S = np.empty((times.size, 2 * K.n, 2 * K.n))
    early = times < STEP_FLOOR * max(times.max(), 10.0)
    for k in np.flatnonzero(early):
        S[k] = small_time_S(K, times[k]).entries
    late = times[~early]
    if late.size:
        if trajectory is None:
            trajectory = integrate_S(K, late.max(), tol=tol, eval_times=late)
        S[~early] = _states_at(trajectory, late)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        N = _scaled_inverse(S, times, K.n)
        N = 0.5 * (N + N.transpose(0, 2, 1))
    if not np.isfinite(N).all():
        t = times[~np.isfinite(N).all(axis=(1, 2))][0]
        raise InputError(f"N(t) at t={t:.6g} is not a finite float matrix: "
                         "its entries grow like t^-3 as t -> 0 and overflow")
    out = [BlockSym2n._wrap(Nk) for Nk in N]
    return out[0] if ts.ndim == 0 else out


def stationary_N(K):
    """Large-time limit of N(t), from the algebraic Riccati equation.

    N_inf solves 0 = N C + C^T N + N D N - K; it is -X for the
    stabilising solution X of C^T X + X C - X D X + K = 0.  The start is
    the stable invariant subspace of the Hamiltonian Z = [[C, -D],
    [-K, -C^T]]: [I; X] spans the null space of sign(Z) + I, and sign(Z)
    comes from the determinant-scaled Newton iteration (Roberts, Int. J.
    Control 32, 1980; Byers, Linear Algebra Appl. 85, 1987).  Unlike an
    eigenvector basis it stays well defined where the stable eigenvalues
    are defective (k1 = k2^2 / 2).  Two Newton-Kleinman steps (Kleinman,
    "On an iterative technique for Riccati equation computations", IEEE
    Trans. Automat. Control 13, 1968) then take X to rounding.  Each
    solves A^T X + X A = -(K + X D X), A = C - D X, as one Kronecker
    system, whose condition grows as K_xx gets small against K_vv:
    against scipy's solve_continuous_are the result is within 3e-14 for
    k1 in [1e-3, 60] and k2 in [0, 60], and about 2e-12 at k1 = 1e-3,
    k2 = 1e4.  The route shares no code with the integration or the
    exponential route.

    Raises
    ------
    ValueError
        If the K_xx block is singular: (K, C) is then not detectable,
        the equation has no stabilising solution, and N(t) converges
        only algebraically (k1 = 0).
    InputError
        If the solution overflows (curvatures of about 1e200 and above).
    """
    K = _as_curvature(K)
    n = K.n
    if float(np.linalg.eigvalsh(K.K[:n, :n])[0]) <= PSD_TOL:
        raise ValueError(
            "stationary bound needs a nonsingular K_xx block; with k1 = 0 "
            "N(t) converges only algebraically"
        )
    sp = build_structural(n)
    dim = 2 * n
    ident = np.eye(dim)
    W = np.block([[sp.C, -sp.D], [-K.K, -sp.C.T]])
    for _ in range(SIGN_STEPS):
        mu = np.exp(-np.linalg.slogdet(W)[1] / (2 * dim))  # |det(mu W)| = 1
        W_next = 0.5 * (mu * W + np.linalg.inv(W) / mu)
        settled = np.abs(W_next - W).max() <= 1e-8 * np.abs(W_next).max()
        W = W_next
        if settled:  # quadratic convergence: W is now sign(Z) to rounding
            break
    X = np.linalg.lstsq(np.vstack([W[:dim, dim:], W[dim:, dim:] + ident]),
                        -np.vstack([W[:dim, :dim] + ident, W[dim:, :dim]]))[0]
    X = 0.5 * (X + X.T)  # Newton-Kleinman would keep any asymmetry of its start
    for _ in range(2):
        A = sp.C - sp.D @ X
        L = np.kron(ident, A.T) + np.kron(A.T, ident)
        X = np.linalg.solve(L, -(K.K + X @ sp.D @ X).ravel()).reshape(dim, dim)
    if not np.isfinite(X).all():
        raise InputError(f"stationary bound of {K!r} overflows double precision")
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

    The exponential is Padé-13 scaling and squaring (Higham, "The scaling
    and squaring method for the matrix exponential revisited", SIAM J.
    Matrix Anal. Appl. 26, 2005), in numpy.  Its relative error grows
    with the number of squarings, about log2(|t| ||H||_1 / 5.4): within
    1e-12 of scipy's expm for |t| <= 2.5 and unit curvatures, and some
    1e-11 out to t = 20.  M(0) is the identity exactly.

    Parameters
    ----------
    K : CurvatureBound
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
    CapError
        An InputError and an OverflowError: |t| ||H||_2 exceeds
        EXP_ARG_CAP at some time, where double exponentials would
        overflow, so no Inf is returned.  No exponential is taken first.
    """
    K = _as_curvature(K)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D grid, got shape {ts.shape}")
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise ValueError(f"t must be finite, got {bad[0]}")
    H = hamiltonian_matrix(K)
    with np.errstate(over="ignore"):  # an overflowing spread is inf, refused below
        spread = np.abs(ts) * float(np.linalg.norm(H, 2))
    over = spread[spread > EXP_ARG_CAP]
    if over.size:
        raise CapError(
            f"|t|*||H|| = {over[0]:.3g} exceeds the exponential cap {EXP_ARG_CAP:g}"
        )
    return _expm(ts[..., None, None] * H)


# Padé [13/13] numerator coefficients of exp, b_k = (26-k)! 13! / (26! k!
# (13-k)!), so b_0 = 1: a zero matrix then gives P = Q = I, which LAPACK's
# gesv solves to I exactly (Higham's integer b_k, with b_0 I, give a
# diagonal of 1 - 1.1e-16, as gesv divides through a reciprocal pivot).
_PADE13 = [
    factorial(26 - k) * factorial(13) / (factorial(26) * factorial(k) * factorial(13 - k))
    for k in range(14)
]
# Higham's theta_13: the largest ||A||_1 whose Padé-13 backward error is below 2^-53
_THETA13 = 5.371920351148152


def _expm(A):
    """exp(A) of a (..., d, d) stack by Padé-13 scaling and squaring.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005), with degree 13
    throughout.  Each slice gets its own scaling 2^-s and s
    squarings, and every step acts slice by slice, so a slice of a stack
    has the bits of the same matrix alone.
    """
    b = _PADE13
    shape = A.shape
    A = A.reshape(-1, shape[-1], shape[-1])
    frac, exp2 = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(exp2 - (frac == 0.5), 0)  # ceil(log2(||A||_1 / theta_13)), at least 0
    A = A * np.ldexp(1.0, -s)[:, None, None]
    ident = np.eye(shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + ident
    R = np.linalg.solve(V - U, V + U)
    for k in range(s.max(initial=0)):
        todo = s > k  # a slice squared past its own s could overflow
        R[todo] = R[todo] @ R[todo]
    return R.reshape(shape)


def _check_m3(M):
    """Raise M3SingularityError for the first lower-left M3 block of M, in
    stack order, that is not safe to invert: condition above 1e14, or NaN."""
    dim = M.shape[-1] // 2
    cond = np.linalg.cond(M[..., dim:, :dim])
    bad = np.flatnonzero(~(cond <= 1e14))
    if bad.size:
        k = int(bad[0])
        c = float(cond.flat[k])
        raise M3SingularityError(
            f"M3 block numerically singular (condition {c:.3e})",
            cond=c, index=k if M.ndim == 3 else None,
        )


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
        formula; it is the N-normalized solution).  The stack is
        symmetrized once, 0.5 (N + N^T) over all slices, and each
        BlockSym2n wraps its slice, with the bits of symmetrizing the
        slices one by one.

    Raises
    ------
    M3SingularityError
        An InputError and a SingularityError, for the first M3 block
        whose condition number exceeds 1e14 (or is NaN); its index is the
        block's position in the stack.  The condition is not monotone in
        t, so every block is tested.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] % 4:
        raise ValueError(f"expected square 4n x 4n matrices, got {M.shape}")
    dim = M.shape[-1] // 2
    M1 = M[..., :dim, :dim]
    M3 = M[..., dim:, :dim]
    _check_m3(M)
    N = M1 @ np.linalg.inv(M3)
    N = 0.5 * (N + np.swapaxes(N, -1, -2))  # the whole stack at once
    if N.ndim == 2:
        return BlockSym2n._wrap(N)
    return [BlockSym2n._wrap(Nt) for Nt in N]


@dataclass
class ComparisonReport:
    """Outcome of a Riccati comparison check on a time grid."""

    status: str  # "ok" or "hypothesis-failed"
    hypothesis_min_eig: float
    ordering_holds: bool
    worst_violation: float
    per_time: list = field(default_factory=list)  # (t, max eig of S_small - S_large)


def comparison_check(K_small, K_large, t_grid, tol=1e-10):
    """Check the comparison-theorem ordering S_small(t) <= S_large(t).

    The hypothesis is the semidefinite ordering of the coefficient block
    matrices [[-D, -C], [-C^T, K]]; with shared C, D it reduces to
    K_large - K_small >= 0, checked by eigensolve.  If the hypothesis
    fails the report says so instead of passing or failing the ordering.
    The ordering holds when no top eigenvalue of S_small - S_large
    exceeds COMPARISON_SLACK.  An empty t_grid raises ValueError.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError("t_grid must not be empty")
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
    ts = np.array(t_grid)
    S_small, S_large = (_states_at(integrate_S(K, t_grid[-1], tol, eval_times=ts), ts)
                        for K in (K_small, K_large))
    tops = np.linalg.eigvalsh(S_small - S_large)[:, -1]
    per_time = [(t, float(top)) for t, top in zip(t_grid, tops)]
    worst = float(tops.max())
    return ComparisonReport(
        status="ok",
        hypothesis_min_eig=hyp_min,
        ordering_holds=worst <= COMPARISON_SLACK,
        worst_violation=worst,
        per_time=per_time,
    )


def residual_defect(K, trajectory):
    """Re-integration defect of an integrate_S trajectory.

    Between each pair of consecutive snapshots, advance the earlier one
    with 8 fixed RK4 substeps (an integrator independent of the adaptive
    pair) and measure the mismatch with the stored later snapshot,
    scaled the same way the step controller scales its local error.
    All intervals advance together as one stack, in a workspace
    allocated once per call: each substep writes its stages, stage
    states and update in place, with the operations, operands and order
    of the plain expressions S + 0.5 h k1, ..., S + h / 6 (k1 + 2 k2 +
    2 k3 + k4), so the result has their bits.  Returns the max over the
    trajectory.  The right-hand side is the numpy matrix form, so for a
    scalar pair, whose trajectory integrate_S steps as the three floats
    of its packed state, it also checks that float right-hand side with
    an independent implementation.
    """
    K = _as_curvature(K)
    if len(trajectory) < 2:
        return 0.0
    sp = build_structural(K.n)
    rhs_args = (-sp.C, sp.C.T, sp.D, K.K)
    ts = np.array([t for t, _ in trajectory])
    snaps = np.array([S.entries for _, S in trajectory])
    S, S1 = snaps[:-1].copy(), snaps[1:]  # S advances in place
    h = ((ts[1:] - ts[:-1]) / 8.0)[:, None, None]
    half_h, sixth_h = 0.5 * h, h / 6.0
    k1, k2, k3, k4, y, acc, *work = np.empty((8,) + S.shape)
    for _ in range(8):
        _riccati_rhs(S, *rhs_args, k1, work)
        for k, c, nxt in ((k1, half_h, k2), (k2, half_h, k3), (k3, h, k4)):
            np.multiply(c, k, out=y)  # y = S + c k, then nxt = rhs(y)
            np.add(S, y, out=y)
            _riccati_rhs(y, *rhs_args, nxt, work)
        np.multiply(2, k2, out=acc)  # acc = k1 + 2 k2 + 2 k3 + k4, left to right
        np.add(k1, acc, out=acc)
        np.multiply(2, k3, out=y)
        np.add(acc, y, out=acc)
        np.add(acc, k4, out=acc)
        np.multiply(sixth_h, acc, out=acc)
        np.add(S, acc, out=S)
    scale = 1.0 + np.abs(S1).max(axis=(1, 2))
    return _worst(np.abs(S - S1).max(axis=(1, 2)) / scale)


def exponential_route_residual(K, M):
    """Residual of the N-equation along the exponential pipeline.

    N_dot computed from the analytic derivative of the block ratio,
    N_dot = (M1_dot - N M3_dot) M3^{-1} with M_dot = H M, compared to
    the Riccati right-hand side N C + C^T N + N D N - K, over a whole
    fundamental_M stack at once.

    Parameters
    ----------
    K : CurvatureBound
    M : (m, 4n, 4n) array_like
        fundamental_M(K, t_grid) of a grid of positive times, so that the
        same stack can also feed S_from_M.

    Raises
    ------
    M3SingularityError
        The error S_from_M raises on the same stack: for the first M3
        block whose condition number exceeds 1e14.
    """
    K = _as_curvature(K)
    dim = 2 * K.n
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1:] != (2 * dim, 2 * dim):
        raise ValueError(f"expected an (m, {2 * dim}, {2 * dim}) stack, got {M.shape}")
    _check_m3(M)
    sp = build_structural(K.n)
    H = hamiltonian_matrix(K)
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
    """Serialize a trajectory as CSV: header t,entry_00,entry_01,... row-major.

    Each column is formatted once.  A column entry_ji below the diagonal
    whose values equal those of entry_ij bit for bit in every row, as in
    every state integrate_S returns, takes entry_ij's text; one that
    differs anywhere, if only in the sign of a zero or within
    SYMMETRY_TOL, is formatted from its own values.  An empty trajectory
    raises ValueError.
    """
    if not trajectory:
        raise ValueError("trajectory must not be empty")
    dim = trajectory[0][1].entries.shape[0]
    pairs = list(product(range(dim), repeat=2))
    header = ["t"] + [f"entry_{i}{j}" for i, j in pairs]
    ts, states = zip(*trajectory)
    entries = np.array([S.entries for S in states])
    bits = entries.view(np.uint64)
    mirrored = (bits == bits.transpose(0, 2, 1)).all(axis=0)
    columns = {}
    for i, j in pairs:
        if (i, j) in columns:
            continue  # tee'd from its mirror above the diagonal
        columns[i, j] = _csv.floats(entries[:, i, j])
        if i < j and mirrored[i, j]:
            columns[i, j], columns[j, i] = tee(columns[i, j])
    return _csv.csv_text(header, [_csv.floats(ts), *(columns[ij] for ij in pairs)])
