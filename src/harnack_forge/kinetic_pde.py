"""Finite-difference solver and Harnack verification for the kinetic equation.

The equation is integrated in generator (advective) form,

    rho_t = Delta_v rho - <grad_v U, grad_v rho> - <v, grad_x rho>,

so values are transported along the characteristic field (+v, +grad_v U)
and diffused in velocity.  This form obeys a maximum principle but not
mass conservation (the drift term sources mass at rate int rho
Delta_v U); the evolve ledger accounts for boundary fluxes and the
drift source separately.

Two schemes are provided.  "lie" is the plain first-order splitting:
upwind x-transport, upwind v-drift, implicit backward-Euler velocity
diffusion, under a CFL restriction.  "strang" is a telescoped Strang
splitting whose transport substep is semi-Lagrangian (integer cell
shift plus fractional upwind), unconditionally stable and roughly
second order in practice; it exists because the plain scheme's
numerical diffusion converges too slowly for tight error targets.

Both schemes solve the implicit diffusion with the Thomas algorithm,
swept in numpy (_diffuse_v).  It performs the operations of LAPACK's
dgttrf/dgttrs in their order and so equals them bit for bit on the
non-negative fields the solver carries; the solver needs numpy alone.

GridField.rho is x-major, shape (nx, nv).  Inside evolve the field is
velocity-major, a C-ordered (nv, nx) array whose row j is the line
v = vs[j]: evolve transposes it once on entry and once on return, and
every kernel (_upwind_x, _upwind_v, _diffuse_v, _sl_advect_x) takes and
returns that layout.  Each kernel does the same float operations on
the same operands as its x-major form, so the field is the same bit for
bit; the mass ledger's sums run over the velocity-major array, in its
memory order.

Verification compares the estimated Hessian of log rho - U/2 on the
grid against the Riccati bound N evaluated at the absolute snapshot
time.  That rests on an unchecked assumption: data born at t0 already
satisfy the bound of age t0, which holds for spread-out data.  Narrow
data break it: pde-harnack at sigma2=0.05, t0=0.05, t1=0.3, n_grid=256
fails with matrix_min_margin -0.73.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat

import numpy as np

from . import _csv
from .closed_forms import eval_sfuncs
from .gaussian_kernel import GaussianState, grid_density, kernel_state
from .riccati_engine import CurvatureBound, InputError, bound_N

BOUNDARY_LEAK_WARN = 1e-4
LEDGER_TOL = 1e-10
# a point is testable when its 5x5 density stencil clears this times the peak
FLOOR_FRAC_DEFAULT = 1e-12
# the lie scheme's step is this fraction of the largest stable step
CFL_LIMIT = 0.9
# the strang scheme's equal chunks, and its implicit diffusion substeps per chunk
STRANG_CHUNKS = 2
STRANG_DIFFUSION_SUBSTEPS = 16
CURVATURE_FEAS_TOL = 1e-10
MIN_GRID_CELLS = 8
# the lie scheme refuses a run of more steps times grid cells than this;
# a cell-step costs about 15 to 20 ns, so the bound is some 15 to 20 s
MAX_CELL_STEPS = 1e9


class CFLError(RuntimeError, InputError):
    """Requested step violates the advective CFL restriction."""


class UntestableRegionError(RuntimeError, InputError):
    """No grid point passed the density-floor precondition.

    An input error: no check ran, so there is no verdict to report.
    """


# ---------------------------------------------------------------------------
# potentials


class QuadraticPotential:
    """U = (q_xx x^2 + 2 q_xv x v + q_vv v^2) / 2 with exact derivatives.

    The only potential type; all methods broadcast over meshgrid arrays.
    """

    def __init__(self, q_xx=0.0, q_xv=0.0, q_vv=0.0):
        self.q_xx = float(q_xx)
        self.q_xv = float(q_xv)
        self.q_vv = float(q_vv)

    def value(self, x, v):
        return 0.5 * (
            self.q_xx * np.square(x)
            + 2.0 * self.q_xv * np.asarray(x) * np.asarray(v)
            + self.q_vv * np.square(v)
        )

    def grad_x(self, x, v):
        return self.q_xx * np.asarray(x) + self.q_xv * np.asarray(v)

    def grad_v(self, x, v):
        return self.q_xv * np.asarray(x) + self.q_vv * np.asarray(v)

    def lap_v(self, x, v):
        return np.full(np.broadcast(x, v).shape, self.q_vv)

    def hess_h(self):
        """Constant Hessian of compute_h's h, as (h_xx, h_xv, h_vv)."""
        a, b, c = self.q_xx, self.q_xv, self.q_vv
        return -0.5 * b * b, -0.5 * (a + b * c), -b - 0.5 * c * c


class ZeroPotential(QuadraticPotential):
    """Free equation, U identically zero: the all-zero quadratic."""

    def __init__(self):
        super().__init__()


def compute_h(potential, x, v):
    """Curvature function h = -<v, U_x>/2 + Delta_v U / 2 - |U_v|^2 / 4."""
    return (
        -0.5 * np.asarray(v) * potential.grad_x(x, v)
        + 0.5 * potential.lap_v(x, v)
        - 0.25 * np.square(potential.grad_v(x, v))
    )


def curvature_of(potential):
    """Minimal scalar curvature pair (k1, k2) for a quadratic potential.

    Finds the lexicographically minimal pair (k2 first, then k1) such
    that Hess h + diag(k1, k2) is positive semidefinite, via the Schur
    complement of the (v, v) entry.  Hess h is the exact constant
    matrix of QuadraticPotential.hess_h (ZeroPotential included).  The
    minimum over k2 may be an infimum rather than attained;
    CURVATURE_FEAS_TOL sets the attainment margin.

    Raises ValueError for anything that is not a QuadraticPotential; an
    explicit pair goes to verify_matrix_harnack / verify_scalar_harnack
    as curvature= instead.
    """
    if not isinstance(potential, QuadraticPotential):
        raise ValueError(
            f"curvature_of needs a QuadraticPotential, got "
            f"{type(potential).__name__}; pass curvature= to "
            "verify_matrix_harnack / verify_scalar_harnack instead"
        )
    hxx, hxv, hvv = potential.hess_h()
    tol = CURVATURE_FEAS_TOL
    k2 = max(0.0, -hvv)
    # a pinned (v,v) entry needs a zero cross term; otherwise the Schur
    # complement forces k2 strictly above the pin
    if abs(hxv) > tol:
        k2 = max(k2, -hvv + tol)
    # the pinned denominator may round just below tol: clamp it there
    k1 = max(0.0, hxv * hxv / max(hvv + k2, tol) - hxx)
    return CurvatureBound(k1=k1, k2=k2, n=1)


# ---------------------------------------------------------------------------
# grid fields


def make_grid(extent, n):
    """Cell-centered symmetric grid on [-extent, extent] with n cells.

    Raises InputError if n is below MIN_GRID_CELLS.
    """
    if n < MIN_GRID_CELLS:
        raise InputError(f"grid needs at least {MIN_GRID_CELLS} cells, got {n}")
    return np.linspace(-extent, extent, n, endpoint=False) + extent / n


class GridField:
    """Nonnegative density on a tensor phase-space grid.

    rho has shape (nx, nv) over uniform, strictly increasing
    cell-centered coordinates xs, vs of at least 2 points each (else
    ValueError); t is the absolute time of the snapshot and t0 the
    birth time of the run.  rho is stored as a read-only C-ordered
    (x-major) copy, so a field never changes after construction.
    boundary_warning is set when more than BOUNDARY_LEAK_WARN of the
    mass sits in the outermost cell ring (the Dirichlet boundary is then
    visibly truncating the solution).
    """

    def __init__(self, xs, vs, rho, t, t0=None):
        self.xs = np.asarray(xs, dtype=float)
        self.vs = np.asarray(vs, dtype=float)
        for name, axis in (("xs", self.xs), ("vs", self.vs)):
            if axis.size < 2:
                raise ValueError(f"{name} needs at least 2 points, got {axis.size}")
            step = np.diff(axis)
            if not np.all(step > 0):
                raise ValueError(f"{name} must be strictly increasing")
            if np.any(np.abs(step - step[:1]) > 1e-9 * step[:1]):
                raise ValueError(f"{name} must be uniform")
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (self.xs.size, self.vs.size):
            raise ValueError(
                f"rho shape {rho.shape} does not match grid "
                f"({self.xs.size}, {self.vs.size})"
            )
        if not np.isfinite(rho).all():
            raise ValueError("density has non-finite entries")
        if float(rho.min()) < -1e-12:
            raise ValueError(f"density has negative entries: min {rho.min():.3e}")
        self.rho = np.maximum(rho, 0.0, order="C")
        self.rho.flags.writeable = False
        self._stencil = None  # see _stencil_arrays
        self.t = float(t)
        self.t0 = float(t0) if t0 is not None else float(t)
        edge = (
            self.rho[0, :].sum()
            + self.rho[-1, :].sum()
            + self.rho[1:-1, 0].sum()
            + self.rho[1:-1, -1].sum()
        )
        total = self.rho.sum()
        self.boundary_fraction = float(edge / total) if total > 0 else 0.0
        self.boundary_warning = self.boundary_fraction > BOUNDARY_LEAK_WARN

    @property
    def dx(self):
        return float(self.xs[1] - self.xs[0])

    @property
    def dv(self):
        return float(self.vs[1] - self.vs[0])

    def mass(self):
        return float(self.rho.sum() * self.dx * self.dv)

    def meshes(self):
        return np.meshgrid(self.xs, self.vs, indexing="ij")


def kernel_field(t, extent=4.0, n=256, sigma2=None):
    """Grid sampling of an exact Gaussian state as an initial condition.

    With sigma2 None the state is the fundamental solution of age t
    started at the origin; otherwise an isotropic Gaussian with
    covariance sigma2 * I centered at the origin, which models
    spread-out initial data born at time t.
    """
    xs = make_grid(extent, n)
    if sigma2 is None:
        state = kernel_state([0.0], [0.0], t)
    else:
        state = GaussianState.make([0.0, 0.0], float(sigma2) * np.eye(2), t)
    rho = grid_density(state, xs, xs)
    return GridField(xs, xs, rho, t=t, t0=t)


# ---------------------------------------------------------------------------
# evolution


@dataclass
class EvolveReport:
    """Mass accounting and step statistics for one evolve call."""

    n_steps: int
    dt: float
    mass_initial: float
    mass_final: float
    x_boundary_loss: float
    diffusion_loss: float
    drift_source: float
    ledger_discrepancy: float
    cfl_x: float
    cfl_v: float
    scheme: str


def _upwind_x(rho, vs, dx, dt):
    """First-order upwind transport in x with speed v (rowwise).

    rho is velocity-major, (nv, nx).  Returns (new_rho, boundary_loss)
    where the loss is the exact telescoped edge flux; zero Dirichlet
    inflow.  vs must be increasing (GridField guarantees it): the rows
    with negative and positive Courant numbers are then two slices, and
    zero-speed rows between them are left as they are.
    """
    c = vs * dt / dx  # per-row Courant number
    neg = slice(None, int(np.searchsorted(c, 0.0, "left")))
    pos = slice(int(np.searchsorted(c, 0.0, "right")), None)
    new = rho.copy()
    # differences toward the upwind cell, computed in place; the empty
    # inflow cell leaves rho[:, 0] (already copied) and 0 - rho[:, -1]
    p, q = new[pos], new[neg]
    np.subtract(rho[pos, 1:], rho[pos, :-1], out=p[:, 1:])
    np.subtract(rho[neg, 1:], rho[neg, :-1], out=q[:, :-1])
    np.subtract(0.0, rho[neg, -1], out=q[:, -1])
    for rows, diff in ((pos, p), (neg, q)):
        diff *= c[rows, None]
        np.subtract(rho[rows], diff, out=diff)
    loss = float(np.sum(c[pos] * rho[pos, -1]) + np.sum(-c[neg] * rho[neg, 0]))
    return new, loss


def _upwind_v(rho, cv):
    """First-order upwind drift in v with pointwise Courant numbers cv.

    rho and cv are velocity-major, (nv, nx).
    """
    # d[j] = rho[j] - rho[j - 1], with empty rows beyond both edges
    d = np.empty((rho.shape[0] + 1, rho.shape[1]))
    d[0] = rho[0]
    np.subtract(rho[1:], rho[:-1], out=d[1:-1])
    np.subtract(0.0, rho[-1], out=d[-1])
    step = np.where(cv > 0, d[:-1], d[1:])
    step *= cv
    return np.subtract(rho, step, out=step)


def _tridiag_lu(nv, r):
    """LU factors of the nv x nv matrix tridiag(-r, 1 + 2 r, -r).

    Returns (d, l): the pivots d_i and the multipliers l_i of Gaussian
    elimination without pivoting, computed as LAPACK's dgttrf computes
    them, l_i = dl_i / d_i and d_{i+1} = d_{i+1} - l_i du_i.  The matrix
    is diagonally dominant, so dgttrf never interchanges rows either.
    """
    d = np.full(nv, 1.0 + 2.0 * r)
    l = np.empty(nv - 1)
    off = -r
    for i in range(nv - 1):
        l[i] = off / d[i]
        d[i + 1] = d[i + 1] - l[i] * off
    return d, l


def _diffuse_v(shape, dv, dt, nsub=1):
    """Implicit backward-Euler velocity diffusion, zero Dirichlet.

    Factors the tridiagonal matrix once (_tridiag_lu); the returned
    step(rho) -> (new_rho, boundary_loss) takes a velocity-major field of
    the given (nv, nx) shape, makes nsub solves of step dt / nsub on a
    copy of it, and returns that copy; the loss is the exact telescoped
    edge flux of the solves.  Each solve is the Thomas algorithm (Golub &
    Van Loan, Matrix Computations, section 4.3) swept over the rows of
    the copy, one row operation for every x value at once:

        forward  b_{i+1} = b_{i+1} - l_i b_i
        back     b_i = (b_i - du_i b_{i+1}) / d_i,   du_i = -r

    These are the operations of LAPACK's dgttrs in its order, so the
    result equals dgttrf/dgttrs bit for bit.  dgttrs also subtracts
    du2_i b_{i+2}, where du2 is exactly +0 without pivoting; on the
    non-negative densities this solver sees (upwind and semi-Lagrangian
    transport keep them non-negative, GridField clamps them) that term
    is +0 and x - 0 == x exactly, so dropping it changes no bit.  For a
    negative input the two could differ in the sign of a zero.

    Raises InputError when the diffusion number r = (dt / nsub) / dv^2 is
    not a positive finite float (dv^2 overflows or underflows).
    """
    nv, nx = shape
    try:
        r = (dt / nsub) / dv**2
    except ArithmeticError:  # Python floats raise where numpy gives inf
        r = 0.0
    if not 0.0 < r < np.inf:
        raise InputError(f"the diffusion number dt / dv^2 at dt={dt / nsub:.3g}, "
                         f"dv={dv:.3g} is not a positive finite float")
    d, l = _tridiag_lu(nv, r)
    # 0-d coefficient arrays are built once and row views once per call:
    # with them and a positional out, each ufunc call of the sweep is
    # cheapest.
    tmp = np.empty(nx)
    du = np.array(-r)
    ls = list(map(np.array, l))
    ds = list(map(np.array, d[-2::-1]))
    d_last = np.array(d[-1])
    mul, sub, div = np.multiply, np.subtract, np.divide

    def step(rho):
        out = rho.copy()
        rows = list(out)  # row i is the line v = vs[i]
        forward = list(zip(ls, rows[:-1], rows[1:]))
        back = list(zip(ds, rows[-2::-1], rows[:0:-1]))
        last = rows[-1]
        loss = 0.0
        for _ in range(nsub):
            for li, bi, bj in forward:
                mul(li, bi, tmp)
                sub(bj, tmp, bj)
            div(last, d_last, last)
            for di, bi, bj in back:
                mul(du, bj, tmp)
                sub(bi, tmp, bi)
                div(bi, di, bi)
            loss += r * float(out[0].sum() + out[-1].sum())
        return out, loss

    return step


def _sl_advect_x(rho, vs, dx, tau):
    """Semi-Lagrangian x-transport: integer shift + fractional upwind.

    Exact for the integer part of the Courant number, first-order
    diffusive only in the fractional remainder; stable for any tau.
    rho is velocity-major, (nv, nx): row j is shifted k_j = floor(c_j)
    cells toward +x and blended with its shift by k_j + 1 (zero fill, no
    wraparound).
    """
    nv, nx = rho.shape
    c = vs * tau / dx
    k = np.floor(c)
    a = (c - k)[:, None]
    # columns 0 and nx + 1 of padded are the empty cells beyond the edges
    padded = np.zeros((nv, nx + 2))
    padded[:, 1:-1] = rho
    src = np.arange(1, nx + 1) - np.clip(k, -nx - 1, nx + 1).astype(int)[:, None]
    rows = np.arange(nv)[:, None]
    shifted = padded[rows, np.clip(src, 0, nx + 1)]  # x_i - k_j
    blend = padded[rows, np.clip(src - 1, 0, nx + 1)]  # x_i - k_j - 1
    return np.where(a > 0.0, (1.0 - a) * shifted + a * blend, shifted)


def _courant_rates(xs, vs, speed):
    """Unit-time Courant rates (|v|/dx max, |U_v|/dv max) on the grid
    xs x vs, for the velocity drift speed = U_v on its mesh."""
    rate_x = float(np.abs(vs).max() / float(xs[1] - xs[0]))
    rate_v = float(np.abs(speed).max() / float(vs[1] - vs[0]))
    return rate_x, rate_v


def evolve(field, potential, t1, scheme="lie"):
    """Advance a grid field to absolute time t1.

    scheme "lie": per step, upwind x-transport, upwind v-drift, one
    implicit diffusion solve; dt is CFL_LIMIT times the largest stable
    step, shortened to divide the interval.  A run whose predicted work,
    steps times grid cells, exceeds MAX_CELL_STEPS is refused before the
    first step.

    scheme "strang": telescoped Strang splitting over STRANG_CHUNKS (2)
    equal chunks, semi-Lagrangian transport, STRANG_DIFFUSION_SUBSTEPS
    (16) implicit substeps per chunk.  Aimed at the free equation; a
    nonzero drift is stepped with upwind inside each chunk and must
    satisfy CFL at the chunk size.

    The field is transposed once on entry to a velocity-major (nv, nx)
    array, stepped in that layout, and transposed back once into the
    returned x-major GridField.  The ledger's per-substep sums run over
    the velocity-major array, in its memory order.

    Returns (GridField at t1, EvolveReport).

    Raises
    ------
    CFLError
        An InputError: the strang drift's Courant number exceeds 1 at the
        chunk size.
    InputError
        If t1 is not finite or does not exceed field.t, the scheme is
        neither "lie" nor "strang", the lie run's predicted work exceeds
        MAX_CELL_STEPS, or the diffusion number dt / dv^2 is not a
        positive finite float.
    """
    if not field.t < t1 < np.inf:
        raise InputError(f"t1={t1} must be finite and exceed the field time {field.t}")
    if scheme not in ("lie", "strang"):
        raise InputError(f"unknown scheme {scheme!r}: expected lie or strang")
    T = t1 - field.t
    # velocity-major from here on: row j is the line v = vs[j]
    speed = potential.grad_v(*np.meshgrid(field.xs, field.vs))
    rate_x, rate_v = _courant_rates(field.xs, field.vs, speed)
    has_drift = rate_v > 0
    m0 = field.mass()
    cell = field.dx * field.dv
    rho = field.rho.T.copy()

    x_loss = 0.0
    diff_loss = 0.0
    drift_src = 0.0
    worst_ledger = 0.0
    total = rho.sum()

    def mass_lost(rho, flux=None):
        """Mass lost by the substep that produced rho; flux, the edge flux
        the substep computed, must account for it."""
        nonlocal total, worst_ledger
        before, total = total, rho.sum()
        if flux is not None:
            gap = abs((before - total) - flux)
            worst_ledger = max(worst_ledger, gap / max(before, 1.0))
        return before - total

    if scheme == "lie":
        steps = np.ceil(T / (CFL_LIMIT / max(rate_x, rate_v)))
        if not steps * rho.size <= MAX_CELL_STEPS:
            raise InputError(f"t1={t1} needs a predicted {steps * rho.size:.3g} "
                             f"cell-steps ({steps:.3g} steps of {rho.size} cells), "
                             f"over the bound MAX_CELL_STEPS={MAX_CELL_STEPS:.3g}")
        n_steps = max(1, int(steps))
        dt = T / n_steps
        courant_v = speed * dt / field.dv
        diffuse = _diffuse_v(rho.shape, field.dv, dt)
        for _ in range(n_steps):
            rho, lx = _upwind_x(rho, field.vs, field.dx, dt)
            mass_lost(rho, lx)
            x_loss += lx * cell
            if has_drift:
                rho = _upwind_v(rho, courant_v)
                drift_src -= mass_lost(rho) * cell
            rho, ld = diffuse(rho)
            mass_lost(rho, ld)
            diff_loss += ld * cell
        report_dt = dt
        cx, cv = rate_x * dt, rate_v * dt
    else:
        delta = T / STRANG_CHUNKS
        if rate_v * delta > 1.0 + 1e-12:
            raise CFLError(f"drift CFL {rate_v * delta:.3g} > 1 at chunk size "
                           f"{delta:.3e}; use scheme lie for this drift")
        diffuse = _diffuse_v(rho.shape, field.dv, delta,
                             nsub=STRANG_DIFFUSION_SUBSTEPS)

        def transport(rho, tau):
            nonlocal x_loss, drift_src
            rho = _sl_advect_x(rho, field.vs, field.dx, tau)
            x_loss += mass_lost(rho) * cell
            if has_drift:
                rho = _upwind_v(rho, speed * tau / field.dv)
                drift_src -= mass_lost(rho) * cell
            return rho

        rho = transport(rho, 0.5 * delta)
        for i in range(STRANG_CHUNKS):
            rho, ld = diffuse(rho)
            mass_lost(rho, ld)
            diff_loss += ld * cell
            rho = transport(rho, delta if i < STRANG_CHUNKS - 1 else 0.5 * delta)
        n_steps = STRANG_CHUNKS
        report_dt = delta
        cx, cv = rate_x * delta, rate_v * delta

    out = GridField(field.xs, field.vs, rho.T, t=t1, t0=field.t0)
    m1 = out.mass()
    # closing identity: every unit of mass change is a recorded flux
    closure = abs((m0 - m1) - (x_loss + diff_loss - drift_src)) / max(m0, 1e-300)
    worst_ledger = max(worst_ledger, 0.0 if closure <= LEDGER_TOL else closure)
    report = EvolveReport(
        n_steps=n_steps,
        dt=report_dt,
        mass_initial=m0,
        mass_final=m1,
        x_boundary_loss=x_loss,
        diffusion_loss=diff_loss,
        drift_source=drift_src,
        ledger_discrepancy=worst_ledger,
        cfl_x=cx,
        cfl_v=cv,
        scheme=scheme,
    )
    if report.ledger_discrepancy > LEDGER_TOL:
        raise RuntimeError(
            f"mass ledger does not close: discrepancy {report.ledger_discrepancy:.3e}"
        )
    return out, report


# ---------------------------------------------------------------------------
# Hessian estimation and Harnack verification


def _log_field(field, potential):
    X, V = field.meshes()
    with np.errstate(divide="ignore"):
        g = np.where(field.rho > 0, np.log(np.maximum(field.rho, 1e-300)), -np.inf)
    return g - 0.5 * potential.value(X, V)


def _window_min(a, w):
    """Minimum of a over each w x w window: shape (nx - w + 1, nv - w + 1)."""
    n, m = a.shape[0] - w + 1, a.shape[1] - w + 1
    rows = reduce(np.minimum, [a[s : s + n] for s in range(w)])
    return reduce(np.minimum, [rows[:, s : s + m] for s in range(w)])


def _stencil_arrays(field, potential, floor_frac):
    """Second differences of g = log rho - U/2 on the 2-cell interior.

    Returns (gxx, gxv, gvv, testable) on the (nx-4, nv-4) interior, as
    read-only arrays; a point is testable when the full 5x5 density
    stencil around it clears the floor floor_frac * peak.

    A call leaves its arrays on the field, and the next call on that
    field takes them off, reusing them if it asks for the same potential
    object and floor.  So the matrix and scalar checks of one field
    compute one stencil between them, and no stencil outlives the pair.
    """
    held, field._stencil = field._stencil, None
    if held is not None and held[0] is potential and held[1] == floor_frac:
        return held[2]
    nx, nv = field.rho.shape
    if nx < 5 or nv < 5:
        raise ValueError("grid too small for the 5x5 Hessian stencil")
    floor = floor_frac * float(field.rho.max())
    testable = _window_min(field.rho, 5) >= floor
    g = _log_field(field, potential)
    dx, dv = field.dx, field.dv
    center = g[2:-2, 2:-2]
    # log of empty cells is -inf; the resulting non-finite differences
    # are masked out below, so the invalid-value warnings are spurious
    with np.errstate(invalid="ignore"):
        gxx = (g[3:-1, 2:-2] - 2 * center + g[1:-3, 2:-2]) / dx**2
        gvv = (g[2:-2, 3:-1] - 2 * center + g[2:-2, 1:-3]) / dv**2
        gxv = (g[3:-1, 3:-1] - g[3:-1, 1:-3] - g[1:-3, 3:-1] + g[1:-3, 1:-3]) / (
            4 * dx * dv
        )
    bad = ~np.isfinite(gxx) | ~np.isfinite(gvv) | ~np.isfinite(gxv)
    testable = testable & ~bad
    arrays = gxx, gxv, gvv, testable
    for a in arrays:
        a.flags.writeable = False
    field._stencil = (potential, floor_frac, arrays)
    return arrays


@dataclass
class HarnackCheckReport:
    """Outcome of a matrix or scalar Harnack verification on a field."""

    kind: str  # "matrix" or "scalar"
    t: float
    min_margin: float
    argmin: tuple  # (x, v) location of the worst margin
    n_tested: int
    n_untestable: int
    fraction_ok: float
    tolerance: float
    passed: bool


def _region_mask(field, region):
    if region is None:
        return np.ones((field.xs.size - 4, field.vs.size - 4), dtype=bool)
    x_lo, x_hi, v_lo, v_hi = region
    X, V = np.meshgrid(field.xs[2:-2], field.vs[2:-2], indexing="ij")
    return (X >= x_lo) & (X <= x_hi) & (V >= v_lo) & (V <= v_hi)


def _margin_report(kind, field, margin, testable, tolerance):
    """Report on margin, the margins at the testable interior points in
    row-major order; raises UntestableRegionError if there are none."""
    n_tested = int(testable.sum())
    if n_tested == 0:
        raise UntestableRegionError(
            "no testable grid points: density floor or region excludes everything"
        )
    k = int(np.argmin(margin))
    ii, jj = (idx[k] for idx in np.nonzero(testable))
    min_margin = float(margin[k])
    return HarnackCheckReport(
        kind=kind,
        t=field.t,
        min_margin=min_margin,
        argmin=(float(field.xs[ii + 2]), float(field.vs[jj + 2])),
        n_tested=n_tested,
        n_untestable=int((~testable).sum()),
        fraction_ok=float((margin >= -tolerance).mean()),
        tolerance=tolerance,
        passed=min_margin >= -tolerance,
    )


def verify_matrix_harnack(
    field,
    potential,
    curvature=None,
    tolerance=0.1,
    region=None,
    bound_shift=0.0,
):
    """Check Hess(log rho - U/2) >= N(t) pointwise on the grid.

    The bound is evaluated at the absolute snapshot time field.t.
    Margins are eigenvalues of the estimated Hessian minus the bound;
    the check passes when the global minimum stays above -tolerance.
    bound_shift adds shift * I to the bound and exists for negative
    controls (a shifted bound must produce reported violations).

    Cells near the domain edge see the Dirichlet truncation rather than
    the free-space solution the theorem describes; pass a region box
    (x_lo, x_hi, v_lo, v_hi) that stays away from the boundary when the
    field carries visible mass there.

    curvature is a CurvatureBound; None takes curvature_of(potential).

    Raises UntestableRegionError when no point clears the density floor,
    and ValueError (from curvature_of) when curvature is None and the
    potential is not a QuadraticPotential.
    """
    if curvature is None:
        curvature = curvature_of(potential)
    N = bound_N(curvature, field.t).entries + bound_shift * np.eye(2)
    gxx, gxv, gvv, testable = _stencil_arrays(field, potential, FLOOR_FRAC_DEFAULT)
    testable = testable & _region_mask(field, region)
    # smaller eigenvalue of the 2x2 margin matrix, on testable points only
    a = gxx[testable] - N[0, 0]
    b = gxv[testable] - N[0, 1]
    c = gvv[testable] - N[1, 1]
    min_eig = 0.5 * (a + c) - np.sqrt(np.square(0.5 * (a - c)) + np.square(b))
    return _margin_report("matrix", field, min_eig, testable, tolerance)


def verify_scalar_harnack(
    field,
    potential,
    curvature=None,
    tolerance=0.1,
    region=None,
):
    """Check Delta_v(log rho) - Delta_v U / 2 >= -n s0'/(2 s0) on the grid.

    This is the velocity trace of the matrix inequality; it is implied
    by the matrix form with margin n times the eigenvalue margin, and
    is checked independently because it only needs the regime scalars.
    curvature is a scalar CurvatureBound; None takes curvature_of(potential),
    which raises ValueError when the potential is not a QuadraticPotential.
    """
    if curvature is None:
        curvature = curvature_of(potential)
    if curvature.k1 is None:
        raise ValueError("scalar check needs a scalar curvature pair")
    sf = eval_sfuncs(curvature.k1, curvature.k2, field.t)
    rhs = -sf.s0dot / (2.0 * sf.s0)  # n = 1 on a planar grid
    _, _, gvv, testable = _stencil_arrays(field, potential, FLOOR_FRAC_DEFAULT)
    testable = testable & _region_mask(field, region)
    margin = gvv[testable] - rhs
    return _margin_report("scalar", field, margin, testable, tolerance)


# ---------------------------------------------------------------------------
# serialization


def snapshot_csv(field):
    """Serialize a field as CSV rows x,v,rho (row-major, exact float literals)."""
    nx, nv = field.rho.shape
    # each distinct x and v is formatted once; the columns are streamed
    xs = chain.from_iterable(map(repeat, _csv.floats(field.xs), repeat(nv)))
    vs = chain.from_iterable(repeat(list(_csv.floats(field.vs)), nx))
    return _csv.csv_text(["x", "v", "rho"], [xs, vs, _csv.floats(field.rho)])


def save_snapshot(field, path_base):
    """Write <base>.bin (row-major float64) and <base>.json sidecar."""
    data = np.ascontiguousarray(field.rho, dtype=np.float64)
    bin_path = f"{path_base}.bin"
    json_path = f"{path_base}.json"
    data.tofile(bin_path)
    meta = {
        "nx": int(field.xs.size),
        "nv": int(field.vs.size),
        "x_min": float(field.xs[0]),
        "x_max": float(field.xs[-1]),
        "v_min": float(field.vs[0]),
        "v_max": float(field.vs[-1]),
        "t": field.t,
        "t0": field.t0,
        "layout": "row-major x-major float64",
    }
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return bin_path, json_path


def load_snapshot(path_base):
    """Inverse of save_snapshot."""
    with open(f"{path_base}.json") as fh:
        meta = json.load(fh)
    rho = np.fromfile(f"{path_base}.bin", dtype=np.float64).reshape(
        meta["nx"], meta["nv"]
    )
    xs = np.linspace(meta["x_min"], meta["x_max"], meta["nx"])
    vs = np.linspace(meta["v_min"], meta["v_max"], meta["nv"])
    return GridField(xs, vs, rho, t=meta["t"], t0=meta["t0"])
