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
shift plus fractional upwind), unconditionally stable.  It is not second
order: its STRANG_CHUNKS chunks are fixed whatever the grid, so its
splitting error is a floor that refining the grid does not lower (at
n_grid 256 the zero potential's matrix margin comes out about 0.04 low).

Both schemes solve the implicit diffusion with the Thomas algorithm,
swept in numpy (_diffuse_v).  It performs the operations of LAPACK's
dgttrf/dgttrs in their order and so equals them bit for bit on the
non-negative fields the solver carries; the solver needs numpy alone.

GridField.rho is x-major, shape (nx, nv).  Inside evolve the field is
velocity-major, a C-ordered (nv, nx) array whose row j is the line
v = vs[j]: evolve transposes it once on entry and once on return, and
every kernel (_upwind_x, _upwind_v, _diffuse_v, _sl_advect_x) takes
that layout and writes its result into an array of it that evolve owns.
evolve owns two: the field, in which the diffusion solves in place, and
a work array that each x-transport writes into; the drift writes back
into the field.  So a substep allocates no new field, and the returned
GridField is a copy that shares no memory with either.  Each kernel
does the same float operations on the same operands as its x-major
form, so the field is the same bit for bit; the mass ledger's sums run
over the velocity-major array, in its memory order.

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
from itertools import repeat

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
# the lie scheme refuses a run whose steps times (grid cells plus
# STEP_OVERHEAD_CELLS) exceed this.  A step costs its cells plus a fixed
# overhead worth about 4096 cells, which dominates small grids: on 2 vCPUs,
# at n_grid 8 to 128, a lie step took 53 to 690 us, some 13 to 36 ns per
# charged cell-step, so a run at the bound takes some 13 to 36 s.
MAX_CELL_STEPS = 1e9
STEP_OVERHEAD_CELLS = 4096


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
    (x-major) copy, so a field never changes after construction.  A
    density with non-finite or negative entries, or whose sum overflows,
    is refused with ValueError.
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
        with np.errstate(over="ignore"):  # refused below, not warned about
            total = self.rho.sum()
        if not np.isfinite(total):
            raise ValueError("density sum overflows: its finite entries "
                             f"add up past {np.finfo(float).max:.6g}")
        edge = (
            self.rho[0, :].sum()
            + self.rho[-1, :].sum()
            + self.rho[1:-1, 0].sum()
            + self.rho[1:-1, -1].sum()
        )
        self.boundary_fraction = float(edge / total) if total > 0 else 0.0
        self.boundary_warning = self.boundary_fraction > BOUNDARY_LEAK_WARN

    @property
    def dx(self):
        return float(self.xs[1] - self.xs[0])

    @property
    def dv(self):
        return float(self.vs[1] - self.vs[0])

    def mass(self):
        """Total mass: the density's sum times the cell area dx * dv.

        Raises ValueError if the product is not finite.  The sum itself is
        finite (__init__ refuses one that overflows), but axes wide enough,
        e.g. make_grid(1e300, 512) for both, make it overflow.
        """
        with np.errstate(over="ignore"):  # refused below, not warned about
            mass = self.rho.sum() * self.dx * self.dv
        if not np.isfinite(mass):
            raise ValueError(f"mass overflows: the density sums to {self.rho.sum():.6g} "
                             f"over cells of {self.dx:.6g} x {self.dv:.6g}")
        return float(mass)

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


def _upwind_x(rho, vs, dx, dt, out):
    """First-order upwind transport in x with speed v (rowwise).

    rho is velocity-major, (nv, nx); the transported field is written into
    out, a C-ordered array of rho's shape that does not overlap it.
    Returns (out, boundary_loss) where the loss is the exact telescoped
    edge flux; zero Dirichlet inflow.  vs must be increasing (GridField
    guarantees it): the rows with negative and positive Courant numbers
    are then two slices, and zero-speed rows between them are left as
    they are.
    """
    c = vs * dt / dx  # per-row Courant number
    lo, hi = int(np.searchsorted(c, 0.0, "left")), int(np.searchsorted(c, 0.0, "right"))
    neg, pos = slice(None, lo), slice(hi, None)
    out[lo:hi] = rho[lo:hi]
    # differences toward the upwind cell, each block of rows taken as one
    # flat line; the cells whose difference crosses a row end are then
    # the empty inflow cells, rho[:, 0] - 0 and 0 - rho[:, -1]
    p, q = out[pos], out[neg]
    line = rho[pos].ravel()
    np.subtract(line[1:], line[:-1], out=p.reshape(-1)[1:])
    p[:, 0] = rho[pos, 0]
    line = rho[neg].ravel()
    np.subtract(line[1:], line[:-1], out=q.reshape(-1)[:-1])
    np.subtract(0.0, rho[neg, -1], out=q[:, -1])
    for rows, diff in ((pos, p), (neg, q)):
        diff *= c[rows, None]
        np.subtract(rho[rows], diff, out=diff)
    loss = float(np.sum(c[pos] * rho[pos, -1]) + np.sum(-c[neg] * rho[neg, 0]))
    return out, loss


def _upwind_v(rho, cv, out):
    """First-order upwind drift in v with pointwise Courant numbers cv.

    rho and cv are velocity-major, (nv, nx); the drifted field is written
    into out, an array of rho's shape that does not overlap it, and
    returned.
    """
    # out[j] = rho[j] - rho[j - 1] where cv > 0, else rho[j + 1] - rho[j],
    # with empty rows beyond both edges
    up = cv > 0
    down = ~up
    np.subtract(rho[1:], rho[:-1], out=out[1:], where=up[1:])
    np.subtract(rho[1:], rho[:-1], out=out[:-1], where=down[:-1])
    np.copyto(out[0], rho[0], where=up[0])
    np.subtract(0.0, rho[-1], out=out[-1], where=down[-1])
    out *= cv
    return np.subtract(rho, out, out=out)


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


def _diffuse_v(out, dv, dt, nsub=1):
    """Implicit backward-Euler velocity diffusion, zero Dirichlet.

    Sets up once what every solve shares: the factors of the tridiagonal
    matrix (_tridiag_lu), and the row views of out, a C-ordered
    velocity-major (nv, nx) array, zipped with them.  The returned
    step(rho) -> (out, boundary_loss) copies rho into out (rho may be out
    itself, which copies nothing; it is never written otherwise), makes
    nsub solves of step dt / nsub on out in place, and returns out; the
    loss is the exact telescoped edge flux of the solves.  Each solve is
    the Thomas algorithm (Golub & Van Loan, Matrix Computations, section
    4.3) swept over the rows of out, one row operation for every x value
    at once:

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
    nx = out.shape[1]
    try:
        r = (dt / nsub) / dv**2
    except ArithmeticError:  # Python floats raise where numpy gives inf
        r = 0.0
    if not 0.0 < r < np.inf:
        raise InputError(f"the diffusion number dt / dv^2 at dt={dt / nsub:.3g}, "
                         f"dv={dv:.3g} is not a positive finite float")
    d, l = _tridiag_lu(out.shape[0], r)
    # 0-d coefficient arrays and row views, built once: with them and a
    # positional out, each ufunc call of the sweep is cheapest.
    tmp = np.empty(nx)
    du = np.array(-r)
    rows = list(out)  # row i is the line v = vs[i]
    forward = list(zip(map(np.array, l), rows[:-1], rows[1:]))
    back = list(zip(map(np.array, d[-2::-1]), rows[-2::-1], rows[:0:-1]))
    first, last = rows[0], rows[-1]
    d_last = np.array(d[-1])
    mul, sub, div = np.multiply, np.subtract, np.divide

    def step(rho):
        np.copyto(out, rho)
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
            loss += r * float(first.sum() + last.sum())
        return out, loss

    return step


def _shift_rows(rho, k, out):
    """out[:, i] = rho[:, i - k], zero where i - k lies outside the row."""
    nx = rho.shape[1]
    lo = min(max(k, 0), nx)
    hi = max(min(nx + k, nx), lo)
    out[:, :lo] = 0.0
    out[:, hi:] = 0.0
    out[:, lo:hi] = rho[:, lo - k:hi - k]


def _sl_advect_x(rho, vs, dx, tau, out):
    """Semi-Lagrangian x-transport: integer shift + fractional upwind.

    Exact for the integer part of the Courant number, first-order
    diffusive only in the fractional remainder; stable for any tau.
    rho is velocity-major, (nv, nx): row j is shifted k_j = floor(c_j)
    cells toward +x and blended with its shift by k_j + 1 (zero fill, no
    wraparound).  The result is written into out, an array of rho's
    shape that does not overlap it, and returned: each run of rows with
    one shift (shifts past the edge clipped to nx + 1 cells) is shifted
    as one block, and its blend is built in place.
    """
    nx = rho.shape[1]
    c = vs * tau / dx
    k = np.floor(c)
    a = (c - k)[:, None]
    blended = a > 0.0
    shift = np.clip(k, -nx - 1, nx + 1)
    cuts = [0, *(np.flatnonzero(np.diff(shift)) + 1), shift.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        block, rows, s = out[lo:hi], rho[lo:hi], int(shift[lo])
        _shift_rows(rows, s, block)
        w = blended[lo:hi]
        if w.any():
            blend = np.empty_like(block)
            _shift_rows(rows, s + 1, blend)
            blend *= a[lo:hi]
            np.multiply(1.0 - a[lo:hi], block, out=block, where=w)
            np.add(block, blend, out=block, where=w)
    return out


def _courant_rates(xs, vs, speed):
    """Unit-time Courant rates (|v|/dx max, |U_v|/dv max) on the grid
    xs x vs, for the velocity drift speed = U_v on its mesh."""
    rate_x = float(np.abs(vs).max() / float(xs[1] - xs[0]))
    rate_v = float(np.abs(speed).max() / float(vs[1] - vs[0]))
    return rate_x, rate_v


class _MassLedger:
    """Running mass of evolve's field, and the worst relative gap between a
    substep's change of it and the edge flux the substep computed."""

    def __init__(self, rho):
        self.total, self.worst = rho.sum(), 0.0

    def lost(self, rho, flux=None):
        """Mass lost by the substep that produced rho: its edge flux,
        checked against the change, if it computed one; else the change."""
        before, self.total = self.total, rho.sum()
        if flux is None:
            return before - self.total
        self.worst = max(self.worst, abs((before - self.total) - flux) / max(before, 1.0))
        return flux


def _plan(field, potential, t1, scheme):
    """Set up evolve's run of field to t1.  Every InputError that evolve
    raises comes from here, before any step.

    Returns (rho, work, n_steps, dt, taus, transport_x, drift_courant,
    diffuse, rate_x, rate_v): the velocity-major copy of the field that
    the diffusion solves in place, the x-transport's work array, the
    step count and step, the transport times, the x-transport, the
    drift's Courant numbers per transport time, the diffusion step and
    the two Courant rates.
    """
    if not field.t < t1 < np.inf:
        raise InputError(f"t1={t1} must be finite and exceed the field time {field.t}")
    if scheme not in ("lie", "strang"):
        raise InputError(f"unknown scheme {scheme!r}: expected lie or strang")
    T = t1 - field.t
    # velocity-major from here on: row j is the line v = vs[j]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        speed = potential.grad_v(field.xs, field.vs[:, None])
    rate_x, rate_v = _courant_rates(field.xs, field.vs, speed)
    if not (rate_x < np.inf and rate_v < np.inf):
        raise InputError(f"the Courant rates |v|/dx = {rate_x:.3g} and "
                         f"|U_v|/dv = {rate_v:.3g} must be finite")
    # the field, velocity-major; the diffusion solves in it in place
    rho = field.rho.T.copy()
    work = np.empty_like(rho)  # the x-transport writes here

    if scheme == "lie":
        steps = np.ceil(T / (CFL_LIMIT / max(rate_x, rate_v)))
        cell_steps = steps * (rho.size + STEP_OVERHEAD_CELLS)
        if not cell_steps <= MAX_CELL_STEPS:
            raise InputError(f"t1={t1} needs a predicted {cell_steps:.3g} cell-steps "
                             f"({steps:.3g} steps of {rho.size} cells plus "
                             f"STEP_OVERHEAD_CELLS={STEP_OVERHEAD_CELLS}), "
                             f"over the bound MAX_CELL_STEPS={MAX_CELL_STEPS:.3g}")
        n_steps = max(1, int(steps))
        dt = T / n_steps
        taus = repeat(dt, n_steps)
        nsub = 1
        transport_x = _upwind_x
        # the drift's Courant numbers, built once in speed's place: every tau is dt
        speed *= dt
        speed /= field.dv
        drift_courant = lambda tau: speed
    else:
        n_steps = STRANG_CHUNKS
        dt = T / n_steps
        if rate_v * dt > 1.0 + 1e-12:
            raise CFLError(f"drift CFL {rate_v * dt:.3g} > 1 at chunk size "
                           f"{dt:.3e}; use scheme lie for this drift")
        taus = [0.5 * dt, *repeat(dt, n_steps - 1), 0.5 * dt]
        nsub = STRANG_DIFFUSION_SUBSTEPS

        def transport_x(*args):  # no edge flux: the ledger measures the loss
            return _sl_advect_x(*args), None

        drift_courant = lambda tau: speed * tau / field.dv
    diffuse = _diffuse_v(rho, field.dv, dt, nsub)
    return rho, work, n_steps, dt, taus, transport_x, drift_courant, diffuse, rate_x, rate_v


def evolve(field, potential, t1, scheme="lie"):
    """Advance a grid field to absolute time t1.

    A plan (_plan), the only part that depends on the scheme, makes
    every refusal below, then sets n_steps, dt, the transport times and
    the diffusion solve.  One loop then takes,
    for each transport time tau, an x-transport over tau, an upwind
    v-drift over tau (for a nonzero drift) and, after each of the first
    n_steps transports, the implicit diffusion over dt.

    scheme "lie": n_steps transports of dt, upwind in x, each followed by
    one implicit diffusion solve; dt is CFL_LIMIT times the largest
    stable step, shortened to divide the interval.  A run whose
    predicted work, steps times (grid cells plus STEP_OVERHEAD_CELLS, a
    step's fixed cost), exceeds MAX_CELL_STEPS is refused before the
    first step.

    scheme "strang": telescoped Strang splitting over n_steps =
    STRANG_CHUNKS (2) equal chunks dt, so transports of dt/2, dt, ...,
    dt/2, semi-Lagrangian in x, with STRANG_DIFFUSION_SUBSTEPS (16)
    implicit substeps in each diffusion.  Aimed at the free equation; a
    nonzero drift must satisfy CFL at the chunk size.

    The mass ledger checks the edge flux of each upwind x-transport and
    diffusion against the change of the field's mass, and books the
    measured change for a semi-Lagrangian transport or a drift.

    The field is transposed once on entry to a velocity-major (nv, nx)
    array, stepped in that layout, and transposed back once into the
    returned x-major GridField.  Each transport reads that array and
    writes a work array; the drift, when there is one, writes back into
    the field array, and the diffusion, set up once per call, solves in
    it in place.  The ledger's per-substep sums run over the
    velocity-major array, in its memory order.

    Returns (GridField at t1, EvolveReport).

    Raises
    ------
    CFLError
        An InputError: the strang drift's Courant number exceeds 1 at the
        chunk size.
    InputError
        If t1 is not finite or does not exceed field.t, the scheme is
        neither "lie" nor "strang", a Courant rate is not finite (the
        drift overflows), the lie run's predicted work exceeds
        MAX_CELL_STEPS, or the diffusion number dt / dv^2 is not a
        positive finite float.
    """
    rho, work, n_steps, dt, taus, transport_x, drift_courant, diffuse, rate_x, rate_v = (
        _plan(field, potential, t1, scheme))

    m0 = field.mass()
    cell = field.dx * field.dv
    ledger = _MassLedger(rho)
    x_loss = diff_loss = drift_src = 0.0
    # every transport but the last is followed by a diffusion, which
    # leaves the field in rho: so each transport reads rho
    for k, tau in enumerate(taus):
        new, flux = transport_x(rho, field.vs, field.dx, tau, work)
        x_loss += ledger.lost(new, flux) * cell
        if rate_v > 0:
            new = _upwind_v(new, drift_courant(tau), rho)
            drift_src -= ledger.lost(new) * cell
        if k < n_steps:
            new, flux = diffuse(new)
            diff_loss += ledger.lost(new, flux) * cell

    out = GridField(field.xs, field.vs, new.T, t=t1, t0=field.t0)
    m1 = out.mass()
    # closing identity: every unit of mass change is a recorded flux
    closure = abs((m0 - m1) - (x_loss + diff_loss - drift_src)) / max(m0, 1e-300)
    report = EvolveReport(
        n_steps=n_steps,
        dt=dt,
        mass_initial=m0,
        mass_final=m1,
        x_boundary_loss=x_loss,
        diffusion_loss=diff_loss,
        drift_source=drift_src,
        ledger_discrepancy=max(ledger.worst, 0.0 if closure <= LEDGER_TOL else closure),
        cfl_x=rate_x * dt,
        cfl_v=rate_v * dt,
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


def _stencil_arrays(field, potential):
    """Second differences of g = log rho - U/2 on the 2-cell interior.

    Returns (gxx, gxv, gvv, testable) on the (nx-4, nv-4) interior, as
    read-only arrays; a point is testable when the full 5x5 density
    stencil around it clears the floor FLOOR_FRAC_DEFAULT * peak.

    A call leaves its arrays on the field, and the next call on that
    field takes them off, reusing them if it asks for the same potential
    object.  So the matrix and scalar checks of one field compute one
    stencil between them, and no stencil outlives the pair.
    """
    held, field._stencil = field._stencil, None
    if held is not None and held[0] is potential:
        return held[1]
    nx, nv = field.rho.shape
    if nx < 5 or nv < 5:
        raise ValueError("grid too small for the 5x5 Hessian stencil")
    floor = FLOOR_FRAC_DEFAULT * float(field.rho.max())
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
    field._stencil = (potential, arrays)
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
    gxx, gxv, gvv, testable = _stencil_arrays(field, potential)
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
    _, _, gvv, testable = _stencil_arrays(field, potential)
    testable = testable & _region_mask(field, region)
    margin = gvv[testable] - rhs
    return _margin_report("scalar", field, margin, testable, tolerance)


# ---------------------------------------------------------------------------
# serialization


def snapshot_csv(field):
    """Serialize a field as CSV rows x,v,rho (row-major, exact float literals).

    The text is built one x-row at a time, in _csv's field format: the
    row's "\\n" + x + "," prefix is made once per row and each v + ","
    field once per call, and both are interleaved with the repr of the
    row's rho values by slice assignment into one join per row.  So no
    line gets a tuple or a join of its own, and the build holds the
    finished rows and one row's parts, then the text: near twice the
    text's length.
    """
    nv = field.vs.size
    parts = [None] * (3 * nv)  # one row: prefix, v field, rho literal per line
    parts[1::3] = [v + "," for v in _csv.floats(field.vs)]
    rows = ["x,v,rho"]
    for x, values in zip(_csv.floats(field.xs), field.rho):
        parts[0::3] = ["\n" + x + ","] * nv
        parts[2::3] = map(repr, values.tolist())
        rows.append("".join(parts))
    rows.append("\n")
    return "".join(rows)


def save_snapshot(field, path_base):
    """Write <base>.bin (row-major float64) and <base>.json sidecar.

    The sidecar lists both axes in full, as exact float literals, so
    load_snapshot returns them bit for bit; their end points and sizes
    are repeated as x_min, x_max, nx and so on.  Both files go through
    _csv.write_artifact: the .bin straight from field.rho's buffer, and
    each as a new file that replaces whatever was at its path, so a link
    to an older snapshot keeps that snapshot.  Returns the two paths.
    """
    meta = {
        "nx": int(field.xs.size),
        "nv": int(field.vs.size),
        "x_min": float(field.xs[0]),
        "x_max": float(field.xs[-1]),
        "v_min": float(field.vs[0]),
        "v_max": float(field.vs[-1]),
        "xs": field.xs.tolist(),
        "vs": field.vs.tolist(),
        "t": field.t,
        "t0": field.t0,
        "layout": "row-major x-major float64",
    }
    return (_csv.write_artifact(f"{path_base}.bin", field.rho),
            _csv.write_artifact(f"{path_base}.json",
                                json.dumps(meta, indent=1, sort_keys=True)))


def load_snapshot(path_base):
    """Inverse of save_snapshot: the same density, axes and times, bit for bit."""
    with open(f"{path_base}.json") as fh:
        meta = json.load(fh)
    rho = np.fromfile(f"{path_base}.bin", dtype=np.float64).reshape(
        meta["nx"], meta["nv"]
    )
    return GridField(meta["xs"], meta["vs"], rho, t=meta["t"], t0=meta["t0"])
