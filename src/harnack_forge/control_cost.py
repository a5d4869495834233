"""Optimal-control costs entering the integrated Harnack inequality.

The admissible paths follow the double-integrator control system

    x' = v,  v' = u,   u piecewise constant,

and the cost of joining (x0, v0) at time s to (x1, v1) at time t is

    c = inf over (u, gamma) of  int_s^t  |u|^2 / 4  -  h(gamma)  dtheta,

with h the curvature function of the potential (identically zero for
the free equation).  For h = 0 the cost has the closed form
d^T W(tau)^{-1} d / 4 in the transported endpoint difference d; the
transcription route discretizes u on m equal segments and minimizes
over the controls that hit the endpoint: exactly, by the minimum-norm
solution of the discrete endpoint map, when h = 0, and by L-BFGS-B
otherwise.  Both routes are kept separate so each can audit the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _csv

ENDPOINT_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """No optimizer start converged; carries the best value seen."""

    def __init__(self, message, best_cost=None):
        super().__init__(message)
        self.best_cost = best_cost


@dataclass(frozen=True)
class ControlProblem:
    """Endpoint steering problem on the time window [s, t]."""

    s: float
    t: float
    x0: np.ndarray
    v0: np.ndarray
    x1: np.ndarray
    v1: np.ndarray

    @staticmethod
    def make(s, t, x0, v0, x1, v1):
        if not t > s:
            raise ValueError(f"need t > s, got s={s}, t={t}")
        arrs = [np.atleast_1d(np.asarray(a, dtype=float)) for a in (x0, v0, x1, v1)]
        n = arrs[0].size
        if any(a.shape != (n,) for a in arrs):
            raise ValueError("endpoint components must share one shape (n,)")
        return ControlProblem(float(s), float(t), *arrs)

    @property
    def n(self):
        return self.x0.size

    @property
    def tau(self):
        return self.t - self.s


class ControlPath:
    """Piecewise-constant-control trajectory with exact segment flow.

    Within a segment of duration dt the flow is the exact double
    integrator: x -> x + dt v + dt^2/2 u, v -> v + dt u, so endpoint
    positions carry no time-stepping error.
    """

    def __init__(self, s, x0, v0, durations, controls):
        self.s = float(s)
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        self.v0 = np.atleast_1d(np.asarray(v0, dtype=float))
        self.durations = np.asarray(durations, dtype=float)
        self.controls = np.asarray(controls, dtype=float)
        if self.controls.ndim != 2 or self.controls.shape[0] != self.durations.size:
            raise ValueError("controls must have shape (m, n) matching durations")
        if np.any(self.durations <= 0):
            raise ValueError("segment durations must be positive")
        # precompute segment-boundary states
        m, n = self.controls.shape
        xs = np.empty((m + 1, n))
        vs = np.empty((m + 1, n))
        xs[0], vs[0] = self.x0, self.v0
        for i in range(m):
            dt, u = self.durations[i], self.controls[i]
            xs[i + 1] = xs[i] + dt * vs[i] + 0.5 * dt * dt * u
            vs[i + 1] = vs[i] + dt * u
        self._xs, self._vs = xs, vs
        self._tgrid = self.s + np.concatenate([[0.0], np.cumsum(self.durations)])

    @property
    def t_end(self):
        return float(self._tgrid[-1])

    def endpoint(self):
        return self._xs[-1].copy(), self._vs[-1].copy()

    def state(self, theta):
        """Exact state (x, v) at any time inside the window."""
        tg = self._tgrid
        if theta < tg[0] - 1e-12 or theta > tg[-1] + 1e-12:
            raise ValueError(f"theta={theta} outside [{tg[0]}, {tg[-1]}]")
        i = min(np.searchsorted(tg, theta, side="right") - 1, len(tg) - 2)
        i = max(i, 0)
        xi = theta - tg[i]
        u = self.controls[i]
        x = self._xs[i] + xi * self._vs[i] + 0.5 * xi * xi * u
        v = self._vs[i] + xi * u
        return x, v

    def energy(self):
        """Control energy sum dt |u|^2 / 4 over the segments."""
        return 0.25 * float(
            np.sum(self.durations * np.sum(self.controls**2, axis=1))
        )


def _gram_matrix(tau):
    return np.array([[tau**3 / 3.0, tau**2 / 2.0], [tau**2 / 2.0, tau]])


def _gramian_costs(tau, x0, v0, x1, v1):
    """Per-column quarter Gramian form d^T W(tau)^{-1} d / 4.

    d = (x1 - x0 - tau v0, v1 - v0) is the endpoint deficit after free
    streaming, one column per entry of the (equal-shape, 1-d) inputs.
    """
    d = np.stack([x1 - x0 - tau * v0, v1 - v0])  # (2, k)
    return 0.25 * np.sum(d * np.linalg.solve(_gram_matrix(tau), d), axis=0)


def energy_cost(problem):
    """Closed-form minimal control energy d^T W(tau)^{-1} d / 4.

    d = (x1 - x0 - tau v0, v1 - v0) is the endpoint deficit after free
    streaming; W is the controllability Gramian of the double
    integrator.  Each dimension decouples, so the 2x2 Gramian is solved
    per component.
    """
    p = problem
    return float(np.sum(_gramian_costs(p.tau, p.x0, p.v0, p.x1, p.v1)))


def cost_identity_gap(tau, n=1):
    """Max-entry gap of W(tau)^{-1}/4 - Sigma(tau)^{-1}/2 (Sigma = 2 W).

    kron(W, I) has the same (x-block, v-block) layout as the kernel
    covariance, so the comparison is entrywise.
    """
    from .gaussian_kernel import free_covariance

    W2 = np.kron(_gram_matrix(tau), np.eye(n))
    lhs = 0.25 * np.linalg.inv(W2)
    rhs = 0.5 * np.linalg.inv(free_covariance(tau, n))
    return float(np.abs(lhs - rhs).max())


def hermite_control(problem, theta):
    """Energy-optimal continuous control at time theta (h = 0 case).

    The optimal position path is the cubic Hermite interpolant of the
    endpoints; its acceleration is linear in time.  A (k, 1) array of
    times gives the (k, n) controls.
    """
    tau = problem.tau
    sig = (theta - problem.s) / tau
    return (
        (12 * sig - 6) * problem.x0
        + (6 * sig - 4) * tau * problem.v0
        + (-12 * sig + 6) * problem.x1
        + (6 * sig - 2) * tau * problem.v1
    ) / tau**2


def _correct_last_two(problem, m, controls):
    """Replace the last two controls so the endpoint is hit exactly."""
    h = problem.tau / m
    x, v = problem.x0.copy(), problem.v0.copy()
    for i in range(m - 2):
        u = controls[i]
        x = x + h * v + 0.5 * h * h * u
        v = v + h * u
    rx = problem.x1 - x - 2 * h * v
    rv = problem.v1 - v
    a = rx / h**2 - rv / (2 * h)
    b = -rx / h**2 + 3 * rv / (2 * h)
    controls[m - 2] = a
    controls[m - 1] = b
    return controls


def steer_exact(problem, m=8):
    """Piecewise-constant steering path hitting the endpoint exactly.

    Controls sample the energy-optimal continuous control at segment
    midpoints; the last two segments are then re-solved through the
    exact endpoint map (a per-dimension 2x2 linear system), which
    absorbs the sampling error.  Needs m >= 2.
    """
    if m < 2:
        raise ValueError("steering needs at least 2 segments")
    h = problem.tau / m
    midpoints = problem.s + (np.arange(m)[:, None] + 0.5) * h
    controls = _correct_last_two(problem, m, hermite_control(problem, midpoints))
    path = ControlPath(problem.s, problem.x0, problem.v0, np.full(m, h), controls)
    ex, ev = path.endpoint()
    err = max(np.abs(ex - problem.x1).max(), np.abs(ev - problem.v1).max())
    if err > ENDPOINT_TOL:
        raise RuntimeError(f"endpoint miss {err:.3e} exceeds {ENDPOINT_TOL}")
    return path


# 5-point Gauss-Legendre nodes / weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)


@dataclass
class TranscribeResult:
    """Outcome of the transcription optimizer."""

    cost: float
    path: ControlPath
    status: str  # "ok" or "unbounded-below"
    n_converged: int
    n_starts: int


def _fd_h_grad(h_func, x, v, step=1e-6):
    gx = np.empty_like(x)
    gv = np.empty_like(v)
    for j in range(x.shape[1]):
        e = np.zeros(x.shape[1])
        e[j] = step
        gx[:, j] = (h_func(x + e, v) - h_func(x - e, v)) / (2 * step)
        gv[:, j] = (h_func(x, v + e) - h_func(x, v - e)) / (2 * step)
    return gx, gv


def transcribe_cost(
    problem,
    m=24,
    h_func=None,
    h_grad=None,
    n_starts=5,
    seed=0,
    unbounded_floor=-1e8,
):
    """Minimize the transcribed cost over piecewise-constant controls.

    Without a running potential (h_func None) the problem is convex: the
    exact segment flow gives the endpoint map A U = B, with
    A[0, k] = h^2 (m - k - 1/2), A[1, k] = h, B = (x1 - x0 - tau v0,
    v1 - v0), and the minimum-norm controls U = A^T (A A^T)^{-1} B are
    the optimum (one converged start).  A A^T, the discrete Gramian,
    comes from the segment flow, not from the closed form it audits.

    With h_func, the last two of the m controls are eliminated through
    the exact endpoint map, so every iterate is feasible.  The running
    -h term is integrated per segment with 5-point Gauss-Legendre on the
    exact in-segment quadratic trajectory; its gradient uses the linear
    sensitivity of the trajectory to each control.  L-BFGS-B runs from
    the energy-optimal seed plus seeded perturbations; the best
    converged start wins.  Either way the last two controls are
    re-solved through the exact endpoint map.

    Returns a TranscribeResult; status "unbounded-below" flags costs
    diving through unbounded_floor (h growing super-quadratically).

    Raises
    ------
    ConvergenceError
        If no start converges (best value seen is attached).
    """
    if m < 2:
        raise ValueError("transcription needs at least 2 segments")
    n = problem.n
    h = problem.tau / m
    if h_func is None:
        p = problem
        A = np.stack([h * h * (m - np.arange(m) - 0.5), np.full(m, h)])  # (2, m)
        B = np.stack([p.x1 - p.x0 - p.tau * p.v0, p.v1 - p.v0])  # (2, n)
        controls = _correct_last_two(p, m, A.T @ np.linalg.solve(A @ A.T, B))
        path = ControlPath(p.s, p.x0, p.v0, np.full(m, h), controls)
        return TranscribeResult(0.25 * h * float(np.sum(controls**2)), path, "ok", 1, 1)

    from scipy.optimize import minimize

    nfree = (m - 2) * n

    # sensitivities of the eliminated controls to each free control
    j_idx = np.arange(m - 2)
    Pj = 0.5 * h * h + h * h * (m - 3 - j_idx)  # d x_base / d u_j
    Vj = np.full(m - 2, h)  # d v_base / d u_j
    drx = -(Pj + 2 * h * Vj)
    drv = -Vj
    da = drx / h**2 - drv / (2 * h)  # d a / d u_j, scalar per j
    db = -drx / h**2 + 3 * drv / (2 * h)

    # quadrature node times and trajectory sensitivities, node q in segment k:
    # dx(theta_q)/du_i = Px[q, i], dv/du_i = Pv[q, i] (identical per dim)
    seg_of = np.repeat(np.arange(m), 5)
    xi = np.tile(0.5 * h * (_GL_X + 1.0), m)  # local time within segment
    theta = problem.s + seg_of * h + xi
    wq = np.tile(0.5 * h * _GL_W, m)
    i_idx = np.arange(m)
    after = seg_of[:, None] > i_idx[None, :]
    own = seg_of[:, None] == i_idx[None, :]
    gap = theta[:, None] - (problem.s + (i_idx[None, :] + 1) * h)
    Px = np.where(after, 0.5 * h * h + h * gap, 0.0) + np.where(
        own, 0.5 * xi[:, None] ** 2, 0.0
    )
    Pv = np.where(after, h, 0.0) + np.where(own, xi[:, None], 0.0)

    grad_h = h_grad if h_grad is not None else (lambda X, V: _fd_h_grad(h_func, X, V))

    def assemble(w):
        controls = np.empty((m, n))
        controls[: m - 2] = w.reshape(m - 2, n)
        return _correct_last_two(problem, m, controls)

    def cost_and_grad(w):
        controls = assemble(w)
        val = 0.25 * h * float(np.sum(controls**2))
        g_all = 0.5 * h * controls  # gradient treating all m controls free
        # node states: x(theta_q) = x0 + (theta-s) v0 + sum_i Px[q,i] u_i
        rel = theta - problem.s
        Xq = problem.x0 + rel[:, None] * problem.v0 + Px @ controls
        Vq = problem.v0 + Pv @ controls
        hq = np.asarray(h_func(Xq, Vq), dtype=float)
        val -= float(np.sum(wq * hq))
        gx, gv = grad_h(Xq, Vq)
        g_all -= Px.T @ (wq[:, None] * gx) + Pv.T @ (wq[:, None] * gv)
        grad = g_all[: m - 2] + da[:, None] * g_all[m - 2] + db[:, None] * g_all[m - 1]
        return val, grad.ravel()

    def path_of(w):
        durations = np.full(m, h)
        return ControlPath(problem.s, problem.x0, problem.v0, durations, assemble(w))

    if nfree == 0:  # m = 2: the endpoint fixes both controls
        w = np.zeros(0)
        return TranscribeResult(cost_and_grad(w)[0], path_of(w), "ok", 1, 1)

    midpoints = problem.s + (np.arange(m - 2)[:, None] + 0.5) * h
    seed_w = hermite_control(problem, midpoints).ravel()

    rng = np.random.default_rng(seed)
    starts = [seed_w]
    scale = 1.0 + float(np.abs(seed_w).max())
    for _ in range(n_starts - 1):
        starts.append(seed_w + 0.1 * scale * rng.standard_normal(nfree))

    best = None
    best_val = np.inf
    n_conv = 0
    for w0 in starts:
        # an unbounded-below h makes iterates dive toward -inf before the
        # floor check; the overflows on that path are expected
        with np.errstate(over="ignore", invalid="ignore"):
            res = minimize(
                cost_and_grad,
                w0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
            )
        if res.success or res.fun < best_val:
            if res.success:
                n_conv += 1
            if res.fun < best_val:
                best_val = float(res.fun)
                best = res.x
    if n_conv == 0:
        raise ConvergenceError(
            f"no optimizer start converged; best cost {best_val:.6g}",
            best_cost=best_val,
        )
    status = "unbounded-below" if best_val < unbounded_floor else "ok"
    return TranscribeResult(best_val, path_of(best), status, n_conv, len(starts))


def harnack_rhs(s, t, cost, n=1, k1=0.0, k2=0.0, U_start=0.0, U_end=0.0):
    """Right-hand side of the integrated Harnack inequality.

    rhs = (s0(t)/s0(s))^{-n/2} exp(-cost + U_end/2 - U_start/2), with s0
    taken from the curvature regime (k1, k2) of the potential.  Computed
    in log space and exponentiated at the end, so extreme endpoint pairs
    degrade to 0 or inf gracefully rather than overflowing midway.
    """
    lg = log_harnack_rhs(s, t, cost, n=n, k1=k1, k2=k2, U_start=U_start, U_end=U_end)
    return float(np.exp(min(lg, 700.0)))


def log_harnack_rhs(s, t, cost, n=1, k1=0.0, k2=0.0, U_start=0.0, U_end=0.0):
    """Log of harnack_rhs; an array of costs gives an array of logs."""
    from .closed_forms import eval_sfuncs

    s0s = eval_sfuncs(k1, k2, s).s0
    s0t = eval_sfuncs(k1, k2, t).s0
    return (
        -0.5 * n * (np.log(s0t) - np.log(s0s))
        - cost
        + 0.5 * (U_end - U_start)
    )


@dataclass
class KernelHarnackReport:
    """Result of the seeded integrated-Harnack sweep against the kernel."""

    s: float
    t: float
    n_pairs: int
    min_ratio: float
    min_pair: tuple
    equality_gap: float


def verify_harnack_kernel(s, t, n_pairs=1000, seed=0, box=3.0):
    """Check the integrated Harnack inequality on exact kernel solutions.

    Draws seeded endpoint pairs (x, v) at time s and (y, w) at time t
    from [-box, box]^4, compares log rho_t(y, w) - log rho_s(x, v)
    against the bound with the closed-form energy cost, and reports the
    worst ratio.  All pairs are priced as one batch: one Gramian form
    over the pair columns, one log_density call per state and one
    log_harnack_rhs call on the cost vector.  Also reports the
    mean-to-mean gap, where the bound is tight (ratio 1 to rounding).
    """
    from .gaussian_kernel import kernel_state, log_density

    if not 0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    if n_pairs < 1:
        raise ValueError(f"need n_pairs >= 1, got {n_pairs}")
    state_s = kernel_state([0.0], [0.0], s)
    state_t = kernel_state([0.0], [0.0], t)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(n_pairs, 4))
    xs, vs, yt, wt = pts.T
    costs = _gramian_costs(float(t) - float(s), xs, vs, yt, wt)
    lhs = log_density(state_t, pts[:, 2:]) - log_density(state_s, pts[:, :2])
    gaps = lhs - log_harnack_rhs(s, t, costs, n=1)
    worst = int(np.argmin(gaps))
    # tightness anchor: both means sit on the zero-control optimal path
    prob0 = ControlProblem.make(s, t, [0.0], [0.0], [0.0], [0.0])
    gap0 = (
        float(log_density(state_t, np.zeros(2)))
        - float(log_density(state_s, np.zeros(2)))
        - log_harnack_rhs(s, t, energy_cost(prob0), n=1)
    )
    return KernelHarnackReport(
        s=s, t=t, n_pairs=n_pairs, min_ratio=float(np.exp(min(gaps[worst], 700.0))),
        min_pair=tuple(pts[worst].tolist()), equality_gap=abs(float(np.expm1(gap0))),
    )


def cost_csv(rows):
    """Serialize cost rows: s,t,x0,v0,x1,v1,cost,method,m,gap.

    Vector endpoint components are joined with ';' inside their field.
    """
    header = ["s", "t", "x0", "v0", "x1", "v1", "cost", "method", "m", "gap"]
    s, t, x0, v0, x1, v1, cost, method, m, gap = zip(*rows) if rows else [()] * 10
    ends = ((";".join(_csv.floats(a)) for a in col) for col in (x0, v0, x1, v1))
    return _csv.csv_text(header, [
        _csv.floats(s), _csv.floats(t), *ends, _csv.floats(cost), method, map(str, m),
        _csv.floats(gap),
    ])
