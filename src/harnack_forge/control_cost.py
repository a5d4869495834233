"""Optimal-control costs entering the integrated Harnack inequality.

The admissible paths follow the double-integrator control system

    x' = v,  v' = u,   u piecewise constant,

and the cost of joining (x0, v0) at time s to (x1, v1) at time t is

    c = inf over (u, gamma) of  int_s^t  |u|^2 / 4  -  h(gamma)  dtheta,

with h the curvature function of the potential (identically zero for
the free equation).  For h = 0 the cost has the closed form
d^T W(tau)^{-1} d / 4 in the transported endpoint difference d; the
transcription route discretizes u on m equal segments and minimizes
over the controls that hit the endpoint, exactly either way: by the
minimum-norm solution of the discrete endpoint map when h = 0, and by
one linear solve when h is a quadratic, since the transcribed cost is
then an exact quadratic in the controls.  A quadratic h that leaves
that cost without a minimum is reported as unbounded below.  The
closed form and the two transcription routes are kept separate so each
can audit the others.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _csv
from .closed_forms import eval_sfuncs
from .gaussian_kernel import kernel_state, log_density
from .riccati_engine import EXP_ARG_CAP, InputError


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
        ends = [np.atleast_1d(np.asarray(a, dtype=float)) for a in (x0, v0, x1, v1)]
        n = ends[0].size
        if any(a.shape != (n,) for a in ends):
            raise ValueError("endpoint components must share one shape (n,)")
        if not np.isfinite(np.concatenate([[s, t], *ends])).all():
            fields = zip(("s", "t", "x0", "v0", "x1", "v1"), (s, t, *ends))
            name, value = next((k, a) for k, a in fields if not np.isfinite(a).all())
            raise ValueError(f"{name} must be finite, got {name}={value}")
        if not t > s:
            raise ValueError(f"need t > s, got s={s}, t={t}")
        return ControlProblem(float(s), float(t), *ends)

    @property
    def n(self):
        return self.x0.size

    @property
    def tau(self):
        return self.t - self.s


def _flow(x0, v0, durations, controls):
    """Endpoint (x, v) of the exact segment flow from (x0, v0).

    Segment k of duration dt_k under control u_k maps x -> x + dt_k v +
    dt_k^2/2 u_k and v -> v + dt_k u_k.  Two running sums give the same
    bits as that per-segment loop: V = accumulate(v0, dt_0 u_0, dt_1 u_1,
    ...) holds the velocity entering each segment, and the endpoint x is
    the last of accumulate(x0, dt_0 V_0, (0.5 dt_0) dt_0 u_0, dt_1 V_1,
    ...), because accumulate adds strictly in sequence, as the loop's
    (x + dt v) + ((0.5 dt) dt) u does.  Takes (2m + 1) n floats of
    workspace for m segments in n dimensions.
    """
    dt = durations[:, None]
    m, n = controls.shape
    V = np.empty((m + 1, n))
    V[0] = v0
    np.multiply(dt, controls, out=V[1:])
    np.add.accumulate(V, axis=0, out=V)
    X = np.empty((2 * m + 1, n))
    X[0] = x0
    np.multiply(dt, V[:-1], out=X[1::2])
    np.multiply((0.5 * dt) * dt, controls, out=X[2::2])
    np.add.accumulate(X, axis=0, out=X)
    return X[-1].copy(), V[-1].copy()


class ControlPath:
    """Piecewise-constant-control trajectory with exact segment flow.

    Within a segment of duration dt the flow is the exact double
    integrator: x -> x + dt v + dt^2/2 u, v -> v + dt u, so endpoint
    positions carry no time-stepping error.  The flow (_flow) runs once,
    at construction, and only its endpoint is kept.

    Raises ValueError, naming the input, unless the durations are finite
    and positive, the controls are finite with shape (m, n) for m
    durations, and x0 and v0 have shape (n,).
    """

    def __init__(self, x0, v0, durations, controls):
        self.durations = np.asarray(durations, dtype=float)
        self.controls = np.asarray(controls, dtype=float)
        if (self.durations.ndim != 1 or self.controls.ndim != 2
                or self.controls.shape[0] != self.durations.size):
            raise ValueError("controls must have shape (m, n) matching durations")
        bad = ~(np.isfinite(self.durations) & (self.durations > 0))
        if bad.any():
            raise ValueError("segment durations must be finite and positive, got "
                             f"{float(self.durations[bad][0])!r}")
        if not np.isfinite(self.controls).all():
            raise ValueError("controls must be finite")
        n = self.controls.shape[1]
        x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
        for name, a in (("x0", x0), ("v0", v0)):
            if a.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},) to match the "
                                 f"controls, got shape {a.shape}")
        self._end = _flow(x0, v0, self.durations, self.controls)

    def endpoint(self):
        return self._end[0].copy(), self._end[1].copy()

    def energy(self):
        """Control energy sum dt |u|^2 / 4 over the segments."""
        return 0.25 * float(
            np.sum(self.durations * np.sum(self.controls**2, axis=1))
        )


def _gram_matrix(tau):
    """Controllability Gramian W(tau) of the double integrator.

    Raises InputError when tau^3 overflows or underflows to 0: W(tau) is
    then not finite, or singular.
    """
    try:
        cube = tau**3
    except OverflowError:  # Python floats raise where numpy gives inf
        cube = math.inf
    if not 0.0 < cube < math.inf:
        raise InputError(f"tau={tau!r}: the Gramian entry tau^3 / 3 is not a "
                         "positive finite float")
    return np.array([[cube / 3.0, tau**2 / 2.0], [tau**2 / 2.0, tau]])


def _gramian_costs(tau, x0, v0, x1, v1):
    """Per-column quarter Gramian form d^T W(tau)^{-1} d / 4.

    d = (x1 - x0 - tau v0, v1 - v0) is the endpoint deficit after free
    streaming, one column per entry of the (equal-shape, 1-d) inputs.
    Batch invariant: each column is its own 2x2 solve with one
    right-hand side, so a column's cost has the same bits however many
    columns share the call.
    """
    d = np.stack([x1 - x0 - tau * v0, v1 - v0], axis=-1)[..., None]  # (k, 2, 1)
    W = np.broadcast_to(_gram_matrix(tau), (d.shape[0], 2, 2))
    return 0.25 * np.sum(d * np.linalg.solve(W, d), axis=(1, 2))


def energy_cost(problem):
    """Closed-form minimal control energy d^T W(tau)^{-1} d / 4.

    d = (x1 - x0 - tau v0, v1 - v0) is the endpoint deficit after free
    streaming; W is the controllability Gramian of the double
    integrator.  Each dimension decouples, so the 2x2 Gramian is solved
    per component, and batch invariantly (see _gramian_costs): a pair
    priced in a batch equals the pair priced alone.
    """
    p = problem
    return float(np.sum(_gramian_costs(p.tau, p.x0, p.v0, p.x1, p.v1)))


def _correct_last_two(problem, m, controls):
    """Replace the last two controls so the endpoint is hit exactly.

    The first m - 2 controls are flowed (_flow) over segments of length
    tau / m; the last two then solve the endpoint map from the state they
    leave.
    """
    h = problem.tau / m
    x, v = _flow(problem.x0, problem.v0, np.full(m - 2, h), controls[: m - 2])
    rx = problem.x1 - x - 2 * h * v
    rv = problem.v1 - v
    a = rx / h**2 - rv / (2 * h)
    b = -rx / h**2 + 3 * rv / (2 * h)
    controls[m - 2] = a
    controls[m - 1] = b
    return controls


def _segment_count(m):
    """m as an int, or InputError if it is not an integer >= 2."""
    try:
        m = operator.index(m)
    except TypeError:
        raise InputError(f"m must be an integer, got m={m!r}") from None
    if m < 2:
        raise InputError("transcription needs at least 2 segments")
    return m


@dataclass
class TranscribeResult:
    """Outcome of the transcription.

    status is "ok", or "unbounded-below" when the running potential
    leaves the transcribed cost without a minimum (its reduced Hessian
    is not positive definite); then cost is -inf and path is None.
    Each route is one exact solve: n_starts is 1, and n_converged is 1,
    or 0 when unbounded below.
    """

    cost: float
    path: ControlPath | None
    status: str  # "ok" or "unbounded-below"
    n_converged: int
    n_starts: int


def _quadratic(h, n):
    """Check h = (c, g, H) and return it as (float, (2n,), (2n, 2n)) arrays."""
    k = 2 * n
    try:
        c, g, H = h
        c, g, H = (
            np.broadcast_to(np.asarray(a, dtype=float), shape)
            for a, shape in ((c, ()), (g, (k,)), (H, (k, k)))
        )
    except (TypeError, ValueError):
        raise ValueError(
            f"h must be (c, g, H) with c a number, g of shape ({k},) and "
            f"H of shape ({k}, {k})"
        ) from None
    if not all(np.isfinite(a).all() for a in (c, g, H)):
        raise ValueError("h has a non-finite entry")
    if not np.array_equal(H, H.T):
        raise ValueError("h: H must be symmetric")
    return float(c), g, H


def transcribe_cost(problem, m=24, h=None):
    """Minimize the transcribed cost over piecewise-constant controls.

    Without a running potential (h None) the problem is convex: the
    exact segment flow gives the endpoint map A U = B, with
    A[0, k] = dt^2 (m - k - 1/2), A[1, k] = dt, B = (x1 - x0 - tau v0,
    v1 - v0), and the minimum-norm controls U = A^T (A A^T)^{-1} B are
    the optimum.  A A^T, the discrete Gramian, comes from the segment
    flow, not from the closed form it audits.  The route is batch
    invariant: each dimension gets its own solve and matrix-vector
    product, and the segment flow is elementwise, so a dimension's
    controls have the same bits as the one-dimensional problem's, and
    0.25 dt times the sum of squares of its contiguous row of controls
    is that problem's cost.  A pair priced in a batch equals the pair
    priced alone.

    With h = (c, g, H) the running curvature function is the quadratic
    h(z) = c + g.z + z.H z / 2 in z = (x, v) in R^2n.  g and H broadcast
    to shapes (2n,) and (2n, 2n), so 0 stands for zero; H must be
    symmetric.  The last two of the m controls are eliminated through
    the exact endpoint map, leaving (m - 2) n free controls.  The
    running -h term is integrated per segment with 5-point
    Gauss-Legendre on the exact in-segment trajectory.  That trajectory
    is quadratic in time and affine in the controls, so h along it has
    degree 4 in time and the rule (exact to degree 9) makes the
    transcribed cost an exact quadratic in the free controls.  Its
    Hessian Q and its gradient at zero are built from the linear
    sensitivities of the trajectory to each control, and one Cholesky
    solve of Q w = -grad gives the optimum.  If Q is not positive
    definite the cost has no minimum: the result has status
    "unbounded-below", cost -inf and no path.

    Either way the last two controls are re-solved through the exact
    endpoint map, and the reported cost is that of the returned path.

    Raises
    ------
    ValueError
        If h is not a finite (c, g, H) of the right shapes with H
        symmetric.
    InputError
        If m is not an integer >= 2, or, without h, if the discrete
        Gramian A A^T overflows (tau too large for m segments).
    """
    m = _segment_count(m)
    n = problem.n
    dt = problem.tau / m
    p = problem
    if h is None:
        A = np.stack([dt * dt * (m - np.arange(m) - 0.5), np.full(m, dt)])  # (2, m)
        B = np.stack([p.x1 - p.x0 - p.tau * p.v0, p.v1 - p.v0], axis=-1)[..., None]
        with np.errstate(over="ignore"):
            gram = A @ A.T
        if not np.isfinite(gram).all():
            raise InputError(f"tau={p.tau!r}: the discrete Gramian A A^T at m={m} "
                             "is not finite")
        X = np.linalg.solve(np.broadcast_to(gram, (n, 2, 2)), B)  # (n, 2, 1)
        controls = _correct_last_two(p, m, (A.T @ X)[..., 0].T)  # (n, m, 1) -> (m, n)
        path = ControlPath(p.x0, p.v0, np.full(m, dt), controls)
        return TranscribeResult(0.25 * dt * float(np.sum(controls**2)), path, "ok", 1, 1)
    c, g, H = _quadratic(h, n)

    # sensitivities of the eliminated controls to each free control
    j_idx = np.arange(m - 2)
    Pj = 0.5 * dt * dt + dt * dt * (m - 3 - j_idx)  # d x_base / d u_j
    Vj = np.full(m - 2, dt)  # d v_base / d u_j
    drx = -(Pj + 2 * dt * Vj)
    drv = -Vj
    da = drx / dt**2 - drv / (2 * dt)  # d a / d u_j, scalar per j
    db = -drx / dt**2 + 3 * drv / (2 * dt)
    # all m controls are U0 + T @ w in the free controls w
    T = np.vstack([np.eye(m - 2), da, db])
    U0 = _correct_last_two(p, m, np.zeros((m, n)))

    # quadrature node times and trajectory sensitivities, node q in segment k:
    # dx(theta_q)/du_i = Px[q, i], dv/du_i = Pv[q, i] (identical per dim)
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)  # 5 nodes, weights on [-1, 1]
    seg_of = np.repeat(np.arange(m), 5)
    xi = np.tile(0.5 * dt * (gl_x + 1.0), m)  # local time within segment
    theta = p.s + seg_of * dt + xi
    wq = np.tile(0.5 * dt * gl_w, m)
    i_idx = np.arange(m)
    after = seg_of[:, None] > i_idx[None, :]
    own = seg_of[:, None] == i_idx[None, :]
    gap = theta[:, None] - (p.s + (i_idx[None, :] + 1) * dt)
    Px = np.where(after, 0.5 * dt * dt + dt * gap, 0.0) + np.where(
        own, 0.5 * xi[:, None] ** 2, 0.0
    )
    Pv = np.where(after, dt, 0.0) + np.where(own, xi[:, None], 0.0)
    rel = theta - p.s

    def node_states(controls):
        """Rows z = (x, v) at the quadrature nodes."""
        return np.hstack([p.x0 + rel[:, None] * p.v0 + Px @ controls, p.v0 + Pv @ controls])

    # Hessian of the energy minus that of the quadrature sum of h; S[a, q, j]
    # is the sensitivity of (x, v)[a] at node q to free control j, and
    # curv[a, b] = sum_q wq S[a, q]^T S[b, q]
    S = np.stack([Px @ T, Pv @ T])
    k = (m - 2) * n
    curv = (S * wq[:, None]).transpose(0, 2, 1)[:, None] @ S
    Q = 0.5 * dt * np.kron(T.T @ T, np.eye(n)) - np.einsum(
        "abij,adbe->idje", curv, H.reshape(2, n, 2, n)
    ).reshape(k, k)
    dh = wq[:, None] * (g + node_states(U0) @ H)  # weighted grad h at w = 0
    grad = T.T @ (0.5 * dt * U0 - Px.T @ dh[:, :n] - Pv.T @ dh[:, n:])
    try:
        L = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return TranscribeResult(-np.inf, None, "unbounded-below", 0, 1)
    controls = np.zeros((m, n))
    w = np.linalg.solve(L.T, np.linalg.solve(L, -grad.ravel()))
    controls[: m - 2] = w.reshape(m - 2, n)
    controls = _correct_last_two(p, m, controls)
    Z = node_states(controls)
    hz = c + Z @ g + 0.5 * np.sum((Z @ H) * Z, axis=1)
    cost = 0.25 * dt * float(np.sum(controls**2)) - float(wq @ hz)
    path = ControlPath(p.x0, p.v0, np.full(m, dt), controls)
    return TranscribeResult(cost, path, "ok", 1, 1)


def harnack_rhs(s, t, cost, n=1, k1=0.0, k2=0.0, U_start=0.0, U_end=0.0):
    """Right-hand side of the integrated Harnack inequality.

    rhs = (s0(t)/s0(s))^{-n/2} exp(-cost + U_end/2 - U_start/2), with s0
    taken from the curvature regime (k1, k2) of the potential.  Computed
    in log space and exponentiated at the end, so extreme endpoint pairs
    degrade to 0 or inf gracefully rather than overflowing midway.
    Raises ValueError unless 0 < s < t.
    """
    lg = log_harnack_rhs(s, t, cost, n=n, k1=k1, k2=k2, U_start=U_start, U_end=U_end)
    return float(np.exp(min(lg, EXP_ARG_CAP)))


def log_harnack_rhs(s, t, cost, n=1, k1=0.0, k2=0.0, U_start=0.0, U_end=0.0):
    """Log of harnack_rhs; an array of costs gives an array of logs.

    Raises ValueError unless 0 < s < t: the inequality runs forward in
    time from s > 0, where s0(s) > 0.
    """
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
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
    worst ratio.  Also reports the mean-to-mean gap, where the bound is
    tight (ratio 1 to rounding): the zero endpoints, whose cost is
    energy_cost of the zero problem, ride as one more row of the batch.
    All pairs and that anchor are priced as one batch: one Gramian form
    over the pair columns, one log_density call per state and one
    log_harnack_rhs call on the cost vector.  log_density and
    log_harnack_rhs are elementwise over rows, so the anchor's gap has
    the bits it has when priced alone.

    Raises ValueError unless s and t are finite with 0 < s < t,
    n_pairs >= 1 and box is finite and positive.
    """
    for name, value in (("s", s), ("t", t)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name}={value}")
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    if n_pairs < 1:
        raise ValueError(f"need n_pairs >= 1, got {n_pairs}")
    if not 0 < 2.0 * float(box) < np.inf:  # the draw width 2 box must be finite too
        raise ValueError(f"need a finite box > 0, got box={box}")
    state_s = kernel_state([0.0], [0.0], s)
    state_t = kernel_state([0.0], [0.0], t)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(n_pairs, 4))
    xs, vs, yt, wt = pts.T
    # tightness anchor: both means sit on the zero-control optimal path
    prob0 = ControlProblem.make(s, t, [0.0], [0.0], [0.0], [0.0])
    costs = np.append(_gramian_costs(float(t) - float(s), xs, vs, yt, wt),
                      energy_cost(prob0))
    batch = np.vstack([pts, np.zeros(4)])  # the anchor is the last row
    lhs = log_density(state_t, batch[:, 2:]) - log_density(state_s, batch[:, :2])
    gaps = lhs - log_harnack_rhs(s, t, costs, n=1)
    worst = int(np.argmin(gaps[:-1]))
    return KernelHarnackReport(
        s=s, t=t, n_pairs=n_pairs, min_ratio=float(np.exp(min(gaps[worst], EXP_ARG_CAP))),
        min_pair=tuple(pts[worst].tolist()), equality_gap=abs(float(np.expm1(gaps[-1]))),
    )


def _endpoint_fields(col):
    """One field per endpoint of a column: its components joined with ';'.

    Scalar and equal-size endpoints are formatted in one pass over the
    column; endpoints of mixed sizes one at a time.
    """
    try:
        block = np.array(col, dtype=float)
    except ValueError:  # mixed sizes do not stack
        return (";".join(_csv.floats(a)) for a in col)
    width = block.size // len(col) if col else 0
    if not width:  # no rows, or endpoints without components
        return repeat("", len(col))
    texts = _csv.floats(block)
    return map(";".join, zip(*[texts] * width))  # width consecutive literals per row


COST_CSV_HEADER = ["s", "t", "x0", "v0", "x1", "v1", "cost", "method", "m", "gap"]


def cost_csv(rows):
    """Serialize cost rows: s,t,x0,v0,x1,v1,cost,method,m,gap.

    Vector endpoint components are joined with ';' inside their field.
    """
    s, t, x0, v0, x1, v1, cost, method, m, gap = zip(*rows) if rows else [()] * 10
    ends = map(_endpoint_fields, (x0, v0, x1, v1))
    return _csv.csv_text(COST_CSV_HEADER, [
        _csv.floats(s), _csv.floats(t), *ends, _csv.floats(cost), method, map(str, m),
        _csv.floats(gap),
    ])
