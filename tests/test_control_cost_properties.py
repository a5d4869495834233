"""Property tests of the exact transcription and the batched Harnack sweep."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from harnack_forge.control_cost import (
    ControlProblem,
    _correct_last_two,
    _flow,
    _gramian_costs,
    energy_cost,
    log_harnack_rhs,
    transcribe_cost,
    verify_harnack_kernel,
)
from harnack_forge.gaussian_kernel import kernel_state, log_density
from harnack_forge.riccati_engine import EXP_ARG_CAP

# largest endpoint miss of a transcribed path, which re-solves its last two
# controls through the exact endpoint map
ENDPOINT_TOL = 1e-9

coord = st.floats(-2.0, 2.0)


@st.composite
def problems(draw, n=1):
    """Steering problems on [s, s + tau] with endpoints in [-2, 2]^(4n)."""
    s = draw(st.floats(0.0, 1.0))
    tau = draw(st.floats(0.2, 2.0))
    x0, v0, x1, v1 = (draw(st.lists(coord, min_size=n, max_size=n)) for _ in range(4))
    return ControlProblem.make(s, s + tau, x0, v0, x1, v1)


@st.composite
def concave_quadratics(draw, n):
    """h = (c, g, H), H = -M M^T negative semidefinite; c, g, M in [-1, 1]."""
    entry = st.floats(-1.0, 1.0)
    c = draw(entry)
    g = np.array(draw(st.lists(entry, min_size=2 * n, max_size=2 * n)))
    M = np.array(draw(st.lists(entry, min_size=4 * n * n, max_size=4 * n * n)))
    P = M.reshape(2 * n, 2 * n) @ M.reshape(2 * n, 2 * n).T
    return c, g, -(P + P.T) / 2  # exactly symmetric, as transcribe_cost requires


def _hermite_control(prob, theta):
    """Energy-optimal continuous control of the h = 0 problem at times theta.

    The optimal position path is the cubic Hermite interpolant of the
    endpoints, so its acceleration is linear in time; a (k, 1) array of
    times gives the (k, n) controls.
    """
    tau = prob.tau
    sig = (theta - prob.s) / tau
    return (
        (12 * sig - 6) * prob.x0
        + (6 * sig - 4) * tau * prob.v0
        + (-12 * sig + 6) * prob.x1
        + (6 * sig - 2) * tau * prob.v1
    ) / tau**2


def _reference_lbfgsb_cost(prob, m, c, g, H):
    """The former L-BFGS-B transcription for h = (c, g, H), one start.

    Same elimination of the last two controls, Gauss-Legendre nodes and
    trajectory sensitivities as the exact route, but the cost is
    minimized iteratively from the Hermite seed instead of solved.
    """
    n, h = prob.n, prob.tau / m
    j_idx = np.arange(m - 2)
    Pj = 0.5 * h * h + h * h * (m - 3 - j_idx)
    Vj = np.full(m - 2, h)
    drx, drv = -(Pj + 2 * h * Vj), -Vj
    da = drx / h**2 - drv / (2 * h)
    db = -drx / h**2 + 3 * drv / (2 * h)
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    seg_of = np.repeat(np.arange(m), 5)
    xi = np.tile(0.5 * h * (gl_x + 1.0), m)
    theta = prob.s + seg_of * h + xi
    wq = np.tile(0.5 * h * gl_w, m)
    i_idx = np.arange(m)
    after = seg_of[:, None] > i_idx[None, :]
    own = seg_of[:, None] == i_idx[None, :]
    gap = theta[:, None] - (prob.s + (i_idx[None, :] + 1) * h)
    Px = np.where(after, 0.5 * h * h + h * gap, 0.0) + np.where(
        own, 0.5 * xi[:, None] ** 2, 0.0
    )
    Pv = np.where(after, h, 0.0) + np.where(own, xi[:, None], 0.0)

    def cost_and_grad(w):
        controls = np.empty((m, n))
        controls[: m - 2] = w.reshape(m - 2, n)
        controls = _correct_last_two(prob, m, controls)
        val = 0.25 * h * float(np.sum(controls**2))
        g_all = 0.5 * h * controls
        Xq = prob.x0 + (theta - prob.s)[:, None] * prob.v0 + Px @ controls
        Vq = prob.v0 + Pv @ controls
        Z = np.hstack([Xq, Vq])
        val -= float(np.sum(wq * (c + Z @ g + 0.5 * np.sum((Z @ H) * Z, axis=1))))
        dh = g + Z @ H
        g_all -= Px.T @ (wq[:, None] * dh[:, :n]) + Pv.T @ (wq[:, None] * dh[:, n:])
        grad = g_all[: m - 2] + da[:, None] * g_all[m - 2] + db[:, None] * g_all[m - 1]
        return val, grad.ravel()

    midpoints = prob.s + (np.arange(m - 2)[:, None] + 0.5) * h
    res = minimize(
        cost_and_grad,
        _hermite_control(prob, midpoints).ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
    )
    # a line search that stalls at rounding level near the optimum ends
    # "abnormally"; the value it reached is still the reference
    return float(res.fun)


@given(problems(), st.integers(2, 16))
def test_minimum_norm_route_matches_quadratic_route(prob, m):
    # h = 0 given as a quadratic takes the Hessian solve on the same problem
    exact = transcribe_cost(prob, m=m)
    quadratic = transcribe_cost(prob, m=m, h=(0, 0, 0))
    for res in (exact, quadratic):
        assert res.status == "ok" and (res.n_converged, res.n_starts) == (1, 1)
    assert exact.cost == pytest.approx(quadratic.cost, rel=1e-9, abs=1e-12)


@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(problems(n), concave_quadratics(n))
    ),
    st.integers(3, 24),
)
def test_quadratic_route_matches_lbfgsb_reference(case, m):
    # concave h makes the transcribed cost convex, so one start suffices
    prob, (c, g, H) = case
    res = transcribe_cost(prob, m=m, h=(c, g, H))
    assert res.status == "ok"
    assert res.cost == pytest.approx(
        _reference_lbfgsb_cost(prob, m, c, g, H), rel=1e-9, abs=1e-12
    )


@given(st.integers(1, 3).flatmap(problems), st.integers(2, 40))
def test_exact_route_hits_endpoint_above_continuous_cost(prob, m):
    res = transcribe_cost(prob, m=m)
    ex, ev = res.path.endpoint()
    assert np.abs(ex - prob.x1).max() <= ENDPOINT_TOL
    assert np.abs(ev - prob.v1).max() <= ENDPOINT_TOL
    assert res.cost == pytest.approx(res.path.energy(), rel=1e-12, abs=1e-15)
    assert res.cost >= energy_cost(prob) - 1e-12


@given(problems(n=2), st.integers(2, 40))
def test_exact_route_dimensions_decouple(prob, m):
    # both routes are batch invariant: each dimension has the bits of its lone solve
    controls = transcribe_cost(prob, m=m).path.controls
    closed = _gramian_costs(prob.tau, prob.x0, prob.v0, prob.x1, prob.v1)
    for j in range(2):
        alone = ControlProblem.make(
            prob.s, prob.t, prob.x0[j], prob.v0[j], prob.x1[j], prob.v1[j]
        )
        res = transcribe_cost(alone, m=m)
        row = np.ascontiguousarray(controls[:, j])
        assert row.tobytes() == res.path.controls[:, 0].tobytes()
        assert 0.25 * (prob.tau / m) * float(np.sum(row**2)) == res.cost
        assert closed[j] == energy_cost(alone)


@given(
    st.floats(0.1, 2.0),
    st.floats(0.05, 2.0),
    st.integers(1, 300),
    st.integers(0, 2**31),
)
def test_batched_sweep_matches_per_pair_loop(s, tau, n_pairs, seed):
    t = s + tau
    rep = verify_harnack_kernel(s, t, n_pairs=n_pairs, seed=seed, box=3.0)
    state_s = kernel_state([0.0], [0.0], s)
    state_t = kernel_state([0.0], [0.0], t)
    pts = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n_pairs, 4))
    min_gap, min_pair = np.inf, None
    for x, v, y, w in pts.tolist():
        cost = energy_cost(ControlProblem.make(s, t, [x], [v], [y], [w]))
        lhs = float(log_density(state_t, np.array([y, w]))) - float(
            log_density(state_s, np.array([x, v]))
        )
        gap = lhs - log_harnack_rhs(s, t, cost, n=1)
        if gap < min_gap:
            min_gap, min_pair = gap, (x, v, y, w)
    assert rep.min_pair == min_pair
    assert rep.min_ratio == pytest.approx(np.exp(min(min_gap, 700.0)), rel=1e-12)
    assert rep.n_pairs == n_pairs


def _loop_flow(x0, v0, durations, controls):
    """The exact segment flow as the per-segment loop it replaced."""
    x, v = x0, v0
    for dt, u in zip(durations, controls):
        x = x + dt * v + 0.5 * dt * dt * u
        v = v + dt * u
    return x, v


# |entries| <= 1e6 and dt <= 10 over at most 64 segments keep every sum far
# from overflow, and the explicit zeros put both signed zeros in the draws
flow_entry = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


@st.composite
def flows(draw):
    """(x0, v0, durations, controls) with m in [0, 64] segments in n in [1, 8]."""
    m, n = draw(st.integers(0, 64)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        durations = np.full(m, draw(st.floats(1e-3, 10.0)))
    else:  # log-uniform on [1e-3, 10]
        durations = 10.0 ** draw(arrays(np.float64, m, elements=st.floats(-3.0, 1.0)))
    x0, v0 = (draw(arrays(np.float64, n, elements=flow_entry)) for _ in range(2))
    return x0, v0, durations, draw(arrays(np.float64, (m, n), elements=flow_entry))


@given(flows())
def test_flow_matches_per_segment_loop_bit_for_bit(case):
    x, v = _flow(*case)
    ref_x, ref_v = _loop_flow(*case)
    assert x.tobytes() == ref_x.tobytes()
    assert v.tobytes() == ref_v.tobytes()


@pytest.mark.parametrize("s, t", [(1.0, 2.0), (0.5, 1.0), (0.1, 3.7)])
@pytest.mark.parametrize("seed, n_pairs", [(0, 1), (5, 1), (0, 1000), (42, 1000),
                                           (2**31 - 1, 37)])
def test_sweep_anchor_in_the_batch_matches_it_priced_alone(s, t, seed, n_pairs):
    # the anchor rides as the batch's last row; it, the worst pair and its
    # ratio must keep the bits of the anchor priced by separate calls
    rep = verify_harnack_kernel(s, t, n_pairs=n_pairs, seed=seed, box=3.0)
    state_s = kernel_state([0.0], [0.0], s)
    state_t = kernel_state([0.0], [0.0], t)
    pts = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n_pairs, 4))
    costs = _gramian_costs(t - s, *pts.T)
    lhs = log_density(state_t, pts[:, 2:]) - log_density(state_s, pts[:, :2])
    gaps = lhs - log_harnack_rhs(s, t, costs, n=1)
    worst = int(np.argmin(gaps))
    prob0 = ControlProblem.make(s, t, [0.0], [0.0], [0.0], [0.0])
    gap0 = (
        float(log_density(state_t, np.zeros(2)))
        - float(log_density(state_s, np.zeros(2)))
        - log_harnack_rhs(s, t, energy_cost(prob0), n=1)
    )
    assert rep.min_ratio == float(np.exp(min(gaps[worst], EXP_ARG_CAP)))
    assert rep.min_pair == tuple(pts[worst].tolist())
    assert rep.equality_gap == abs(float(np.expm1(gap0)))


def test_sweep_rejects_empty_pair_set():
    with pytest.raises(ValueError, match="n_pairs"):
        verify_harnack_kernel(1.0, 2.0, n_pairs=0)
