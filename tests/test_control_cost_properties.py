"""Property tests of the exact transcription and the batched Harnack sweep."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harnack_forge.control_cost import (
    ENDPOINT_TOL,
    ControlProblem,
    energy_cost,
    log_harnack_rhs,
    transcribe_cost,
    verify_harnack_kernel,
)
from harnack_forge.gaussian_kernel import kernel_state, log_density

coord = st.floats(-2.0, 2.0)


@st.composite
def problems(draw, n=1):
    """Steering problems on [s, s + tau] with endpoints in [-2, 2]^(4n)."""
    s = draw(st.floats(0.0, 1.0))
    tau = draw(st.floats(0.2, 2.0))
    x0, v0, x1, v1 = (draw(st.lists(coord, min_size=n, max_size=n)) for _ in range(4))
    return ControlProblem.make(s, s + tau, x0, v0, x1, v1)


def zero_h(X, V):
    return np.zeros(np.shape(X)[0])


def zero_h_grad(X, V):
    return np.zeros_like(X), np.zeros_like(V)


@given(problems(), st.integers(2, 16))
def test_exact_route_matches_optimizer_route(prob, m):
    # h = 0 given as a function forces the L-BFGS-B route on the same problem
    exact = transcribe_cost(prob, m=m)
    optimized = transcribe_cost(prob, m=m, h_func=zero_h, h_grad=zero_h_grad)
    assert exact.status == "ok" and (exact.n_converged, exact.n_starts) == (1, 1)
    assert exact.cost == pytest.approx(optimized.cost, rel=1e-9, abs=1e-12)


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
    parts = [
        transcribe_cost(
            ControlProblem.make(
                prob.s, prob.t, prob.x0[j], prob.v0[j], prob.x1[j], prob.v1[j]
            ),
            m=m,
        ).cost
        for j in range(2)
    ]
    assert transcribe_cost(prob, m=m).cost == pytest.approx(sum(parts), rel=1e-12, abs=1e-15)


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


def test_sweep_rejects_empty_pair_set():
    with pytest.raises(ValueError, match="n_pairs"):
        verify_harnack_kernel(1.0, 2.0, n_pairs=0)
