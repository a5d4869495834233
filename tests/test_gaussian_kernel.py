"""Exact Gaussian kernel tests: moments, flow, sharpness, residuals."""

import re

import numpy as np
import pytest

from harnack_forge import riccati_engine
from harnack_forge.gaussian_kernel import (
    GaussianState,
    chapman_gap,
    density,
    free_covariance,
    grid_density,
    kernel_state,
    log_density,
    log_hessian,
    pde_residual,
    propagate,
    scalar_sharpness_gap,
    sharpness_gap,
    transport_matrix,
)


class TestMoments:
    @pytest.mark.parametrize("t", [1e-300, 1e-103, 1e300])
    def test_unrepresentable_covariance_is_input_error(self, t):
        # t^3 overflows, or 6 / t^3, the largest entry of the inverse, does
        with pytest.raises(riccati_engine.InputError, match=re.escape(f"t={t!r}")):
            kernel_state([0.0], [0.0], t)
        assert np.isfinite(np.linalg.inv(free_covariance(1e-102))).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [3.5e-9, 1e-30, 1e-100])
    def test_kernel_at_tiny_times_is_positive_definite(self, n, t):
        # the smallest eigvalsh eigenvalue of free_covariance(3.5e-9, 2) is
        # -2.1e-26, so a test by eigenvalue refused this kernel
        st = kernel_state(np.zeros(n), np.zeros(n), t)
        assert (st.n, st.t) == (n, t)

    def test_largest_representable_cube_stays_finite(self):
        # 2 t^3 overflows for t^3 in [max / 2, max); t^3 / 3 first does not
        for t in (4.5e102, 5e102, 5.6e102):
            assert np.isfinite(free_covariance(t)).all()

    def test_free_covariance_blocks(self):
        t = 0.7
        S = free_covariance(t, n=2)
        I = np.eye(2)
        assert np.allclose(S[:2, :2], 2 * t**3 / 3 * I)
        assert np.allclose(S[:2, 2:], t**2 * I)
        assert np.allclose(S[2:, 2:], 2 * t * I)

    def test_determinant_per_dimension(self):
        # det of the n = 1 block is 4t^4/3 - t^4 = t^4/3
        for t in (0.3, 1.0, 2.5):
            assert np.linalg.det(free_covariance(t, 1)) == pytest.approx(t**4 / 3)

    def test_kernel_state_mean_flows(self):
        st = kernel_state(1.0, -2.0, 0.5)
        assert np.allclose(st.mean, [1.0 - 1.0, -2.0])  # x0 + t v0, v0
        assert st.t == 0.5 and st.n == 1

    def test_velocity_marginal_variance(self):
        # diffusion normalization: velocity variance is 2t, not t
        assert free_covariance(0.9, 1)[1, 1] == pytest.approx(1.8)


class TestFlow:
    def test_transport_matrix(self):
        P = transport_matrix(0.4, n=2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(P @ x, [1.0 + 0.4 * 3, 2.0 + 0.4 * 4, 3.0, 4.0])

    def test_propagate_matches_kernel(self):
        # one-step propagation of a kernel equals the kernel at the sum time
        for s, tau in ((0.3, 0.5), (1.0, 1.0)):
            moved = propagate(kernel_state(0.0, 0.0, s), tau)
            direct = kernel_state(0.0, 0.0, s + tau)
            assert np.allclose(moved.cov, direct.cov, atol=1e-14)
            assert np.allclose(moved.mean, direct.mean)
            assert moved.t == pytest.approx(s + tau)

    def test_chapman_gap(self):
        assert chapman_gap(0.5, 1.5) < 1e-12
        assert chapman_gap(1.0, 2.0, n=2) < 1e-12

    def test_propagate_general_start(self):
        rng = np.random.default_rng(2)
        G = rng.normal(size=(2, 2))
        cov0 = G @ G.T + 0.5 * np.eye(2)
        st = GaussianState.make(np.array([0.3, -0.1]), cov0, t=0.2)
        out = propagate(st, 0.6)
        P = transport_matrix(0.6)
        assert np.allclose(out.cov, P @ cov0 @ P.T + free_covariance(0.6))


class TestDensity:
    def test_normalization_on_grid(self):
        # sigma_x ~ 0.29 and sigma_v = 1 at t = 0.5; the box must reach
        # well past 5 sigma in v or truncation dominates the quadrature
        st = kernel_state(0.0, 0.0, 0.5)
        xs = np.linspace(-2, 2, 400)
        vs = np.linspace(-6, 6, 600)
        rho = grid_density(st, xs, vs)
        mass = rho.sum() * (xs[1] - xs[0]) * (vs[1] - vs[0])
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_grid_marginal_variances(self):
        t = 0.5
        st = kernel_state(0.0, 0.0, t)
        xs = np.linspace(-2, 2, 400)
        vs = np.linspace(-6, 6, 600)
        rho = grid_density(st, xs, vs)
        w = rho / rho.sum()
        X, V = np.meshgrid(xs, vs, indexing="ij")
        assert (w * V**2).sum() == pytest.approx(2 * t, rel=1e-4)
        assert (w * X**2).sum() == pytest.approx(2 * t**3 / 3, rel=1e-4)

    def test_log_density_peak_value(self):
        st = kernel_state(0.0, 0.0, 1.0)
        want = -0.5 * np.log((2 * np.pi) ** 2 * np.linalg.det(st.cov))
        assert log_density(st, st.mean) == pytest.approx(want)

    def test_density_matches_grid(self):
        st = kernel_state(0.2, 0.1, 0.8)
        xs = np.array([0.1, 0.4])
        vs = np.array([-0.3, 0.2])
        rho = grid_density(st, xs, vs)
        pt = density(st, np.array([xs[1], vs[0]]))
        assert rho[1, 0] == pytest.approx(pt)

    def test_make_validation(self):
        with pytest.raises(ValueError):
            GaussianState.make(np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)
        with pytest.raises(ValueError):
            GaussianState.make(np.zeros(2), -np.eye(2), 1.0)
        with pytest.raises(ValueError):
            GaussianState.make(np.zeros(3), np.eye(3), 1.0)
        for cov, lo in ((np.diag([1.0, -0.5]), "-5.000e-01"), (np.zeros((2, 2)), "0.000e+00")):
            with pytest.raises(ValueError, match=re.escape(f"positive definite; min eig {lo}")):
                GaussianState.make(np.zeros(2), cov, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_moments_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            GaussianState.make([value, 0.0], np.eye(2), 1.0)
        with pytest.raises(ValueError, match="finite"):
            GaussianState.make(np.zeros(2), np.diag([value, 1.0]), 1.0)


class TestSharpness:
    def test_log_hessian_is_negative_inverse_covariance(self):
        st = kernel_state(0.0, 0.0, 0.7)
        H = log_hessian(st).entries
        assert np.allclose(H, -np.linalg.inv(st.cov), atol=1e-13)

    def test_kernel_hessian_fixture(self):
        H = log_hessian(kernel_state(0.0, 0.0, 1.0)).entries
        assert np.allclose(H, [[-6.0, 3.0], [3.0, -2.0]], atol=1e-12)

    def test_kernel_saturates_bound(self):
        # the kernel is the equality case of the matrix bound
        for t in np.arange(1, 21) * 0.1:
            assert sharpness_gap(kernel_state(0.0, 0.0, t)) < 1e-8 * (1 + t**-3)

    def test_scalar_gap(self):
        for t in (0.2, 1.0, 2.0):
            assert abs(scalar_sharpness_gap(kernel_state(0.0, 0.0, t))) < 1e-10

    def test_sequence_integrates_once_and_matches_per_state_gaps(self, monkeypatch):
        x0 = np.zeros(2)
        states = [kernel_state(x0, x0, t) for t in np.linspace(0.1, 2.0, 20)]
        per_state = [sharpness_gap(st) for st in states]
        calls = []
        integrate_S = riccati_engine.integrate_S

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_S(*args, **kwargs)

        monkeypatch.setattr(riccati_engine, "integrate_S", counted)
        gaps = sharpness_gap(states)
        assert len(calls) == 1
        assert len(gaps) == len(states)
        # one integration to t = 2 takes other steps than twenty to each t:
        # the gaps move at rounding level of Hessian entries up to 6000
        for st, gap, want in zip(states, gaps, per_state):
            assert abs(gap - want) <= 1e-12 * np.abs(log_hessian(st).entries).max()

    def test_sequence_needs_states_of_one_dimension(self):
        one, two = np.zeros(1), np.zeros(2)
        with pytest.raises(ValueError, match="share"):
            sharpness_gap([kernel_state(one, one, 1.0), kernel_state(two, two, 1.0)])
        with pytest.raises(ValueError, match="at least one"):
            sharpness_gap([])

    def test_propagated_state_is_strictly_inside_bound(self):
        # a state fatter than the kernel has strictly larger Hessian gap
        st = GaussianState.make(
            np.zeros(2), free_covariance(0.5) + 0.1 * np.eye(2), t=0.5
        )
        assert sharpness_gap(st) > 1e-2


class TestPDEResidual:
    def test_kernel_solves_equation(self):
        rng = np.random.default_rng(31)
        for t in (0.3, 1.0):
            st = kernel_state(0.0, 0.0, t)
            pts = rng.normal(scale=1.0, size=(40, 2))
            assert pde_residual(st, pts) < 1e-10

    def test_propagated_state_solves_equation(self):
        rng = np.random.default_rng(32)
        G = rng.normal(size=(2, 2))
        st0 = GaussianState.make(
            np.array([0.5, -0.2]), G @ G.T + 0.3 * np.eye(2), t=0.4
        )
        st = propagate(st0, 0.5)
        pts = rng.normal(scale=1.2, size=(40, 2))
        assert pde_residual(st, pts) < 1e-10

    def test_flow_satisfies_equation_by_finite_differences(self):
        # pde_residual is an analytic identity along the moment flow, so
        # it vanishes for every Gaussian state; this independently checks
        # with finite differences that densities produced by propagate
        # really satisfy rho_t = lap_v rho - v rho_x at sample points
        st0 = GaussianState.make(
            np.array([0.2, -0.4]), np.array([[0.5, 0.1], [0.1, 0.8]]), t=0.0
        )
        h = 1e-3
        d = 1e-3
        mid = propagate(st0, h)
        lo, hi = st0, propagate(st0, 2 * h)
        pts = np.array([[0.0, 0.0], [0.4, -0.5], [-0.6, 0.8]])
        peak = density(mid, mid.mean)
        for p in pts:
            dt = (density(hi, p) - density(lo, p)) / (2 * h)
            x, v = p
            lap_v = (
                density(mid, np.array([x, v + d]))
                - 2 * density(mid, p)
                + density(mid, np.array([x, v - d]))
            ) / d**2
            dx = (
                density(mid, np.array([x + d, v])) - density(mid, np.array([x - d, v]))
            ) / (2 * d)
            assert abs(dt - (lap_v - v * dx)) < 1e-4 * peak
