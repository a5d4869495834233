"""Grid PDE tests: potentials, evolution ledger, Hessian checks."""

import os
import re
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lapack, solve_banded

from harnack_forge import _csv, kinetic_pde
from harnack_forge.closed_forms import CASE2, classify
from harnack_forge.gaussian_kernel import kernel_state, grid_density, propagate
from harnack_forge.kinetic_pde import (
    CFL_LIMIT,
    LEDGER_TOL,
    MAX_CELL_STEPS,
    MIN_GRID_CELLS,
    STEP_OVERHEAD_CELLS,
    STRANG_CHUNKS,
    STRANG_DIFFUSION_SUBSTEPS,
    CFLError,
    GridField,
    QuadraticPotential,
    UntestableRegionError,
    ZeroPotential,
    compute_h,
    curvature_of,
    evolve,
    kernel_field,
    load_snapshot,
    make_grid,
    save_snapshot,
    snapshot_csv,
    verify_matrix_harnack,
    verify_scalar_harnack,
    _courant_rates,
    _diffuse_v,
    _region_mask,
    _sl_advect_x,
    _stencil_arrays,
    _tridiag_lu,
    _upwind_v,
    _upwind_x,
    _window_min,
)
from harnack_forge.riccati_engine import InputError, bound_N


class TestPotentials:
    def test_quadratic_values_and_gradients(self):
        U = QuadraticPotential(q_xx=2.0, q_xv=1.0, q_vv=3.0)
        x, v = np.array([1.0, -2.0]), np.array([0.5, 1.0])
        want = 0.5 * (2 * x**2 + 2 * 1.0 * x * v + 3 * v**2)
        assert np.allclose(U.value(x, v), want)
        assert np.allclose(U.grad_x(x, v), 2 * x + v)
        assert np.allclose(U.grad_v(x, v), x + 3 * v)
        assert np.allclose(U.lap_v(x, v), 3.0)

    def test_compute_h(self):
        x, v = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        # U = v^2/2: h = 1/2 - v^2/4
        h = compute_h(QuadraticPotential(q_vv=1.0), x, v)
        assert np.allclose(h, 0.5 - 0.25 * v**2)
        # U = xv: h = -v^2/2 - x^2/4
        h = compute_h(QuadraticPotential(q_xv=1.0), x, v)
        assert np.allclose(h, -0.5 * v**2 - 0.25 * x**2)
        assert np.allclose(compute_h(ZeroPotential(), x, v), 0.0)

    def test_curvature_pairs(self):
        K = curvature_of(ZeroPotential())
        assert (K.k1, K.k2) == (0.0, 0.0)
        K = curvature_of(QuadraticPotential(q_vv=1.0))
        assert (K.k1, K.k2) == (0.0, 0.5)
        K = curvature_of(QuadraticPotential(q_xv=1.0))
        assert (K.k1, K.k2) == (0.5, 1.0)
        assert classify(K.k1, K.k2).tag == CASE2

    @given(q=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    def test_hess_h_matches_second_differences(self, q):
        # h is quadratic, so second differences with any step are exact
        # up to rounding
        U = QuadraticPotential(*q)
        x, v, e = 0.3, -0.7, 0.5

        def h(a, b):
            return float(compute_h(U, np.array(a), np.array(b)))

        fd = (
            (h(x + e, v) - 2 * h(x, v) + h(x - e, v)) / e**2,
            (h(x + e, v + e) - h(x + e, v - e) - h(x - e, v + e) + h(x - e, v - e))
            / (4 * e**2),
            (h(x, v + e) - 2 * h(x, v) + h(x, v - e)) / e**2,
        )
        assert np.allclose(U.hess_h(), fd, rtol=1e-9, atol=1e-9)

    @given(q=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    def test_curvature_pair_makes_hess_h_psd(self, q):
        U = QuadraticPotential(*q)
        K = curvature_of(U)
        hxx, hxv, hvv = U.hess_h()
        # min eigenvalue >= -1e-12 means Hess h + diag(k1, k2) + 1e-12 I is
        # PSD; test that exactly on the float entries (k1 may be ~1e10, far
        # beyond what an eigensolver resolves at 1e-12)
        shift = Fraction(1e-12)
        a = Fraction(hxx + K.k1) + shift
        c = Fraction(hvv + K.k2) + shift
        assert a >= 0 and c >= 0 and a * c >= Fraction(hxv) ** 2

    def test_curvature_needs_a_quadratic_potential(self):
        class HalfVSquared:  # U = v^2/2, but not a QuadraticPotential
            def value(self, x, v):
                return 0.5 * np.square(v)

        U = HalfVSquared()
        with pytest.raises(ValueError, match="curvature="):
            curvature_of(U)
        f = kernel_field(0.3, extent=4.0, n=32, sigma2=1.0)
        with pytest.raises(ValueError, match="curvature="):
            verify_matrix_harnack(f, U)
        with pytest.raises(ValueError, match="curvature="):
            verify_scalar_harnack(f, U)
        same = QuadraticPotential(q_vv=1.0)
        K = curvature_of(same)
        for check in (verify_matrix_harnack, verify_scalar_harnack):
            got, want = check(f, U, curvature=K), check(f, same, curvature=K)
            assert got.n_tested == want.n_tested > 0
            assert got.min_margin == pytest.approx(want.min_margin, abs=1e-9)


class TestGridField:
    def test_make_grid_symmetric_cell_centers(self):
        xs = make_grid(4.0, 64)
        assert np.allclose(xs, -xs[::-1])
        assert xs.size == 64
        assert xs[1] - xs[0] == pytest.approx(8.0 / 64)
        with pytest.raises(ValueError):
            make_grid(4.0, 4)

    def test_validation(self):
        xs = make_grid(2.0, 16)
        with pytest.raises(ValueError, match="shape"):
            GridField(xs, xs, np.zeros((16, 8)), t=0.1)
        bad = np.zeros((16, 16))
        bad[3, 3] = -1.0
        with pytest.raises(ValueError, match="negative"):
            GridField(xs, xs, bad, t=0.1)

    @pytest.mark.parametrize("axis", ["xs", "vs"])
    def test_axes_must_be_strictly_increasing(self, axis):
        xs = make_grid(2.0, 16)
        repeated = xs.copy()
        repeated[5] = repeated[4]
        for bad in (xs[::-1], repeated, np.full(16, np.nan)):
            grid = {"xs": xs, "vs": xs, axis: bad}
            with pytest.raises(ValueError, match=f"{axis} must be strictly increasing"):
                GridField(grid["xs"], grid["vs"], np.ones((16, 16)), t=0.1)

    @pytest.mark.parametrize("axis", ["xs", "vs"])
    def test_axes_must_be_uniform(self, axis):
        grid = {"xs": [0.0, 1.0, 2.0], "vs": [0.0, 1.0, 2.0], axis: [0.0, 1.0, 3.0]}
        with pytest.raises(ValueError, match=f"{axis} must be uniform"):
            GridField(grid["xs"], grid["vs"], np.ones((3, 3)), t=1.0)

    @pytest.mark.parametrize("axis", ["xs", "vs"])
    def test_axes_need_two_points(self, axis):
        for n in (0, 1):
            grid = {"xs": [0.0, 1.0], "vs": [0.0, 1.0], axis: np.arange(float(n))}
            rho = np.ones((len(grid["xs"]), len(grid["vs"])))
            with pytest.raises(ValueError, match=f"^{axis} needs at least 2 points"):
                GridField(grid["xs"], grid["vs"], rho, t=1.0)

    @pytest.mark.parametrize("extent", [1e-300, 1e300])
    @pytest.mark.parametrize("n", [MIN_GRID_CELLS, 512])
    def test_make_grid_axes_pass_the_uniformity_test(self, extent, n):
        xs = make_grid(extent, n)
        assert GridField(xs, xs, np.ones((n, n)), t=1.0).dx > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_rejected(self, value):
        xs = make_grid(2.0, 16)
        for rho in (np.full((16, 16), value), np.where(np.eye(16) > 0, value, 1.0)):
            with pytest.raises(ValueError, match="non-finite"):
                GridField(xs, xs, rho, t=0.1)

    def test_density_whose_sum_overflows_is_refused(self):
        # finite entries whose sum overflows gave boundary_fraction 0 and mass inf
        xs = make_grid(1.0, 8)
        rho = np.zeros((8, 8))
        rho[3, 3] = rho[4, 4] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="density sum overflows"):
                GridField(xs, xs, rho, t=1.0)
            rho[4, 4] = 0.0
            assert GridField(xs, xs, rho, t=1.0).mass() == 1e308 * 0.25 ** 2

    def test_mass_that_overflows_is_refused(self):
        # a finite sum over cells whose area overflows gave mass inf
        xs = make_grid(1e300, 512)
        field = GridField(xs, xs, np.ones((512, 512)), t=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mass overflows"):
                field.mass()
            xs = make_grid(1e150, 512)
            rho = np.zeros((512, 512))
            rho[3, 3] = 1.0
            assert GridField(xs, xs, rho, t=1.0).mass() == (xs[1] - xs[0]) ** 2

    def test_boundary_warning(self):
        xs = make_grid(2.0, 16)
        rho = np.zeros((16, 16))
        rho[0, :] = 1.0  # all mass on the edge
        f = GridField(xs, xs, rho, t=0.1)
        assert f.boundary_warning
        assert f.boundary_fraction == pytest.approx(1.0)

    def test_kernel_field_mass_and_time(self):
        f = kernel_field(0.5, extent=4.0, n=128)
        assert f.mass() == pytest.approx(1.0, abs=1e-3)
        assert f.t == 0.5 and f.t0 == 0.5
        g = kernel_field(0.2, extent=4.0, n=128, sigma2=1.0)
        assert g.mass() == pytest.approx(1.0, abs=1e-3)
        peak = np.unravel_index(np.argmax(g.rho), g.rho.shape)
        assert abs(g.xs[peak[0]]) < g.dx and abs(g.vs[peak[1]]) < g.dv


class TestEvolve:
    def test_lie_ledger_and_max_principle_free(self):
        f = kernel_field(0.3, extent=4.0, n=64)
        out, rep = evolve(f, ZeroPotential(), 0.5)
        assert rep.ledger_discrepancy < 1e-10
        assert rep.scheme == "lie" and rep.n_steps >= 1
        assert out.t == pytest.approx(0.5)
        assert out.t0 == pytest.approx(0.3)
        # no drift source: max cannot grow
        assert out.rho.max() <= f.rho.max() * (1 + 1e-12)
        assert rep.drift_source == 0.0

    def test_lie_tracks_exact_kernel(self):
        f = kernel_field(0.3, extent=4.0, n=96)
        out, _ = evolve(f, ZeroPotential(), 0.5)
        exact = grid_density(kernel_state(0.0, 0.0, 0.5), out.xs, out.vs)
        l1 = np.abs(out.rho - exact).sum() * out.dx * out.dv
        assert l1 < 0.25

    def test_lie_with_drift_sources_mass(self):
        # U = v^2/2 has lap_v U = 1 > 0, so the advective form gains mass
        f = kernel_field(0.3, extent=4.0, n=64)
        out, rep = evolve(f, QuadraticPotential(q_vv=1.0), 0.45)
        assert rep.ledger_discrepancy < 1e-10
        assert rep.drift_source > 0.0

    def test_t1_must_exceed_field_time(self):
        f = kernel_field(0.3, extent=4.0, n=64)
        with pytest.raises(ValueError, match="exceed"):
            evolve(f, ZeroPotential(), 0.2)
        with pytest.raises(InputError, match="t1=inf must be finite"):
            evolve(f, ZeroPotential(), np.inf)

    def test_strang_ledger_and_agreement_with_lie(self):
        f = kernel_field(0.2, extent=4.0, n=64)
        a, rep = evolve(f, ZeroPotential(), 0.4, scheme="strang")
        assert rep.ledger_discrepancy < 1e-10
        b, _ = evolve(f, ZeroPotential(), 0.4, scheme="lie")
        l1 = np.abs(a.rho - b.rho).sum() * a.dx * a.dv
        assert l1 < 0.3

    def test_strang_drift_cfl_guard(self):
        f = kernel_field(0.2, extent=4.0, n=64)
        with pytest.raises(CFLError, match="chunk"):
            evolve(f, QuadraticPotential(q_vv=40.0), 1.4, scheme="strang")

    @pytest.mark.parametrize("extent", [1e-300, 1e300])
    @pytest.mark.parametrize("scheme", ["lie", "strang"])
    def test_unrepresentable_diffusion_number_is_input_error(self, extent, scheme):
        # dv^2 underflows to 0 or overflows, so dt / dv^2 is no float
        f = kernel_field(0.2, extent=extent, n=16, sigma2=1.0)
        with pytest.raises(InputError, match="diffusion number"):
            evolve(f, ZeroPotential(), 0.4, scheme=scheme)

    def test_unknown_scheme(self):
        f = kernel_field(0.2, extent=4.0, n=64)
        with pytest.raises(ValueError, match="scheme"):
            evolve(f, ZeroPotential(), 0.4, scheme="milstein")

    def test_work_bound_refuses_before_any_step(self, monkeypatch):
        f = kernel_field(0.2, extent=4.0, n=32, sigma2=1.0)
        _, rep = evolve(f, ZeroPotential(), 0.6)
        work = rep.n_steps * (f.rho.size + STEP_OVERHEAD_CELLS)
        monkeypatch.setattr(kinetic_pde, "MAX_CELL_STEPS", work)
        evolve(f, ZeroPotential(), 0.6)  # a run of exactly the bound goes ahead

        def no_step(*args):
            raise AssertionError("a refused run took a step")

        monkeypatch.setattr(kinetic_pde, "MAX_CELL_STEPS", work - 1)
        monkeypatch.setattr(kinetic_pde, "_upwind_x", no_step)
        with pytest.raises(InputError, match=re.escape(f"predicted {work:.3g} cell-steps")):
            evolve(f, ZeroPotential(), 0.6)

    @pytest.mark.parametrize("t1", [1e4, 1e300, 1.7e308])
    def test_endless_lie_runs_are_refused(self, t1):
        # 1e300 predicts some 1e302 steps; 1.7e308 overflows the prediction
        f = kernel_field(0.2, extent=4.0, n=128, sigma2=1.0)
        with pytest.raises(InputError, match=re.escape(f"t1={t1} needs a predicted")):
            evolve(f, QuadraticPotential(q_vv=1.0), t1)

    @pytest.mark.parametrize("scheme", ["lie", "strang"])
    @pytest.mark.parametrize(
        "potential",
        # a drift of inf, and one of inf - inf = NaN where x and v differ in sign
        [QuadraticPotential(q_vv=1e308), QuadraticPotential(q_xv=1e308, q_vv=1e308)],
    )
    def test_overflowing_drift_is_refused_before_any_step(self, monkeypatch, potential,
                                                          scheme):
        def no_step(*args):
            raise AssertionError("a refused run took a step")

        for kernel in ("_upwind_x", "_sl_advect_x", "_upwind_v", "_diffuse_v"):
            monkeypatch.setattr(kinetic_pde, kernel, no_step)
        f = kernel_field(0.2, n=16, sigma2=1.0)
        with pytest.raises(InputError, match="Courant rates .* must be finite"):
            evolve(f, potential, 0.6, scheme=scheme)

    def test_campaign_runs_stay_far_below_the_work_bound(self):
        # the heaviest campaign run: n_grid 256 over the grid mix's span 0.4
        f = kernel_field(0.2, extent=4.0, n=256, sigma2=1.0)
        _, rep = evolve(f, QuadraticPotential(q_vv=1.0), 0.6)
        assert rep.n_steps * (f.rho.size + STEP_OVERHEAD_CELLS) * 100 < MAX_CELL_STEPS

    @pytest.mark.parametrize(
        "scheme, potential, bound",
        [("lie", QuadraticPotential(q_vv=1.0), 4.5), ("strang", ZeroPotential(), 4.5)],
    )
    def test_peak_memory_in_field_sizes(self, scheme, potential, bound):
        # in fields of 256^2 doubles: the x-major solver, with a transposing
        # copy in and out of each diffusion solve, peaked at 6.56 (lie) and
        # 9.33 (strang); the velocity-major one, with a new field from every
        # kernel, at 5.25 and 8.27.  Writing into the two arrays evolve owns,
        # it peaks at 4.37 and 4.31 (drift, field, work array and the
        # returned copy), and the bound leaves no room for one more field
        f = kernel_field(0.2, extent=4.0, n=256, sigma2=1.0)
        tracemalloc.start()
        try:
            evolve(f, potential, 0.6, scheme=scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * f.rho.nbytes, peak / f.rho.nbytes

    @pytest.mark.parametrize(
        "scheme, potential",
        [("lie", ZeroPotential()), ("lie", QuadraticPotential(q_xv=1.0)),
         ("strang", ZeroPotential()), ("strang", QuadraticPotential(q_vv=0.1))],
    )
    def test_repeated_runs_match_and_share_no_memory_with_the_solver(
            self, monkeypatch, scheme, potential):
        written = []  # every array a kernel writes into, and the diffusion's

        def recording(kernel, position):
            def record(*args):
                written.append(args[position])
                return kernel(*args)
            return record

        for name, position in (("_upwind_x", -1), ("_upwind_v", -1),
                               ("_sl_advect_x", -1), ("_diffuse_v", 0)):
            monkeypatch.setattr(kinetic_pde, name,
                                recording(getattr(kinetic_pde, name), position))
        f = kernel_field(0.2, extent=4.0, n=32, sigma2=1.0)
        first, _ = evolve(f, potential, 0.4, scheme=scheme)
        kept = first.rho.copy()
        second, _ = evolve(f, potential, 0.4, scheme=scheme)
        _assert_bitwise_equal(second.rho, first.rho)
        _assert_bitwise_equal(first.rho, kept)  # the second run left the first's alone
        assert written
        for buffer in written:
            for out in (first, second):
                assert not np.shares_memory(out.rho, buffer)

    @pytest.mark.parametrize("scheme", ["lie", "strang"])
    def test_report_cfl_numbers_are_cfl_rates_times_dt(self, scheme):
        # evolve derives the rates from its own drift array, bit for bit;
        # on 8 cells the drift's Courant number at strang's chunk size is 0.79
        for n, pot in ((64, ZeroPotential()), (8, QuadraticPotential(q_vv=1.0, q_xv=0.5))):
            f = kernel_field(0.2, extent=4.0, n=n)
            rx, rv = _courant_rates(f.xs, f.vs, pot.grad_v(*f.meshes()))
            _, rep = evolve(f, pot, 0.5, scheme=scheme)
            assert (rep.cfl_x, rep.cfl_v) == (rx * rep.dt, rv * rep.dt)


# Straightforward x-major forms of the solver kernels: masked columns,
# padded copies, a banded solve per call, a Python loop over columns.
# The kernels in kinetic_pde take and return velocity-major arrays (the
# transpose, in C order) and must reproduce them bit for bit.


def _reference_upwind_x(rho, vs, dx, dt):
    c = vs * dt / dx
    pos = c > 0
    neg = c < 0
    new = rho.copy()
    left = np.vstack([np.zeros((1, rho.shape[1])), rho[:-1, :]])
    right = np.vstack([rho[1:, :], np.zeros((1, rho.shape[1]))])
    new[:, pos] = rho[:, pos] - c[pos] * (rho[:, pos] - left[:, pos])
    new[:, neg] = rho[:, neg] - c[neg] * (right[:, neg] - rho[:, neg])
    loss = float(np.sum(c[pos] * rho[-1, pos]) + np.sum(-c[neg] * rho[0, neg]))
    return new, loss


def _reference_upwind_v(rho, speed, dv, dt):
    cv = speed * dt / dv
    left = np.pad(rho, ((0, 0), (1, 0)))[:, :-1]
    right = np.pad(rho, ((0, 0), (0, 1)))[:, 1:]
    return np.where(cv > 0, rho - cv * (rho - left), rho - cv * (right - rho))


def _reference_diffuse_v(rho, dv, dt, nsub):
    nv = rho.shape[1]
    r = (dt / nsub) / dv**2
    ab = np.zeros((3, nv))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    loss = 0.0
    out = rho
    for _ in range(nsub):
        out = solve_banded((1, 1), ab, out.T).T
        loss += r * float(out[:, 0].sum() + out[:, -1].sum())
    return out, loss


def _reference_shift_col(col, k):
    n = col.size
    out = np.zeros_like(col)
    if k == 0:
        return col.copy()
    if abs(k) >= n:
        return out
    if k > 0:
        out[k:] = col[:-k]
    else:
        out[: n + k] = col[-k:]
    return out


def _reference_sl_advect_x(rho, vs, dx, tau):
    out = np.empty_like(rho)
    for j, v in enumerate(vs):
        c = v * tau / dx
        k = int(np.floor(c))
        a = c - k
        col = rho[:, j]
        shifted = _reference_shift_col(col, k)
        if a > 0.0:
            shifted = (1.0 - a) * shifted + a * _reference_shift_col(col, k + 1)
        out[:, j] = shifted
    return out


def _vmajor(a):
    """The velocity-major, C-ordered copy of an x-major array."""
    return a.T.copy()


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@st.composite
def grid_fields(draw):
    """(xs, rho) on an n x n grid, n even or odd, with non-negative values.

    The axis is make_grid's, whose odd-n middle cell sits within 1e-15
    of v = 0, or a linspace whose odd-n middle cell is exactly 0.
    """
    n = draw(st.integers(8, 21))
    extent = draw(st.floats(0.5, 8.0))
    xs = draw(st.sampled_from((make_grid(extent, n), np.linspace(-extent, extent, n))))
    values = st.floats(0.0, 1e6) | st.just(0.0)
    rho = draw(hnp.arrays(np.float64, (n, n), elements=values))
    return xs, rho


speeds = st.sampled_from(
    (ZeroPotential(), QuadraticPotential(q_vv=1.0), QuadraticPotential(q_xv=1.0))
)  # zero, sign by column (quadratic_v) and sign by row (bilinear)
steps = st.floats(1e-4, 2.0)


class TestKernelsMatchReferenceFormulas:
    @given(field=grid_fields(), dt=steps)
    def test_upwind_x(self, field, dt):
        xs, rho = field
        dx = float(xs[1] - xs[0])
        new, loss = _upwind_x(_vmajor(rho), xs, dx, dt, np.empty(rho.T.shape))
        want, want_loss = _reference_upwind_x(rho, xs, dx, dt)
        _assert_bitwise_equal(new.T, want)
        assert loss == want_loss
        if xs.size % 2 and xs[xs.size // 2] == 0.0:  # a v = 0 column stays as it is
            _assert_bitwise_equal(new[xs.size // 2], rho[:, xs.size // 2])

    @given(field=grid_fields(), potential=speeds, dt=steps)
    def test_upwind_v(self, field, potential, dt):
        xs, rho = field
        dv = float(xs[1] - xs[0])
        speed = potential.grad_v(*np.meshgrid(xs, xs, indexing="ij"))
        _assert_bitwise_equal(
            _upwind_v(_vmajor(rho), _vmajor(speed * dt / dv), np.empty(rho.T.shape)).T,
            _reference_upwind_v(rho, speed, dv, dt),
        )

    @pytest.mark.parametrize("nsub", [1, 16])
    @given(field=grid_fields(), dt=steps)
    def test_diffuse_v(self, nsub, field, dt):
        xs, rho = field
        dv = float(xs[1] - xs[0])
        vm = _vmajor(rho)
        new, loss = _diffuse_v(np.empty_like(vm), dv, dt, nsub)(vm)
        want, want_loss = _reference_diffuse_v(rho, dv, dt, nsub)
        _assert_bitwise_equal(new.T, want)
        assert loss == want_loss
        _assert_bitwise_equal(vm, _vmajor(rho))  # the solves never overwrite the input

    def test_diffuse_v_at_campaign_size(self):
        # n = 256 at the lie step of a quadratic_v run, and at the strang
        # chunk (t1 - t0) / 2 with 16 substeps, on the fields those runs see
        field = kernel_field(0.2, extent=4.0, n=256, sigma2=1.0)
        out, rep = evolve(field, QuadraticPotential(q_vv=1.0), 0.6, scheme="lie")
        for rho, dt, nsub in ((field.rho, rep.dt, 1), (out.rho, (0.6 - 0.2) / 2, 16)):
            new, loss = _diffuse_v(np.empty(rho.T.shape), field.dv, dt, nsub)(_vmajor(rho))
            want, want_loss = _reference_diffuse_v(rho, field.dv, dt, nsub)
            _assert_bitwise_equal(new.T, want)
            assert loss == want_loss

    @given(nv=st.integers(8, 520), log_r=st.floats(-12.0, 8.0))
    def test_tridiag_lu_matches_dgttrf(self, nv, log_r):
        r = float(np.exp(log_r))
        d, l = _tridiag_lu(nv, r)
        off = np.full(nv - 1, -r)
        dl, dd, _, du2, ipiv, info = lapack.dgttrf(off, np.full(nv, 1.0 + 2.0 * r), off)
        assert info == 0
        assert np.array_equal(ipiv, np.arange(1, nv + 1))  # no row interchange
        assert not du2.any()
        _assert_bitwise_equal(d, dd)
        _assert_bitwise_equal(l, dl)

    @given(field=grid_fields(), tau=st.floats(0.0, 30.0))
    def test_sl_advect_x(self, field, tau):
        xs, rho = field
        dx = float(xs[1] - xs[0])
        _assert_bitwise_equal(
            _sl_advect_x(_vmajor(rho), xs, dx, tau, np.empty(rho.T.shape)).T,
            _reference_sl_advect_x(rho, xs, dx, tau),
        )

    def test_sl_advect_x_shifts_of_n_cells_and_more(self):
        # integer Courant numbers -n - 2 .. n + 2 put whole columns past the edge
        n = 9
        vs = np.arange(-n - 2, n + 3, dtype=float)
        rho = np.random.default_rng(3).uniform(0.0, 1.0, (n, vs.size))
        for tau in (1.0, 0.999, 1.001):
            _assert_bitwise_equal(
                _sl_advect_x(_vmajor(rho), vs, 1.0, tau, np.empty(rho.T.shape)).T,
                _reference_sl_advect_x(rho, vs, 1.0, tau),
            )

    @given(field=grid_fields())
    def test_window_min(self, field):
        _, rho = field
        _assert_bitwise_equal(
            _window_min(rho, 5), sliding_window_view(rho, (5, 5)).min(axis=(2, 3))
        )


class TestKernelsWriteIntoTheirOut:
    @pytest.mark.parametrize("nsub", [1, 16])
    @given(n=st.integers(8, 21), extent=st.floats(0.5, 8.0), dt=steps, seed=st.integers(0, 9))
    def test_one_diffuse_v_step_on_many_fields_is_a_fresh_step_each_time(
            self, nsub, n, extent, dt, seed):
        xs = make_grid(extent, n)
        dv = float(xs[1] - xs[0])
        out = np.empty((n, n))
        step = _diffuse_v(out, dv, dt, nsub)
        rng = np.random.default_rng(seed)
        fields = [rng.uniform(0.0, 1e3, (n, n)), np.zeros((n, n)),
                  rng.exponential(1.0, (n, n)), rng.uniform(0.0, 1.0, (n, n))]
        for rho in fields:
            kept = rho.copy()
            new, loss = step(rho)
            want, want_loss = _diffuse_v(np.empty((n, n)), dv, dt, nsub)(kept)
            _assert_bitwise_equal(new, want)
            assert loss == want_loss
            _assert_bitwise_equal(rho, kept)  # the caller's input is never written
        # a field already in the step's own array is solved in place
        np.copyto(out, fields[0])
        new, loss = step(out)
        want, want_loss = _diffuse_v(np.empty((n, n)), dv, dt, nsub)(fields[0])
        _assert_bitwise_equal(new, want)
        assert loss == want_loss

    def test_sl_advect_x_leaves_unblended_rows_exact(self):
        # half-integer Courant numbers put a row of integer c (no blend) and
        # a blended row in each block of one shift; on signed values with
        # -0.0 entries the unblended rows must still be the shift, bit for bit
        n = 7
        vs = np.arange(-6, 7) * 0.5
        rho = np.random.default_rng(4).uniform(-1.0, 1.0, (n, vs.size))
        rho[::2, ::3] = -0.0
        for tau in (1.0, 3.0):
            _assert_bitwise_equal(
                _sl_advect_x(_vmajor(rho), vs, 1.0, tau, np.empty(rho.T.shape)).T,
                _reference_sl_advect_x(rho, vs, 1.0, tau),
            )


def _reference_evolve(field, potential, t1, scheme):
    """evolve's output density as a plain x-major loop of the
    _reference_* kernels, with evolve's step rules."""
    T = t1 - field.t
    speed = potential.grad_v(*field.meshes())
    rate_x, rate_v = _courant_rates(field.xs, field.vs, speed)
    rho, vs, dx, dv = field.rho, field.vs, field.dx, field.dv
    if scheme == "lie":
        n_steps = max(1, int(np.ceil(T / (CFL_LIMIT / max(rate_x, rate_v)))))
        dt = T / n_steps
        for _ in range(n_steps):
            rho, _ = _reference_upwind_x(rho, vs, dx, dt)
            if rate_v > 0:
                rho = _reference_upwind_v(rho, speed, dv, dt)
            rho, _ = _reference_diffuse_v(rho, dv, dt, 1)
        return np.maximum(rho, 0.0)

    def transport(rho, tau):
        rho = _reference_sl_advect_x(rho, vs, dx, tau)
        return _reference_upwind_v(rho, speed, dv, tau) if rate_v > 0 else rho

    delta = T / STRANG_CHUNKS
    rho = transport(rho, 0.5 * delta)
    for i in range(STRANG_CHUNKS):
        rho, _ = _reference_diffuse_v(rho, dv, delta, STRANG_DIFFUSION_SUBSTEPS)
        rho = transport(rho, delta if i < STRANG_CHUNKS - 1 else 0.5 * delta)
    return np.maximum(rho, 0.0)


class TestEvolveMatchesReferenceLoop:
    @pytest.mark.parametrize("scheme", ["lie", "strang"])
    @given(field=grid_fields(), potential=speeds, frac=st.floats(1e-3, 1.0))
    def test_velocity_major_evolve_is_the_x_major_loop(self, scheme, field, potential, frac):
        xs, rho = field
        f = GridField(xs, xs, rho, t=0.2)
        rate_v = _courant_rates(xs, xs, potential.grad_v(*f.meshes()))[1]
        # strang's drift must keep its Courant number under 1 at the chunk
        # size (T / 2): T = frac / rate_v keeps it at most 1/2
        t1 = 0.2 + (frac / max(rate_v, 1.0) if scheme == "strang" else frac)
        out, rep = evolve(f, potential, t1, scheme=scheme)
        _assert_bitwise_equal(out.rho, _reference_evolve(f, potential, t1, scheme))
        assert rep.ledger_discrepancy < LEDGER_TOL


class TestHessianEstimation:
    def test_exact_on_sampled_gaussian(self):
        # centered second differences are exact on quadratic log-density
        f = kernel_field(1.0, extent=6.0, n=128)
        gxx, gxv, gvv, ok = _stencil_arrays(f, ZeroPotential())
        assert ok[62, 62]  # grid index (64, 64)
        H = [[gxx[62, 62], gxv[62, 62]], [gxv[62, 62], gvv[62, 62]]]
        assert np.allclose(H, [[-6.0, 3.0], [3.0, -2.0]], atol=1e-6)

    def test_potential_correction_enters(self):
        f = kernel_field(1.0, extent=6.0, n=128)
        H0 = _stencil_arrays(f, ZeroPotential())[:3]
        H1 = _stencil_arrays(f, QuadraticPotential(q_vv=1.0))[:3]
        # log rho - U/2 shifts the vv entry by -1/2 exactly
        shift = [H1[k][62, 62] - H0[k][62, 62] for k in range(3)]
        assert np.allclose(shift, [0.0, 0.0, -0.5], atol=1e-9)

    def test_boundary_and_floor_rejection(self):
        f = kernel_field(0.3, extent=4.0, n=64)
        *_, ok = _stencil_arrays(f, ZeroPotential())
        # points within two cells of the boundary have no mask entry
        assert ok.shape == (60, 60)
        assert ok[30, 30]  # grid index (32, 32), the peak
        assert not ok[0, 0]  # grid index (2, 2), the far corner


class TestHarnackVerification:
    def test_exact_kernel_saturates_matrix_bound(self):
        f = kernel_field(1.0, extent=6.0, n=128)
        rep = verify_matrix_harnack(f, ZeroPotential(), tolerance=1e-6)
        assert rep.passed
        assert rep.min_margin >= -1e-6
        assert rep.fraction_ok == 1.0
        assert rep.n_tested > 1000

    def test_negative_control_shift_fails(self):
        f = kernel_field(1.0, extent=6.0, n=128)
        rep = verify_matrix_harnack(f, ZeroPotential(), tolerance=0.1,
                                    bound_shift=0.5)
        assert not rep.passed
        assert rep.min_margin == pytest.approx(-0.5, abs=1e-4)

    def test_scalar_bound_and_implication(self):
        f = kernel_field(1.0, extent=6.0, n=128)
        mrep = verify_matrix_harnack(f, ZeroPotential(), tolerance=1e-6)
        srep = verify_scalar_harnack(f, ZeroPotential(), tolerance=1e-6)
        assert srep.passed
        assert srep.kind == "scalar"
        assert srep.min_margin - mrep.min_margin >= -2e-12

    def test_region_restriction(self):
        f = kernel_field(1.0, extent=6.0, n=128)
        rep = verify_matrix_harnack(
            f, ZeroPotential(), region=(-1.0, 1.0, -1.0, 1.0)
        )
        assert abs(rep.argmin[0]) <= 1.0 and abs(rep.argmin[1]) <= 1.0
        assert rep.n_tested < 128 * 128 / 4

    def test_empty_region_raises(self):
        f = kernel_field(1.0, extent=6.0, n=128)
        with pytest.raises(UntestableRegionError):
            verify_matrix_harnack(f, ZeroPotential(), region=(7.0, 8.0, 7.0, 8.0))

    def test_untestable_points_raise_no_warning(self):
        # the strang run leaves empty cells, whose stencils are not finite
        f = kernel_field(0.2, extent=4.0, n=64, sigma2=1.0)
        out, _ = evolve(f, ZeroPotential(), 0.6, scheme="strang")
        region = (-2.0, 2.0, -2.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_matrix_harnack(out, ZeroPotential(), region=region)
        # reference: eigenvalues of the margin matrix at every tested point
        gxx, gxv, gvv, ok = _stencil_arrays(out, ZeroPotential())
        ok = ok & _region_mask(out, region)
        N = bound_N(curvature_of(ZeroPotential()), out.t).entries
        margins = np.full(ok.shape, np.inf)
        H = np.stack([gxx, gxv, gxv, gvv], axis=-1)[ok].reshape(-1, 2, 2)
        margins[ok] = np.linalg.eigvalsh(H - N)[:, 0]
        i, j = np.unravel_index(np.argmin(margins), margins.shape)
        assert rep.n_tested == int(ok.sum()) > 0
        assert rep.min_margin == pytest.approx(margins[i, j], abs=1e-9)
        assert rep.argmin == (float(out.xs[i + 2]), float(out.vs[j + 2]))

    def test_evolved_field_with_potential_passes(self):
        # short drift run, then verify in an interior window
        f = kernel_field(0.2, extent=4.0, n=96, sigma2=1.0)
        out, _ = evolve(f, QuadraticPotential(q_vv=1.0), 0.4)
        rep = verify_matrix_harnack(
            out, QuadraticPotential(q_vv=1.0),
            region=(-2.0, 2.0, -2.0, 2.0), tolerance=0.1,
        )
        assert rep.passed, rep.min_margin


class TestStencilSharing:
    def test_matrix_and_scalar_checks_compute_one_stencil(self, monkeypatch):
        pot = QuadraticPotential(q_vv=1.0)
        alone = [check(kernel_field(0.3, extent=4.0, n=64, sigma2=1.0), pot)
                 for check in (verify_matrix_harnack, verify_scalar_harnack)]
        calls = []
        log_field = kinetic_pde._log_field
        monkeypatch.setattr(kinetic_pde, "_log_field",
                            lambda *args: calls.append(args) or log_field(*args))
        f = kernel_field(0.3, extent=4.0, n=64, sigma2=1.0)
        shared = [check(f, pot) for check in (verify_matrix_harnack, verify_scalar_harnack)]
        assert shared == alone
        assert len(calls) == 1
        assert f._stencil is None  # the second check took the stencil off the field

    def test_a_different_potential_recomputes(self):
        f = kernel_field(0.3, extent=4.0, n=32, sigma2=1.0)
        pot = ZeroPotential()
        first = _stencil_arrays(f, pot)
        assert _stencil_arrays(f, ZeroPotential()) is not first
        again = _stencil_arrays(f, pot)
        assert _stencil_arrays(f, pot) is again

    def test_shared_arrays_and_the_field_are_read_only(self):
        f = kernel_field(0.3, extent=4.0, n=32, sigma2=1.0)
        for a in (f.rho, *_stencil_arrays(f, ZeroPotential())):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = a[1, 1]


def _column_snapshot_csv(field):
    """The column form of snapshot_csv, the oracle of the row-wise writer:
    streamed x, v and rho columns zipped into lines by _csv.csv_text."""
    nx, nv = field.rho.shape
    xs = chain.from_iterable(map(repeat, _csv.floats(field.xs), repeat(nv)))
    vs = chain.from_iterable(repeat(list(_csv.floats(field.vs)), nx))
    return _csv.csv_text(["x", "v", "rho"], [xs, vs, _csv.floats(field.rho)])


def _assert_same_text(got, want):
    """got == want, reporting the first line that differs (pytest's diff
    of two texts of megabytes takes minutes)."""
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    diff = next((i for i, pair in enumerate(zip(got_lines, want_lines))
                 if pair[0] != pair[1]), min(len(got_lines), len(want_lines)))
    pytest.fail(f"line {diff}: {got_lines[diff:diff + 1]} != {want_lines[diff:diff + 1]}")


# literals of every shape: zero, the least subnormal, near the largest
# float, an integer and an exponent form
WRITER_VALUES = [0.0, 5e-324, 1e308, 2.0, 1e-05]


def _writer_values(nx, nv):
    """An nx x nv field that holds every WRITER_VALUES entry it has room for,
    1e308 only once (two of them would overflow GridField's mass sums)."""
    rho = np.resize([v for v in WRITER_VALUES if v != 1e308], (nx, nv))
    rho[-1, -1] = 1e308
    return rho


@st.composite
def writer_fields(draw):
    """(xs, vs, rho) on an nx x nv grid, square or not, odd or even sizes,
    with values drawn from WRITER_VALUES and the floats, one 1e308 at most."""
    nx, nv = draw(st.integers(2, 17)), draw(st.integers(2, 17))
    axes = [np.linspace(-e, e, n) for n, e in
            ((nx, draw(st.sampled_from([1e-05, 2.0]) | st.floats(1e-3, 1e3))),
             (nv, draw(st.sampled_from([1e-05, 2.0]) | st.floats(1e-3, 1e3))))]
    values = st.sampled_from([v for v in WRITER_VALUES if v != 1e308]) | st.floats(0.0, 1e6)
    rho = draw(hnp.arrays(np.float64, (nx, nv), elements=values))
    if draw(st.booleans()):
        rho[draw(st.integers(0, nx - 1)), draw(st.integers(0, nv - 1))] = 1e308
    return (*axes, rho)


class TestSnapshots:
    def test_csv_header(self):
        f = kernel_field(0.3, extent=2.0, n=16)
        lines = snapshot_csv(f).strip().split("\n")
        assert lines[0] == "x,v,rho"
        assert len(lines) == 1 + 16 * 16

    def test_csv_fields_round_trip_exactly(self):
        f = kernel_field(0.3, extent=2.0, n=16)
        _, *rows = snapshot_csv(f).splitlines()
        values = np.array([[float(text) for text in row.split(",")] for row in rows])
        X, V = np.meshgrid(f.xs, f.vs, indexing="ij")
        assert np.array_equal(values[:, 0], X.ravel())
        assert np.array_equal(values[:, 1], V.ravel())
        assert np.array_equal(values[:, 2], f.rho.ravel())

    @pytest.mark.parametrize("nx, nv", [(2, 3), (3, 2), (8, 5), (9, 16), (256, 256)])
    def test_csv_equals_the_column_form_at_fixed_sizes(self, nx, nv):
        f = GridField(np.linspace(-1e-05, 1e-05, nx), make_grid(2.0, max(nv, 8))[:nv],
                      _writer_values(nx, nv), t=0.5)
        _assert_same_text(snapshot_csv(f), _column_snapshot_csv(f))

    @given(field=writer_fields())
    @example(field=(np.linspace(-2.0, 2.0, 3), make_grid(1.0, 8), _writer_values(3, 8)))
    @example(field=(make_grid(4.0, 10), np.linspace(-1e-05, 1e-05, 7), _writer_values(10, 7)))
    def test_csv_equals_the_column_form(self, field):
        xs, vs, rho = field
        f = GridField(xs, vs, rho, t=0.5)
        _assert_same_text(snapshot_csv(f), _column_snapshot_csv(f))

    def test_save_load_roundtrip(self, tmp_path):
        f = kernel_field(0.3, extent=2.0, n=16)
        base = str(tmp_path / "snap")
        save_snapshot(f, base)
        g = load_snapshot(base)
        assert np.array_equal(g.rho, f.rho)
        assert np.array_equal(g.xs, f.xs)
        assert g.t == f.t and g.t0 == f.t0

    @given(nx=st.integers(MIN_GRID_CELLS, 599), nv=st.integers(MIN_GRID_CELLS, 599),
           extent=st.sampled_from([0.7, 1.0, 2.0, 3.0, 4.0, 5.5, 8.0]) | st.floats(1e-3, 1e3))
    @example(nx=100, nv=100, extent=4.0)  # pde-harnack --set n_grid=100
    def test_load_returns_make_grid_axes_bit_for_bit(self, nx, nv, extent):
        f = GridField(make_grid(extent, nx), make_grid(extent, nv), np.ones((nx, nv)),
                      t=0.6, t0=0.2)
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "snap")
            save_snapshot(f, base)
            g = load_snapshot(base)
        for got, want in ((g.xs, f.xs), (g.vs, f.vs), (g.rho, f.rho)):
            _assert_bitwise_equal(got, want)
        assert (g.t, g.t0) == (f.t, f.t0)

    def test_csv_build_peaks_near_twice_its_text(self):
        # the writer holds its text, the text's parts and one batch; formatting
        # every value and row before one join peaked at 4.2 times the text
        f = kernel_field(0.3, extent=4.0, n=256, sigma2=1.0)
        tracemalloc.start()
        try:
            text = snapshot_csv(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), peak / len(text)
