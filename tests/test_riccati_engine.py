"""Tests for the Riccati engine against closed-form and dual-route oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from harnack_forge.riccati_engine import (
    MERGE_TOL,
    STEP_FLOOR,
    BlockSym2n,
    CurvatureBound,
    InputError,
    SingularityError,
    StepUnderflowError,
    S_from_M,
    _states_at,
    bound_N,
    build_structural,
    comparison_check,
    exponential_route_residual,
    fundamental_M,
    hamiltonian_matrix,
    integrate_S,
    residual_defect,
    small_time_S,
    stationary_N,
    trajectory_to_csv,
)


def free_S(t, n=1):
    # hand-integrated solution at zero curvature: S = -[[2t^3/3, t^2], [t^2, 2t]]
    I = np.eye(n)
    return -np.block([[2 * t**3 / 3 * I, t**2 * I], [t**2 * I, 2 * t * I]])


def random_psd_curvature(rng, n):
    G = rng.normal(size=(2 * n, 2 * n))
    return CurvatureBound(matrix=G.T @ G)


class TestBlockSym2n:
    def test_block_views(self):
        A = np.array([[1.0, 2, 3, 4], [2, 5, 6, 7], [3, 6, 8, 9], [4, 7, 9, 10]])
        B = BlockSym2n(A)
        assert B.n == 2
        assert np.array_equal(B.A_xx, A[:2, :2])
        assert np.array_equal(B.A_xv, A[:2, 2:])
        assert np.array_equal(B.A_vv, A[2:, 2:])

    def test_asymmetry_rejected(self):
        for A in (np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]]),
                  np.array([[1.0, 2.0, 0.0, -3.0], [2.0, 1.0, 5.0, 0.0],
                            [0.0, 4.0, 1.0, 0.0], [-3.0, 0.0, 0.0, 1.0]]),
                  # a NaN drift, and inf - inf on the diagonal without a warning
                  np.array([[1.0, np.nan], [5.0, 2.0]]),
                  np.array([[np.inf, 1.0], [2.0, np.inf]])):
            with pytest.raises(ValueError, match="not symmetric"):
                BlockSym2n(A)
            # same matrix is accepted when projection is requested, whatever
            # its asymmetry
            B = BlockSym2n(A, symmetrize=True)
            assert B.entries.tobytes() == (0.5 * (A + A.T)).tobytes()

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            BlockSym2n(np.zeros((3, 3)))


@pytest.mark.parametrize("build, named", [
    (lambda: CurvatureBound(matrix=np.zeros((0, 0))), "K must be square"),
    (lambda: BlockSym2n(np.zeros((0, 0))), "entries must be a square"),
    (lambda: trajectory_to_csv([]), "trajectory must not be empty"),
], ids=["curvature-matrix", "block-sym", "trajectory-csv"])
def test_empty_inputs_rejected_by_name(build, named):
    with pytest.raises(ValueError, match=named):
        build()


class TestCurvatureBound:
    def test_scalar_form(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=2)
        assert K.n == 2
        assert np.array_equal(np.diag(K.K), [1, 1, 2, 2])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            CurvatureBound(k1=-0.5, k2=1.0, n=1)

    def test_matrix_form_and_conflicts(self):
        K = CurvatureBound(matrix=np.eye(4))
        assert K.n == 2 and K.k1 is None
        with pytest.raises(ValueError, match="not both"):
            CurvatureBound(k1=1.0, k2=1.0, matrix=np.eye(2))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            CurvatureBound(matrix=np.diag([1.0, -1.0]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k1": np.nan, "k2": 1.0},
            {"k1": 1.0, "k2": np.inf},
            {"matrix": np.diag([np.nan, 1.0])},
            {"matrix": np.diag([1.0, -np.inf])},
        ],
    )
    def test_non_finite_rejected(self, kwargs):
        # used to build, then fail later as a step underflow at t = 0
        with pytest.raises(ValueError, match="finite"):
            CurvatureBound(**kwargs)

    @pytest.mark.parametrize("n", [1.5, 2.0, "2", True, 0, -1])
    def test_dimension_must_be_positive_integer(self, n):
        # CurvatureBound and build_structural share one dimension rule
        with pytest.raises(ValueError, match="dimension n="):
            CurvatureBound(k1=1, k2=1, n=n)
        with pytest.raises(ValueError, match="dimension n="):
            build_structural(n)

    def test_numpy_integer_dimension_accepted(self):
        assert CurvatureBound(k1=1, k2=1, n=np.int64(2)).K.shape == (4, 4)
        assert build_structural(np.int64(2)).C.shape == (4, 4)

    @pytest.mark.parametrize("K", [1.0, np.eye(2)])
    def test_routes_take_only_curvature_bounds(self, K):
        with pytest.raises(TypeError, match="CurvatureBound"):
            bound_N(K, 1.0)
        with pytest.raises(TypeError, match="CurvatureBound"):
            integrate_S(K, 1.0)


def test_structural_pair_entries():
    sp = build_structural(2)
    Z, I = np.zeros((2, 2)), np.eye(2)
    assert np.array_equal(sp.C, np.block([[Z, -I], [Z, Z]]))
    assert np.array_equal(sp.D, np.block([[Z, Z], [Z, 2 * I]]))


class TestIntegrateS:
    def test_free_case_matches_hand_solution(self):
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        traj = integrate_S(K, 2.0, tol=1e-10, eval_times=[0.5, 1.0, 2.0])
        by_t = {t: S for t, S in traj}
        for t in (0.5, 1.0, 2.0):
            assert np.abs(by_t[t].entries - free_S(t)).max() < 1e-9

    def test_eval_times_land_exactly(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        times = [0.3, 0.7, 1.1]
        hit = {t for t, _ in integrate_S(K, 1.5, eval_times=times)}
        for t in times:
            assert t in hit

    def test_eval_times_land_exactly_on_early_long_steps(self):
        # t + (t_target - t) rounds past these targets when the step
        # spans more than half of t
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        times = [0.024286006590309158, 0.029542610335024366, 0.03872119526354014]
        hit = {t for t, _ in integrate_S(K, times[-1], eval_times=times)}
        for t in times:
            assert t in hit

    def test_negative_semidefinite_along_path(self):
        rng = np.random.default_rng(7)
        for n in (1, 2):
            K = random_psd_curvature(rng, n)
            traj = integrate_S(K, 1.5)
            worst = max(S.max_eigenvalue() for t, S in traj if t > 0)
            assert worst <= 1e-8

    def test_derivative_negative_semidefinite(self):
        # the RHS evaluated on snapshots must itself be <= 0
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        sp = build_structural(1)
        for t, S in integrate_S(K, 2.0, eval_times=np.linspace(0.2, 2, 10)):
            A = S.entries
            rhs = -sp.C @ A - A @ sp.C.T - sp.D + A @ K.K @ A
            assert np.linalg.eigvalsh(0.5 * (rhs + rhs.T))[-1] <= 1e-8

    def test_tolerance_and_time_validation(self):
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        with pytest.raises(ValueError, match="tol"):
            integrate_S(K, 1.0, tol=1.0)
        with pytest.raises(ValueError, match="positive"):
            integrate_S(K, -1.0)
        with pytest.raises(ValueError, match="eval_times"):
            integrate_S(K, 1.0, eval_times=[2.0])
        with pytest.raises(ValueError, match="eval_times"):
            integrate_S(K, 1.0, eval_times=[np.nan, 0.5])  # the loop never reaches NaN
        with pytest.raises(InputError, match="t_end=inf"):
            integrate_S(K, np.inf)
        with pytest.raises(InputError, match="t_end=inf"):
            bound_N(K, np.inf)

    @pytest.mark.parametrize(
        "t_end, eval_times, named",
        [
            (1e-16, None, "t_end=1e-16"),
            (2e-15, None, "t_end=2e-15"),
            (1.0, [1e-16, 0.5], "t=1e-16"),
            (1.0, [5e-15, 0.5], "t=5e-15"),
            # closer than the step floor but more than 1e-15 apart
            (1.0, [0.5, 0.5 + 5e-15], "t=0.5 and t=0.500000000000005"),
            (1.0, [0.5, 0.5 + 9e-16, 0.5 + 1.8e-15], "t=0.5 and t=0.5000000000000018"),
            (1.0, [1.0 - 5e-15], "t=0.999999999999995 and t=1.0"),  # and t_end
        ],
    )
    def test_unresolvable_times_rejected_by_name(self, t_end, eval_times, named):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        with pytest.raises(ValueError, match=named):
            integrate_S(K, t_end, eval_times=eval_times)

    def test_target_within_the_floor_of_an_adaptive_step_is_named(self):
        # an adaptive step lands 5e-15 short of the target: an input the
        # loop cannot resolve, not a collapse of the step size
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        grid = [t for t, _ in integrate_S(K, 1.0)]
        t = grid[len(grid) // 2]
        with pytest.raises(InputError, match=f"t={t!r} and t={t + 5e-15!r}"):
            integrate_S(K, 1.0, eval_times=[t + 5e-15])

    def test_eval_times_within_merge_tolerance_merge(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        grid = [t for t, _ in integrate_S(K, 1.0, eval_times=[0.5, 0.5 + 5e-16])]
        assert 0.5 in grid and 0.5 + 5e-16 not in grid
        N_a, N_b = bound_N(K, [0.5, 0.5 + 5e-16])  # both read the one grid time
        assert np.allclose(N_a.entries, N_b.entries, rtol=1e-14, atol=0)
        rows = comparison_check(CurvatureBound(k1=0.5, k2=1.0, n=1), K,
                                [0.5, 0.5 + 5e-16]).per_time
        assert [t for t, _ in rows] == [0.5, 0.5 + 5e-16]
        assert rows[0][1] == rows[1][1]

    def test_smallest_resolvable_horizon(self):
        # the first step t_end / 10 meets the step floor exactly
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        grid = [t for t, _ in integrate_S(K, 1e-13, eval_times=[1e-14])]
        assert 1e-14 in grid and grid[-1] == 1e-13

    @pytest.mark.parametrize("k1, k2", [(1e300, 1e300), (1e200, 1e100), (1.0, 1e160)])
    def test_overflowing_stages_collapse_the_step_size(self, k1, k2):
        # every trial step overflows its stages to inf - inf, which fsum
        # refuses: the step is rejected until it falls under the floor
        with pytest.raises(StepUnderflowError, match="last valid time 0$"):
            integrate_S(CurvatureBound(k1=k1, k2=k2, n=1), 1.0)

    @pytest.mark.parametrize("matrix", [
        np.diag([1e300, 1e300]), np.diag([1e200, 1e100]), np.diag([1.0, 1e160]),
        [[1e300, 1e299], [1e299, 1e300]],
    ], ids=["diag-1e300", "diag-1e200-1e100", "diag-1-1e160", "full"])
    def test_overflowing_matrix_stages_collapse_the_step_size(self, matrix):
        # the numpy stages of a matrix K overflow to inf and NaN, and must not
        # warn (a warning is an error here): each step's error is not finite,
        # so the step is rejected until it falls under the floor, as in
        # scalar form
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StepUnderflowError, match="last valid time 0$"):
                integrate_S(CurvatureBound(matrix=matrix), 1.0)

    def test_reintegration_defect_small(self):
        K = CurvatureBound(k1=1.0, k2=0.5, n=1)
        traj = integrate_S(K, 1.0, tol=1e-10)
        assert residual_defect(K, traj) < 1e-8


class TestBoundN:
    def test_free_fixtures(self):
        # inverses of the hand solution: N(1) and N(2)
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        N1 = bound_N(K, 1.0).entries
        assert np.abs(N1 - np.array([[-6.0, 3.0], [3.0, -2.0]])).max() < 1e-9
        N2 = bound_N(K, 2.0).entries
        assert np.abs(N2 - np.array([[-0.75, 0.75], [0.75, -1.0]])).max() < 1e-9

    def test_free_formula_any_time(self):
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        for t in (0.1, 0.7, 1.9):
            want = np.array([[-6 / t**3, 3 / t**2], [3 / t**2, -2 / t]])
            assert np.abs(bound_N(K, t).entries - want).max() < 1e-7 * 1 / t**3

    def test_small_time_expansion_path(self):
        # below the integration's reach, 1e-13 here, the expansion answers;
        # at K = 0 it is the exact solution, so the inverse is exact too
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        t = 1e-14
        want = np.array([[-6 / t**3, 3 / t**2], [3 / t**2, -2 / t]])
        got = bound_N(K, t).entries
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-10

    @pytest.mark.parametrize("t", [-1.0, -1e-300, np.nan, np.inf])
    def test_small_time_expansion_refuses_times_outside_its_domain(self, t):
        K = CurvatureBound(k1=1.0, k2=1.0, n=1)
        with pytest.raises(InputError, match="must be finite and >= 0"):
            small_time_S(K, t)
        assert (small_time_S(K, 0.0).entries == 0.0).all()  # S(0) = 0

    def test_times_whose_bound_is_no_float_matrix_are_refused(self):
        # N_xx ~ -6 / t^3: -4.8e307 at 5e-103, then -inf; below ~1.7e-108
        # t^3 underflows and the scaled S(t) is 0 / 0
        K = CurvatureBound(k1=0.0, k2=0.5, n=1)
        assert np.isfinite(bound_N(K, 5e-103).entries).all()
        for t in (3.5e-103, 1e-104, 1e-110, 1e-299):
            with pytest.raises(InputError, match=f"N\\(t\\) at t={t:.6g} is not a finite"):
                bound_N(K, t)
        # the first such time in grid order is named; finite ones do not mask it
        with pytest.raises(InputError, match="at t=1e-110 "):
            bound_N(K, [0.5, 1e-110, 3.5e-103])

    @pytest.mark.parametrize("t", [0.5, 1e-4, 1e-12])
    def test_times_closer_than_the_step_floor_are_refused(self, t):
        # 5e-15 apart: under the floor 1e-14, over MERGE_TOL; the refusal
        # holds in [1e-13, 1e-3) too, where both times are integrated
        K = CurvatureBound(k1=1.0, k2=1.0, n=1)
        with pytest.raises(InputError, match=f"t={t!r} and t={t + 5e-15!r} cannot both"):
            bound_N(K, [t, t + 5e-15])
        assert len(bound_N(K, [t, t + 5e-16])) == 2  # within MERGE_TOL: merged

    def test_small_time_expansion_matches_integration_at_crossover(self):
        # just above the reach set by the largest time T, bound_N integrates;
        # the expansion's O(t^2 K) truncation is far under rounding there
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        for T in (1.0, 2.0, 1000.0):
            t = 1.5 * STEP_FLOOR * max(T, 10.0)
            via_exp = np.linalg.inv(small_time_S(K, t).entries)
            via_int = bound_N(K, [t, T])[0].entries
            tsc = np.array([t**1.5, t**0.5])
            assert np.abs((via_exp - via_int) * np.outer(tsc, tsc)).max() < 1e-14

    def test_negative_definite(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            K = random_psd_curvature(rng, n)
            N = bound_N(K, 0.8)
            assert N.max_eigenvalue() < 0


class TestBoundCurve:
    def test_trajectory_reuse_and_validation(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        times = [1.2, 5e-4, 0.4, 1.2]
        traj = integrate_S(K, 1.2, eval_times=[5e-4, 0.4, 1.2])
        reused = bound_N(K, times, trajectory=traj)
        for got, want in zip(reused, bound_N(K, times)):
            assert np.array_equal(got.entries, want.entries)
        with pytest.raises(ValueError, match=r"grid time at t=0\.5$"):
            bound_N(K, [0.5], trajectory=traj)
        with pytest.raises(ValueError, match="empty"):
            bound_N(K, [])

    def test_grid_lookup_reads_the_nearest_row_without_a_dense_matrix(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        times = np.linspace(2.0 / 5000, 2.0, 5000)
        traj = integrate_S(K, 2.0, eval_times=times)
        tracemalloc.start()
        try:
            states = _states_at(traj, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6  # a times x grid distance matrix alone takes 400 MB
        at = {t: S.entries for t, S in traj}
        assert np.array_equal(states, [at[t] for t in times])
        # times up to MERGE_TOL off the grid read the rows that a search
        # over all grid times reads
        grid = np.array(list(at))
        off = grid[1::25]
        off = off + np.random.default_rng(5).uniform(-MERGE_TOL, MERGE_TOL, off.size)
        rows = np.abs(grid - off[:, None]).argmin(axis=1)
        assert np.array_equal(_states_at(traj, off), [traj[r][1].entries for r in rows])

    @pytest.mark.parametrize("k1, k2", [(1.0, 2.0), (2.0, 1.0), (1.0, 0.5)])
    def test_large_time_meets_stationary_limit(self, k1, k2):
        K = CurvatureBound(k1=k1, k2=k2, n=1)
        N_inf = stationary_N(K).entries
        assert np.abs(bound_N(K, 1e3).entries - N_inf).max() < 1e-8
        assert np.linalg.eigvalsh(N_inf)[-1] < 0

    def test_stationary_limit_needs_position_curvature(self):
        # k1 = 0: N(t) converges only algebraically, no stabilising solution
        with pytest.raises(ValueError, match="K_xx"):
            stationary_N(CurvatureBound(k1=0.0, k2=1.0, n=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stationary_limit_refuses_an_overflowing_solution(self):
        with pytest.raises(InputError, match="overflows"):
            stationary_N(CurvatureBound(k1=1.0, k2=1e300, n=1))


class TestHamiltonianRoute:
    def test_hamiltonian_free_structure(self):
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        H = hamiltonian_matrix(K)
        want = np.array(
            [[0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, -2, 0, 0]], dtype=float
        )
        assert np.array_equal(H, want)
        # nilpotent of index 4
        assert np.abs(np.linalg.matrix_power(H, 3)).max() > 0
        assert np.abs(np.linalg.matrix_power(H, 4)).max() == 0

    def test_j_symmetry(self):
        # J H is symmetric for the symplectic J in every curvature
        rng = np.random.default_rng(11)
        for n in (1, 2):
            K = random_psd_curvature(rng, n)
            H = hamiltonian_matrix(K)
            I = np.eye(2 * n)
            Z = np.zeros((2 * n, 2 * n))
            J = np.block([[Z, I], [-I, Z]])
            JH = J @ H
            assert np.abs(JH - JH.T).max() < 1e-12

    def test_overflowing_spread_is_refused_without_a_warning(self):
        # |t| ||H|| overflows to inf; a RuntimeWarning here is an error
        K = CurvatureBound(k1=1e300, k2=2.0, n=1)
        with pytest.raises(InputError, match="= inf exceeds the exponential cap"):
            fundamental_M(K, 1e300)

    def test_fundamental_free_fixture(self):
        K = CurvatureBound(k1=0.0, k2=0.0, n=1)
        for t in (0.5, 1.0, 2.0):
            M = fundamental_M(K, t)
            fix = np.array(
                [
                    [1, 0, 0, 0],
                    [-t, 1, 0, 0],
                    [t**3 / 3, -(t**2), 1, t],
                    [t**2, -2 * t, 0, 1],
                ]
            )
            assert np.abs(M - fix).max() <= 1e-12

    def test_fundamental_identity_and_inverse(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        assert np.array_equal(fundamental_M(K, 0.0), np.eye(4))
        M = fundamental_M(K, 0.7)
        Minv = fundamental_M(K, -0.7)
        assert np.abs(M @ Minv - np.eye(4)).max() < 1e-10

    def test_overflow_guard(self):
        K = CurvatureBound(k1=0.0, k2=400.0, n=1)
        with pytest.raises(OverflowError, match="cap"):
            fundamental_M(K, 50.0)

    def test_s_from_m_agrees_with_integration(self):
        rng = np.random.default_rng(5)
        for n in (1, 2):
            K = random_psd_curvature(rng, n)
            for t in (0.3, 1.0, 1.7):
                N_exp = S_from_M(fundamental_M(K, t)).entries
                N_int = bound_N(K, t, tol=1e-11).entries
                rel = np.abs(N_exp - N_int).max() / (1 + np.abs(N_exp).max())
                assert rel < 1e-7

    def test_s_from_m_singular_block(self):
        with pytest.raises(SingularityError):
            S_from_M(np.eye(4))  # lower-left block is zero

    def test_exponential_route_residual(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        assert exponential_route_residual(K, fundamental_M(K, [0.3, 0.9, 1.8])) < 1e-10

    def test_exponential_route_residual_refuses_what_s_from_m_refuses(self):
        # at t = 50 the M3 block of (1, 2) is too ill-conditioned to invert;
        # both routes raise the same error instead of numpy's LinAlgError
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        M = fundamental_M(K, [1.0, 50.0])
        with pytest.raises(SingularityError) as residual:
            exponential_route_residual(K, M)
        with pytest.raises(SingularityError) as oracle:
            S_from_M(M)
        assert str(residual.value) == str(oracle.value)
        assert residual.value.cond == oracle.value.cond > 1e14
        assert residual.value.index == oracle.value.index == 1


class TestComparison:
    def test_ordered_pair_holds(self):
        small = CurvatureBound(k1=0.5, k2=1.0, n=1)
        large = CurvatureBound(k1=1.0, k2=2.0, n=1)
        rep = comparison_check(small, large, [0.5, 1.0, 2.0])
        assert rep.status == "ok"
        assert rep.ordering_holds
        assert rep.worst_violation <= 1e-8

    def test_hypothesis_failure_reported(self):
        small = CurvatureBound(k1=2.0, k2=1.0, n=1)
        large = CurvatureBound(k1=1.0, k2=2.0, n=1)
        rep = comparison_check(small, large, [1.0])
        assert rep.status == "hypothesis-failed"
        assert not rep.ordering_holds

    def test_empty_grid_rejected(self):
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        with pytest.raises(ValueError, match="t_grid must not be empty"):
            comparison_check(K, K, [])

    def test_seeded_ordered_pairs(self):
        rng = np.random.default_rng(19)
        for n in (1, 2):
            for _ in range(5):
                G = rng.normal(size=(2 * n, 2 * n))
                A = G.T @ G
                Hext = rng.normal(size=(2 * n, 2 * n))
                B = A + Hext.T @ Hext
                rep = comparison_check(
                    CurvatureBound(matrix=A),
                    CurvatureBound(matrix=B),
                    [0.4, 0.9, 1.4],
                )
                assert rep.status == "ok"
                assert rep.ordering_holds, rep.worst_violation


def test_strong_curvature_settles_to_stationary_solution():
    # with a large positive semidefinite K the flow converges to the
    # algebraic Riccati solution instead of blowing up; the stationary
    # residual at the far end should be tiny
    K = CurvatureBound(matrix=200.0 * np.eye(2))
    sp = build_structural(1)
    (t_end, S), = integrate_S(K, 50.0, eval_times=[50.0])[-1:]
    A = S.entries
    rhs = -sp.C @ A - A @ sp.C.T - sp.D + A @ K.K @ A
    assert np.abs(rhs).max() < 1e-6
    assert t_end == 50.0


def _plain_trajectory_csv(trajectory):
    # every field from its own value, row by row
    dim = trajectory[0][1].entries.shape[0]
    header = ["t"] + [f"entry_{i}{j}" for i in range(dim) for j in range(dim)]
    lines = [",".join(header)]
    for t, S in trajectory:
        lines.append(",".join(repr(float(x)) for x in [t, *S.entries.ravel().tolist()]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("lower, upper", [
    (0.25 + 1e-14, 0.25),  # symmetric within SYMMETRY_TOL, not bit for bit
    (-0.0, 0.0),
    (0.0, -0.0),
    (np.nan, 0.25),
    (0.25, np.nan),
], ids=["within-tol", "neg-zero-below", "neg-zero-above", "nan-below", "nan-above"])
def test_trajectory_csv_formats_a_column_that_differs_from_its_mirror(lower, upper):
    # one row of entry_10 differs from entry_01; every other row, and the
    # NaN mirrored pair of the 4 x 4 state, matches bit for bit
    K = CurvatureBound(k1=1.0, k2=2.0, n=1)
    traj = integrate_S(K, 1.0, eval_times=[0.5])
    A = traj[2][1].entries.copy()
    A[1, 0], A[0, 1] = lower, upper
    odd = traj[:2] + [(traj[2][0], BlockSym2n._wrap(A))] + traj[3:]
    assert trajectory_to_csv(odd) == _plain_trajectory_csv(odd)
    B = np.arange(16.0).reshape(4, 4)
    B = B + B.T
    B[3, 1] = B[1, 3] = np.nan
    B[2, 0], B[0, 2] = lower, upper
    wide = [(0.5, BlockSym2n._wrap(B + 1.0)), (1.0, BlockSym2n._wrap(B))]
    assert trajectory_to_csv(wide) == _plain_trajectory_csv(wide)


def test_trajectory_csv_matches_plain_formatting():
    K = CurvatureBound(matrix=[[2.0, 0.3, 0.5, 0.1], [0.3, 1.0, 0.2, 0.4],
                               [0.5, 0.2, 1.5, 0.6], [0.1, 0.4, 0.6, 1.2]])
    for traj in (integrate_S(K, 1.0, eval_times=[0.25, 0.5]),
                 integrate_S(CurvatureBound(k1=1.0, k2=0.5, n=3), 1.0)):
        assert trajectory_to_csv(traj) == _plain_trajectory_csv(traj)


def test_trajectory_csv_roundtrip():
    K = CurvatureBound(k1=0.0, k2=0.0, n=1)
    traj = integrate_S(K, 1.0, eval_times=[0.5, 1.0])
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,entry_00,entry_01,entry_10,entry_11"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 1.0
    assert np.abs(np.array(last[1:]).reshape(2, 2) - free_S(1.0)).max() < 1e-9
