"""Property tests of the Riccati bound routes over random curvatures and times."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import expm, solve_continuous_are

from harnack_forge.riccati_engine import (
    _DP_A,
    _DP_E,
    _expm,
    EXP_ARG_CAP,
    SYMMETRY_ABORT,
    T_MIN_DEFAULT,
    BlockSym2n,
    CurvatureBound,
    S_from_M,
    SingularityError,
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
)

# The two routes take different step sequences, so they agree only to the
# integration error.  The step control is absolute, tol * (1 + max|S|),
# which at the default tol = 1e-10 leaves up to ~1e-6 relative error in
# N(t) for t in [0.02, 0.2]; tol = 1e-12 puts it below the 1e-8 compared.
TOL = 1e-12


@st.composite
def curvatures(draw):
    """Scalar pairs (k1, k2) in [0, 2.5]^2, a third of them on k1 = k2^2 / 2."""
    k2 = draw(st.floats(0.0, 2.5))
    k1 = draw(st.one_of(st.just(k2 * k2 / 2.0), st.floats(0.0, 2.5)))
    return CurvatureBound(k1=k1, k2=k2, n=1)


@st.composite
def time_sets(draw):
    """Unsorted times in [1e-4, 2.5], with duplicates and some below t_min."""
    times = draw(st.lists(st.floats(1e-4, 2.5), min_size=1, max_size=5))
    times += draw(st.lists(st.sampled_from(times), max_size=2))
    below_t_min = st.floats(1e-5, T_MIN_DEFAULT, exclude_max=True)
    times += draw(st.lists(below_t_min, max_size=2))
    return draw(st.permutations(times))


@given(K=curvatures(), times=time_sets())
def test_bound_curve_matches_bound_N_per_time(K, times):
    curve = bound_N(K, times, tol=TOL)
    assert len(curve) == len(times)
    for t, N in zip(times, curve):
        want = bound_N(K, t, tol=TOL).entries
        assert np.abs(N.entries - want).max() <= 1e-8 * np.abs(want).max()
        assert np.array_equal(N.entries, N.entries.T)
        assert N.max_eigenvalue() < 0


@given(K=curvatures(), times=time_sets())
def test_S_negative_semidefinite_at_every_requested_time(K, times):
    late = [t for t in times if t >= T_MIN_DEFAULT]
    if not late:
        return
    for t, S in integrate_S(K, max(late), eval_times=late):
        assert S.max_eigenvalue() <= 1e-12 * (1.0 + np.abs(S.entries).max())


@given(
    K=curvatures(),
    times=time_sets(),
    bad=st.one_of(st.floats(max_value=0.0), st.just(np.nan)),
)
def test_non_positive_time_raises(K, times, bad):
    with pytest.raises(ValueError, match="positive"):
        bound_N(K, times + [bad])


@given(K=curvatures(), times=time_sets())
def test_S_non_increasing_in_loewner_order(K, times):
    # P = dS/dt obeys P' = A P + P A^T with A = -C + S K, so P(t) is
    # congruent to P(0) = -D <= 0: S never increases, and N = S^{-1} < 0
    # never decreases (checked on the exponential route as well).
    late = sorted(t for t in times if t >= T_MIN_DEFAULT)
    if not late:
        return
    trajectory = [S.entries for _, S in integrate_S(K, late[-1], tol=TOL, eval_times=late)]
    for earlier, later in zip(trajectory[:-1], trajectory[1:]):
        step = np.linalg.eigvalsh(later - earlier)[-1]
        assert step <= 1e-10 * (1.0 + np.abs(later).max())
    curve = [N.entries for N in bound_N(K, late, tol=TOL)]
    exact = [S_from_M(fundamental_M(K, t)).entries for t in late]
    for Ns in (curve, exact):
        for earlier, later in zip(Ns[:-1], Ns[1:]):
            step = np.linalg.eigvalsh(later - earlier)[0]
            assert step >= -1e-8 * np.abs(earlier).max()


@st.composite
def ordered_curvatures(draw):
    """Curvature matrices K_small <= K_large (Loewner order), n = 1 or 2."""
    n = draw(st.sampled_from((1, 2)))
    size = 4 * n * n
    factors = st.lists(st.floats(-1.5, 1.5), min_size=size, max_size=size)

    def psd():
        L = np.reshape(draw(factors), (2 * n, 2 * n))
        G = L @ L.T
        return 0.5 * (G + G.T)  # exactly symmetric

    small = psd()
    return CurvatureBound(matrix=small), CurvatureBound(matrix=small + psd())


@given(pair=ordered_curvatures(), times=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4))
def test_comparison_principle_on_ordered_pairs(pair, times):
    # more curvature, less negative S: S_small <= S_large, so the bound
    # N = S^{-1} of the larger curvature is the lower one
    small, large = pair
    rep = comparison_check(small, large, times, tol=TOL)
    assert rep.status == "ok" and rep.ordering_holds
    for t in times:
        n_small = S_from_M(fundamental_M(small, t)).entries
        n_large = S_from_M(fundamental_M(large, t)).entries
        gap = np.linalg.eigvalsh(n_small - n_large)[0]
        assert gap >= -1e-8 * np.abs(n_small).max()


# Per-time forms of the exponential route, the re-integration audit and
# the bound inversions: np.block assembly, one package _expm per time (its
# accuracy is checked against scipy's expm separately), a Python
# loop over times and over trajectory intervals, one scaled inversion per
# time; and the DOPRI step loop that builds -C, C^T and the tableau row
# views in every stage.  The code in riccati_engine must reproduce them
# bit for bit.


def _reference_structural(n):
    Z, I = np.zeros((n, n)), np.eye(n)
    return np.block([[Z, -I], [Z, Z]]), np.block([[Z, Z], [Z, 2 * I]])


def _reference_hamiltonian(K):
    C, D = _reference_structural(K.n)
    return np.block([[C.T, -K.K], [-D, -C]])


def _reference_fundamental_M(K, t):
    H = _reference_hamiltonian(K)
    if t == 0.0:
        return np.eye(H.shape[0])
    if abs(t) * float(np.linalg.norm(H, 2)) > EXP_ARG_CAP:
        raise OverflowError("cap")
    return _expm(t * H)


def _reference_S_from_M(M):
    dim = M.shape[0] // 2
    M1, M3 = M[:dim, :dim], M[dim:, :dim]
    cond = float(np.linalg.cond(M3))
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularityError("singular", cond=cond)
    return BlockSym2n(M1 @ np.linalg.inv(M3), symmetrize=True)


def _reference_exponential_route_residual(K, t_grid):
    C, D = _reference_structural(K.n)
    H = _reference_hamiltonian(K)
    dim = 2 * K.n
    worst = 0.0
    for t in t_grid:
        M = _reference_fundamental_M(K, t)
        Mdot = H @ M
        M1, M3 = M[:dim, :dim], M[dim:, :dim]
        N = M1 @ np.linalg.inv(M3)
        Ndot = (Mdot[:dim, :dim] - N @ Mdot[dim:, :dim]) @ np.linalg.inv(M3)
        rhs = N @ C + C.T @ N + N @ D @ N - K.K
        scale = 1.0 + np.abs(rhs).max()
        worst = max(worst, float(np.abs(Ndot - rhs).max()) / scale)
    return worst


def _reference_rhs(S, C, D, K):
    return -C @ S - S @ C.T - D + S @ K @ S


def _reference_integrate_S(K, t_end, tol, eval_times):
    C, D = _reference_structural(K.n)
    targets = sorted({float(t_end)} | {float(t) for t in eval_times})
    dim = 2 * K.n
    S = np.zeros((dim, dim))
    t = 0.0
    out = [(0.0, BlockSym2n(S.copy()))]
    h = min(1e-3, t_end / 10.0)
    ks = np.empty((7, dim, dim))
    flat = ks.reshape(7, dim * dim)
    ks[0] = _reference_rhs(S, C, D, K.K)
    ti = 0
    while ti < len(targets):
        t_next = targets[ti]
        if t >= t_next - 1e-15:
            ti += 1
            continue
        hits_target = h >= t_next - t
        if hits_target:
            h = t_next - t
        for i in range(1, 7):
            stage = S + h * (_DP_A[i, :i] @ flat[:i]).reshape(dim, dim)
            ks[i] = _reference_rhs(stage, C, D, K.K)
        S5 = stage
        scale = tol * (1.0 + np.abs(S5).max())
        err = float(h * np.abs(_DP_E @ flat).max() / scale)
        if err <= 1.0:
            t = t_next if hits_target else t + h
            assert float(np.abs(S5 - S5.T).max()) <= SYMMETRY_ABORT
            S = 0.5 * (S5 + S5.T)
            ks[0] = _reference_rhs(S, C, D, K.K)
            out.append((t, BlockSym2n(S.copy())))
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
    return out


def _reference_scaled_inverse(S, t, n):
    tsc = np.concatenate([np.full(n, t**1.5), np.full(n, t**0.5)])
    Shat = S / np.outer(tsc, tsc)
    cond = float(np.linalg.cond(Shat))
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularityError("singular", cond=cond)
    return np.linalg.inv(Shat) / np.outer(tsc, tsc)


def _reference_bound_N(K, times, trajectory):
    grid = np.array([t for t, _ in trajectory])
    out = []
    for t in np.asarray(times, dtype=float):
        if t < T_MIN_DEFAULT:
            S = small_time_S(K, t).entries
        else:
            S = trajectory[int(np.abs(grid - t).argmin())][1].entries
        out.append(BlockSym2n(_reference_scaled_inverse(S, t, K.n), symmetrize=True))
    return out


def _reference_residual_defect(K, trajectory):
    C, D = _reference_structural(K.n)
    worst = 0.0
    for (t0, S0), (t1, S1) in zip(trajectory[:-1], trajectory[1:]):
        S = S0.entries.copy()
        h = (t1 - t0) / 8.0
        for _ in range(8):
            k1 = _reference_rhs(S, C, D, K.K)
            k2 = _reference_rhs(S + 0.5 * h * k1, C, D, K.K)
            k3 = _reference_rhs(S + 0.5 * h * k2, C, D, K.K)
            k4 = _reference_rhs(S + h * k3, C, D, K.K)
            S = S + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        scale = 1.0 + np.abs(S1.entries).max()
        worst = max(worst, float(np.abs(S - S1.entries).max()) / scale)
    return worst


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@st.composite
def any_curvatures(draw):
    """Scalar pairs (n = 1 or 2) or general PSD matrices (n = 1 or 2)."""
    n = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        return CurvatureBound(k1=draw(st.floats(0.0, 3.0)), k2=draw(st.floats(0.0, 3.0)), n=n)
    size = 4 * n * n
    L = np.reshape(draw(st.lists(st.floats(-1.5, 1.5), min_size=size, max_size=size)),
                   (2 * n, 2 * n))
    G = L @ L.T
    return CurvatureBound(matrix=0.5 * (G + G.T))


positive_grids = st.lists(st.floats(0.05, 2.5), min_size=1, max_size=6)
zero_curvatures = st.sampled_from((1, 2)).map(lambda n: CurvatureBound(k1=0, k2=0, n=n))


class TestBatchedRoutesMatchPerTimeLoops:
    @given(K=any_curvatures())
    def test_structural_assembly(self, K):
        C, D = _reference_structural(K.n)
        sp = build_structural(K.n)
        _assert_bitwise_equal(sp.C, C)
        _assert_bitwise_equal(sp.D, D)
        _assert_bitwise_equal(hamiltonian_matrix(K), _reference_hamiltonian(K))
        if K.k1 is not None:
            I, Z = np.eye(K.n), np.zeros((K.n, K.n))
            _assert_bitwise_equal(K.K, np.block([[K.k1 * I, Z], [Z, K.k2 * I]]))

    @given(
        K=any_curvatures(),
        times=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=6),
        zero_at=st.integers(0, 6),
    )
    def test_fundamental_M_stack(self, K, times, zero_at):
        times.insert(min(zero_at, len(times)), 0.0)  # t = 0 inside the stack
        stack = fundamental_M(K, times)
        assert stack.shape == (len(times), 4 * K.n, 4 * K.n)
        for t, M in zip(times, stack):
            want = _reference_fundamental_M(K, t)
            _assert_bitwise_equal(M, want)
            _assert_bitwise_equal(fundamental_M(K, t), want)

    @given(K=any_curvatures(), times=positive_grids)
    def test_S_from_M_stack(self, K, times):
        Ns = S_from_M(fundamental_M(K, times))
        assert len(Ns) == len(times)
        for t, N in zip(times, Ns):
            want = _reference_S_from_M(_reference_fundamental_M(K, t)).entries
            _assert_bitwise_equal(N.entries, want)

    @given(K=any_curvatures(), times=positive_grids)
    def test_exponential_route_residual(self, K, times):
        got = exponential_route_residual(K, fundamental_M(K, times))
        assert got == _reference_exponential_route_residual(K, times)

    @given(K=any_curvatures(), times=positive_grids, stride=st.integers(1, 4))
    def test_residual_defect(self, K, times, stride):
        trajectory = integrate_S(K, max(times), eval_times=times)[::stride]
        assert residual_defect(K, trajectory) == _reference_residual_defect(K, trajectory)

    @given(K=st.one_of(zero_curvatures, any_curvatures()), times=positive_grids)
    def test_integrate_S_step_loop(self, K, times):
        got = integrate_S(K, max(times), eval_times=times)
        want = _reference_integrate_S(K, max(times), 1e-10, times)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, S), (_, S_ref) in zip(got, want):
            _assert_bitwise_equal(S.entries, S_ref.entries)

    @given(K=st.one_of(zero_curvatures, any_curvatures()), times=time_sets())
    def test_bound_N_grid(self, K, times):
        late = [t for t in times if t >= T_MIN_DEFAULT]
        trajectory = integrate_S(K, max(late), eval_times=late) if late else []
        got = bound_N(K, times)
        assert len(got) == len(times)
        for N, want in zip(got, _reference_bound_N(K, times, trajectory)):
            _assert_bitwise_equal(N.entries, want.entries)
        one = bound_N(K, times[0])  # a scalar time is the one-time grid
        _assert_bitwise_equal(one.entries, bound_N(K, times[:1])[0].entries)

    @pytest.mark.parametrize("grid, first_bad", [([0.5, 1.0, 1.5], "0.5 "),
                                                 ([1.5, 1.0, 0.5], "1 ")])
    def test_first_singular_time_in_grid_order_raises(self, grid, first_bad):
        # S(t) is zeroed at t = 0.5 and t = 1.0 of a real trajectory
        K = CurvatureBound(k1=1.0, k2=2.0, n=1)
        trajectory = [
            (t, BlockSym2n(np.zeros((2, 2))) if t in (0.5, 1.0) else S)
            for t, S in integrate_S(K, 1.5, eval_times=grid)
        ]
        with pytest.raises(SingularityError, match=f"at t={first_bad}"):
            bound_N(K, grid, trajectory=trajectory)

    @pytest.mark.parametrize("bad_at", [0, 2, 4])
    def test_one_time_over_the_cap_raises_overflow(self, bad_at):
        K = CurvatureBound(k1=0.0, k2=400.0, n=1)
        times = [0.1, 0.5, 0.0, 1.0]
        times.insert(bad_at, 50.0)
        with pytest.raises(OverflowError, match="cap"):
            fundamental_M(K, times)

    @pytest.mark.parametrize("zero_at", [0, 1, 3])
    def test_one_singular_M3_raises_singularity(self, zero_at):
        # M(0) is the identity, whose M3 block is zero
        times = [0.3, 1.0, 2.0]
        times.insert(zero_at, 0.0)
        with pytest.raises(SingularityError):
            S_from_M(fundamental_M(CurvatureBound(k1=1.0, k2=2.0, n=2), times))


class TestNumpyRoutesMatchScipy:
    """The package's numpy exponential and stationary routes against scipy."""

    @given(K=any_curvatures(), times=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=6))
    def test_fundamental_M_matches_scipy_expm(self, K, times):
        H = hamiltonian_matrix(K)
        for t, M in zip(times, fundamental_M(K, times)):
            want = expm(t * H)
            assert np.abs(M - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 2])
    def test_fundamental_M_at_zero_is_the_identity(self, n):
        K = CurvatureBound(k1=1.0, k2=2.0, n=n)
        _assert_bitwise_equal(fundamental_M(K, 0.0), np.eye(4 * n))
        _assert_bitwise_equal(fundamental_M(K, [0.5, 0.0])[1], np.eye(4 * n))

    # CASE2 pairs (k1 = k2^2 / 2, where the Hamiltonian's stable eigenvalue
    # is defective) and the ends of the range
    @example(k1=2.0, k2=2.0, n=1)
    @example(k1=2.0, k2=2.0, n=2)
    @example(k1=5.077713160305397, k2=3.1867579639205097, n=2)
    @example(k1=1e-3, k2=1.0, n=1)
    @example(k1=1e-3, k2=1.0, n=2)
    @example(k1=60.0, k2=2.0, n=1)
    @example(k1=60.0, k2=2.0, n=2)
    @given(
        k1=st.floats(1e-3, 60.0),
        k2=st.one_of(st.floats(0.0, 60.0), st.just(None)),
        n=st.sampled_from((1, 2)),
    )
    def test_stationary_N_matches_scipy_are(self, k1, k2, n):
        if k2 is None:  # on the CASE2 curve
            k2 = (2.0 * k1) ** 0.5
        K = CurvatureBound(k1=k1, k2=k2, n=n)
        sp = build_structural(n)
        B = np.vstack([np.zeros((n, n)), np.eye(n)])
        want = solve_continuous_are(sp.C, B, K.K, 0.5 * np.eye(n))
        X = -stationary_N(K).entries
        assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()
        residual = sp.C.T @ X + X @ sp.C - X @ sp.D @ X + K.K
        scale = np.abs(K.K).max() + 2.0 * np.abs(X).max() ** 2
        assert np.abs(residual).max() <= 1e-14 * scale
