"""Property tests of the Riccati bound routes over random curvatures and times."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from harnack_forge.riccati_engine import (
    EXP_ARG_CAP,
    T_MIN_DEFAULT,
    BlockSym2n,
    CurvatureBound,
    S_from_M,
    SingularityError,
    _riccati_rhs,
    bound_N,
    bound_curve,
    build_structural,
    comparison_check,
    exponential_route_residual,
    fundamental_M,
    hamiltonian_matrix,
    integrate_S,
    residual_defect,
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
    curve = bound_curve(K, times, tol=TOL)
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
        bound_curve(K, times + [bad])


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
    curve = [N.entries for N in bound_curve(K, late, tol=TOL)]
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


# Per-time forms of the exponential route and the re-integration audit:
# np.block assembly, one expm per time, a Python loop over times and
# over trajectory intervals.  The batched code in riccati_engine must
# reproduce them bit for bit.


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
    return expm(t * H)


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


def _reference_residual_defect(K, trajectory):
    C, D = _reference_structural(K.n)
    worst = 0.0
    for (t0, S0), (t1, S1) in zip(trajectory[:-1], trajectory[1:]):
        S = S0.entries.copy()
        h = (t1 - t0) / 8.0
        for _ in range(8):
            k1 = _riccati_rhs(S, C, D, K.K)
            k2 = _riccati_rhs(S + 0.5 * h * k1, C, D, K.K)
            k3 = _riccati_rhs(S + 0.5 * h * k2, C, D, K.K)
            k4 = _riccati_rhs(S + h * k3, C, D, K.K)
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
        got = exponential_route_residual(K, times)
        assert got == _reference_exponential_route_residual(K, times)

    @given(K=any_curvatures(), times=positive_grids, stride=st.integers(1, 4))
    def test_residual_defect(self, K, times, stride):
        trajectory = integrate_S(K, max(times), eval_times=times)[::stride]
        assert residual_defect(K, trajectory) == _reference_residual_defect(K, trajectory)

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
