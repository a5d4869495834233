"""Property tests of the single-pass bound over random curvatures and times."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harnack_forge.riccati_engine import (
    T_MIN_DEFAULT,
    CurvatureBound,
    S_from_M,
    bound_N,
    bound_curve,
    comparison_check,
    fundamental_M,
    integrate_S,
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
