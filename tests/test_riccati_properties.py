"""Property tests of the single-pass bound over random curvatures and times."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harnack_forge.riccati_engine import (
    T_MIN_DEFAULT,
    CurvatureBound,
    bound_N,
    bound_curve,
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
