"""Closed-form regime tests against the matrix-exponential oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harnack_forge.closed_forms import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CASE5,
    DomainError,
    ORACLE_CALIBRATED,
    PRINTED,
    assemble_bound,
    classify,
    errata_csv,
    eval_sfuncs,
    printed_sfuncs,
    reconcile,
)
from harnack_forge.riccati_engine import CurvatureBound, S_from_M, fundamental_M

# one representative pair per regime
REGIME_PAIRS = {
    CASE1: (1.0, 2.0),
    CASE2: (2.0, 2.0),
    CASE3: (4.0, 1.0),
    CASE4: (0.0, 2.0),
    CASE5: (0.0, 0.0),
}


# (k1, k2) anywhere in [0, 3]^2, or a log-uniform relative distance
# delta in [1e-14, 1e-1] below (CASE1 side) or above (CASE3 side) the
# CASE2 boundary k2^2 = 2 k1, where the regime formulas cancel most
near_boundary = st.builds(
    lambda k2, exponent, side: (k2 * k2 * (1.0 - side * 10.0**exponent) / 2.0, k2),
    st.floats(0.05, 3.0),
    st.floats(-14.0, -1.0),
    st.sampled_from((1.0, -1.0)),
)
curvature_pairs = st.one_of(
    near_boundary, st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
)

# (k1, k2) with each rate 0 or in [1e-2, 50], covering all five regimes:
# on the parabola k2^2 = 2 k1 (CASE2), or two independent draws, which
# give CASE5 (both 0), CASE4 (k1 = 0), CASE1 or CASE3
rate = st.one_of(st.just(0.0), st.floats(1e-2, 50.0))
regime_pairs = st.one_of(
    st.floats(math.sqrt(2e-2), 10.0).map(lambda k2: (k2 * k2 / 2.0, k2)),
    st.tuples(rate, rate),
)


class TestClassify:
    def test_representative_pairs(self):
        for tag, (k1, k2) in REGIME_PAIRS.items():
            assert classify(k1, k2).tag == tag

    def test_boundary_tolerance(self):
        # within EQ_TOL_DEFAULT of the parabola k2^2 = 2 k1 counts as CASE2
        assert classify(2.0 - 1e-14, 2.0).tag == CASE2
        assert classify(2.0 - 1e-8, 2.0).tag == CASE1
        assert classify(2.0 + 1e-8, 2.0).tag == CASE3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            classify(-1.0, 0.0)

    @pytest.mark.parametrize(
        "k1, k2", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_pair_rejected_by_name(self, k1, k2):
        pair = re.escape(f"({k1}, {k2})")
        with pytest.raises(ValueError, match=f"finite, got {pair}"):
            classify(k1, k2)
        # the pair is refused before any closed form could cancel
        with pytest.raises(ValueError, match=f"finite, got {pair}") as err:
            eval_sfuncs(k1, k2, 1.0)
        assert not isinstance(err.value, DomainError)

    @pytest.mark.parametrize("k2", [1e-200, 1e-300, 5e-324])
    def test_k1_zero_is_case4_when_k2_squared_underflows(self, k2):
        assert k2 * k2 == 0.0
        regime = classify(0.0, k2)
        assert regime.tag == CASE4
        assert regime.params["beta"] == math.sqrt(k2 / 2.0)
        # this close to CASE5 the CASE4 s0 cancels to zero: the documented
        # DomainError, never a bare math-domain ValueError
        with pytest.raises(DomainError):
            eval_sfuncs(0.0, k2, 1.0)

    def test_cancelled_s0_inside_the_window_blames_precision(self):
        # t = 1 lies inside the validity window (0, inf), so the error must
        # not read as a window violation; it names the routes that still work
        with pytest.raises(DomainError, match="lost all precision") as err:
            eval_sfuncs(0.0, 1e-200, 1.0)
        assert "exponential route" in str(err.value)
        assert "Riccati route" in str(err.value)

    def test_spectral_params(self):
        r = classify(1.0, 2.0)
        assert r.params["lambda1"] == pytest.approx(math.sqrt(2 + math.sqrt(2)))
        assert r.params["lambda2"] == pytest.approx(math.sqrt(2 - math.sqrt(2)))
        assert classify(0.0, 2.0).params["beta"] == pytest.approx(1.0)
        assert classify(2.0, 2.0).params["lam"] == pytest.approx(math.sqrt(2.0))
        assert classify(0.0, 0.0).params == {}


class TestAgainstExponentialOracle:
    def test_all_regimes_on_time_grid(self):
        rng = np.random.default_rng(23)
        for k1, k2 in REGIME_PAIRS.values():
            K = CurvatureBound(k1=k1, k2=k2, n=1)
            for t in np.concatenate([[0.1, 1.0, 2.0], rng.uniform(0.1, 2.0, 7)]):
                sf = eval_sfuncs(k1, k2, t)
                got = assemble_bound(sf, n=1, normalization=ORACLE_CALIBRATED).entries
                want = S_from_M(fundamental_M(K, t)).entries
                rel = np.abs(got - want).max() / np.abs(want).max()
                assert rel < 1e-9, (k1, k2, t, rel)

    @given(pair=curvature_pairs, t=st.floats(0.1, 2.0))
    def test_closed_form_matches_oracle(self, pair, t):
        k1, k2 = pair
        got = assemble_bound(eval_sfuncs(k1, k2, t)).entries
        want = S_from_M(fundamental_M(CurvatureBound(k1=k1, k2=k2, n=1), t)).entries
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    # The closed forms cancel as the rates vanish (README, "closed forms
    # have no validity window"); the property test's 1e-9 bound fails here.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="vanishing-rate cancellation")
    @pytest.mark.parametrize(
        "k1, k2, t", [(0.0, 1e-12, 0.1), (1e-12, 1e-6, 0.1)], ids=[CASE4, CASE2]
    )
    def test_vanishing_rates_miss_the_oracle(self, k1, k2, t):
        got = assemble_bound(eval_sfuncs(k1, k2, t)).entries
        want = S_from_M(fundamental_M(CurvatureBound(k1=k1, k2=k2, n=1), t)).entries
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_block_scaling_with_n(self):
        sf = eval_sfuncs(1.0, 2.0, 0.8)
        B1 = assemble_bound(sf, n=1).entries
        B3 = assemble_bound(sf, n=3).entries
        assert np.allclose(B3[:3, :3], B1[0, 0] * np.eye(3))
        assert np.allclose(B3[:3, 3:], B1[0, 1] * np.eye(3))
        assert np.allclose(B3[3:, 3:], B1[1, 1] * np.eye(3))


class TestSFuncs:
    def test_free_case_polynomials(self):
        sf = eval_sfuncs(0.0, 0.0, 1.5)
        t = 1.5
        assert sf.s0 == pytest.approx(t**4)
        assert sf.s1 == pytest.approx(6 * t)
        assert sf.s2 == pytest.approx(3 * t**2)
        assert sf.s0dot == pytest.approx(4 * t**3)

    def test_s0dot_is_derivative_of_s0(self):
        # central difference check of the stated derivative, all regimes
        for k1, k2 in REGIME_PAIRS.values():
            for t in (0.3, 0.9, 1.7):
                h = 1e-6 * max(1.0, t)
                fd = (
                    eval_sfuncs(k1, k2, t + h).s0 - eval_sfuncs(k1, k2, t - h).s0
                ) / (2 * h)
                sf = eval_sfuncs(k1, k2, t)
                assert abs(fd - sf.s0dot) < 1e-5 * max(1.0, abs(sf.s0dot))

    def test_case2_is_limit_of_case1(self):
        # the regime boundary must be crossed without a jump
        t = 1.3
        at = assemble_bound(eval_sfuncs(2.0, 2.0, t)).entries
        near = assemble_bound(eval_sfuncs(2.0 - 1e-8, 2.0, t)).entries
        assert np.abs(at - near).max() / np.abs(at).max() < 1e-6

    def test_case3_small_time_quartic_law(self):
        k1, k2 = 4.0, 1.0
        m1, m2 = classify(k1, k2).params["mu1"], classify(k1, k2).params["mu2"]
        t = 0.02
        want = m1**2 * m2**2 * (m1**2 + m2**2) * t**4 / 12.0
        assert eval_sfuncs(k1, k2, t).s0 == pytest.approx(want, rel=1e-3)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            eval_sfuncs(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("tag", sorted(REGIME_PAIRS))
    def test_infinite_time_rejected(self, tag):
        # refused as t <= 0 is: CASE5's cap check would see 0 * inf = NaN
        # and let the time through, and CASE1-4's would call it a cap
        k1, k2 = REGIME_PAIRS[tag]
        for sfuncs in (eval_sfuncs, printed_sfuncs):
            with pytest.raises(ValueError, match="positive and finite, got inf") as err:
                sfuncs(k1, k2, math.inf)
            assert type(err.value) is ValueError

    def test_overflow_cap(self):
        with pytest.raises(OverflowError, match="cap"):
            eval_sfuncs(0.0, 800.0**2 / 2.0, 50.0)


@given(pair=regime_pairs, frac=st.floats(0.0, 1.0))
def test_s0_is_positive_on_the_whole_time_axis(pair, frac):
    # s0 > 0 for every t > 0 in every regime (the proofs are in the
    # eval_sfuncs docstring); sampled on t in [1e-2, min(20, 300 / rate)],
    # which keeps the fastest hyperbolic argument under the cap
    k1, k2 = pair
    fastest = max(classify(k1, k2).params.values(), default=0.0)
    t_hi = min(20.0, 300.0 / fastest) if fastest > 0 else 20.0
    t = 1e-2 + frac * (t_hi - 1e-2)
    assert eval_sfuncs(k1, k2, t).s0 > 0


class TestPrintedVersusOracle:
    def test_case4_divergence(self):
        # s1 and s2 flip sign outright; s0 differs in both sign and
        # hyperbolic argument, so it matches neither +s0 nor -s0
        sf_p = printed_sfuncs(0.0, 2.0, 1.0)
        sf_c = eval_sfuncs(0.0, 2.0, 1.0)
        assert sf_p.s1 == pytest.approx(-sf_c.s1)
        assert sf_p.s2 == pytest.approx(-sf_c.s2)
        assert abs(sf_p.s0 - sf_c.s0) > 1.0
        assert abs(sf_p.s0 + sf_c.s0) > 1.0

    def test_printed_matches_corrected_outside_case4(self):
        for tag, (k1, k2) in REGIME_PAIRS.items():
            if tag == CASE4:
                continue
            sf_p = printed_sfuncs(k1, k2, 0.7)
            sf_c = eval_sfuncs(k1, k2, 0.7)
            assert (sf_p.s0, sf_p.s1, sf_p.s2) == (sf_c.s0, sf_c.s1, sf_c.s2)

    def test_free_case_printed_normalization(self):
        # at t = 1 the printed global 1/2 gives [[-3, 1.5], [1.5, -2]]
        # while the oracle calibration gives [[-6, 3], [3, -2]]
        sf = eval_sfuncs(0.0, 0.0, 1.0)
        printed = assemble_bound(sf, normalization=PRINTED).entries
        oracle = assemble_bound(sf, normalization=ORACLE_CALIBRATED).entries
        assert np.allclose(printed, [[-3.0, 1.5], [1.5, -2.0]])
        assert np.allclose(oracle, [[-6.0, 3.0], [3.0, -2.0]])

    def test_bad_normalization_rejected(self):
        sf = eval_sfuncs(0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="normalization"):
            assemble_bound(sf, normalization="HALF")


class TestReconcile:
    def test_free_case_half_ratio(self):
        rows = reconcile(0.0, 0.0, [0.5, 1.0, 2.0])
        by_block = {}
        for r in rows:
            by_block.setdefault(r.block, []).append(r)
        # xx and xv disagree by exactly the factor 1/2; vv agrees
        assert "vv" not in by_block
        for block in ("xx", "xv"):
            assert len(by_block[block]) == 3
            for r in by_block[block]:
                assert abs(r.ratio - 0.5) < 1e-9

    def test_case4_rows_present(self):
        rows = reconcile(0.0, 2.0, [0.5, 1.0])
        assert rows, "printed CASE4 signs must disagree with the oracle"
        assert all(r.regime == CASE4 for r in rows)

    def test_agreeing_regimes_produce_no_rows(self):
        for tag in (CASE1, CASE2, CASE3):
            k1, k2 = REGIME_PAIRS[tag]
            assert reconcile(k1, k2, [0.5, 1.0, 2.0]) == []

    def test_deterministic(self):
        a = errata_csv(reconcile(0.0, 0.0, [0.5, 1.0, 2.0]))
        b = errata_csv(reconcile(0.0, 0.0, [0.5, 1.0, 2.0]))
        assert a == b

    def test_csv_header(self):
        text = errata_csv(reconcile(0.0, 0.0, [1.0]))
        assert text.split("\n")[0] == "regime,k1,k2,t,block,printed,oracle,ratio"
