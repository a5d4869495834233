"""Control cost tests: closed form, steering, transcription, Harnack sweep."""

import numpy as np
import pytest

from harnack_forge.control_cost import (
    ENDPOINT_TOL,
    ControlPath,
    ControlProblem,
    cost_csv,
    cost_identity_gap,
    energy_cost,
    harnack_rhs,
    hermite_control,
    log_harnack_rhs,
    steer_exact,
    transcribe_cost,
    verify_harnack_kernel,
)
from harnack_forge.riccati_engine import InputError


def problem(s, t, x0, v0, x1, v1):
    return ControlProblem.make(s, t, x0, v0, x1, v1)


class TestEnergyCost:
    def test_unit_displacement_anchors(self):
        # W(1)^{-1} = [[12, -6], [-6, 4]], so the quarter-forms are 3 and 1
        assert energy_cost(problem(0, 1, [0], [0], [1], [0])) == pytest.approx(3.0)
        assert energy_cost(problem(0, 1, [0], [0], [0], [1])) == pytest.approx(1.0)

    def test_monomial_scaling(self):
        # pure position: 3 dx^2 / tau^3; pure velocity: dv^2 / tau
        for tau in (0.5, 1.0, 2.0):
            c = energy_cost(problem(0, tau, [0], [0], [0.7], [0]))
            assert c == pytest.approx(3 * 0.7**2 / tau**3)
            c = energy_cost(problem(0, tau, [0], [0], [0], [-1.3]))
            assert c == pytest.approx(1.3**2 / tau)

    def test_free_streaming_costs_nothing(self):
        # endpoints on the zero-control flow line
        assert energy_cost(problem(0, 2, [1], [0.5], [2.0], [0.5])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_time_translation_invariance(self):
        a = energy_cost(problem(0.0, 1.5, [0.2], [0.1], [1.0], [-0.4]))
        b = energy_cost(problem(3.0, 4.5, [0.2], [0.1], [1.0], [-0.4]))
        assert a == pytest.approx(b, rel=1e-14)

    def test_dimensions_decouple(self):
        cx = energy_cost(problem(0, 1, [0.3], [0.0], [1.0], [0.2]))
        cy = energy_cost(problem(0, 1, [-0.5], [0.4], [0.1], [0.0]))
        both = energy_cost(
            problem(0, 1, [0.3, -0.5], [0.0, 0.4], [1.0, 0.1], [0.2, 0.0])
        )
        assert both == pytest.approx(cx + cy, rel=1e-13)

    @pytest.mark.parametrize("t", [1e300, 1e-300])
    def test_unrepresentable_gramian_is_input_error(self, t):
        # tau^3 overflows, or underflows to 0 and leaves W(tau) singular
        with pytest.raises(InputError, match="tau="):
            energy_cost(problem(0.0, t, [0], [0], [1], [0]))

    def test_gramian_vs_kernel_identity(self):
        for tau in (0.5, 1.0, 2.0):
            for n in (1, 2):
                assert cost_identity_gap(tau, n) < 1e-10

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="t > s"):
            ControlProblem.make(1.0, 1.0, [0], [0], [1], [1])
        with pytest.raises(ValueError, match="shape"):
            ControlProblem.make(0.0, 1.0, [0, 0], [0], [1], [1])

    @pytest.mark.parametrize("field", ["s", "t", "x0", "v0", "x1", "v1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_problem_rejects_non_finite_fields(self, field, bad):
        args = {"s": 0.0, "t": 1.0, "x0": [0.0, 0.0], "v0": [0.0, 0.0],
                "x1": [1.0, 0.0], "v1": [0.0, 0.0]}
        args[field] = bad if field in ("s", "t") else [0.5, bad]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ControlProblem.make(**args)


class TestControlPath:
    def test_exact_segment_flow(self):
        # one segment: x = u t^2 / 2 = 0.25, v = 1
        x, v = ControlPath([0.0], [0.0], [0.5], [[2.0]]).endpoint()
        assert x[0] == pytest.approx(0.25)
        assert v[0] == pytest.approx(1.0)
        path = ControlPath([0.0], [0.0], [0.5, 0.5], [[2.0], [-2.0]])
        ex, ev = path.endpoint()
        # second segment: x = 0.25 + 0.5*1 - 2*0.125 = 0.5, v = 0
        assert ex[0] == pytest.approx(0.5)
        assert ev[0] == pytest.approx(0.0)

    def test_energy_formula(self):
        path = ControlPath([0.0], [0.0], [0.5, 0.5], [[2.0], [-2.0]])
        assert path.energy() == pytest.approx(0.25 * (0.5 * 4 + 0.5 * 4))

    def test_validation(self):
        with pytest.raises(ValueError, match="durations"):
            ControlPath([0.0], [0.0], [0.5, -0.5], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="shape"):
            ControlPath([0.0], [0.0], [0.5], [[1.0], [1.0]])


class TestSteering:
    def test_endpoint_exact_and_energy_above_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = rng.uniform(-2, 2, size=4)
            prob = problem(0.0, 1.0, [z[0]], [z[1]], [z[2]], [z[3]])
            path = steer_exact(prob, m=8)
            ex, ev = path.endpoint()
            assert abs(ex[0] - prob.x1[0]) < 1e-9
            assert abs(ev[0] - prob.v1[0]) < 1e-9
            # a feasible discrete path can never beat the continuous inf
            assert path.energy() >= energy_cost(prob) - 1e-12

    def test_energy_converges_with_refinement(self):
        # the endpoint correction concentrates the O(h^2) sampling drift
        # into two segments, so the excess energy decays at first order;
        # exact feasibility is the contract here, optimality is not
        prob = problem(0.0, 1.0, [0.0], [0.0], [1.0], [-1.0])
        opt = energy_cost(prob)
        e8 = steer_exact(prob, m=8).energy() - opt
        e32 = steer_exact(prob, m=32).energy() - opt
        assert e8 >= e32 >= -1e-12
        assert e8 / e32 > 3.0
        assert e32 < 0.01 * max(1.0, opt)

    def test_hermite_control_is_linear_and_optimal(self):
        # the optimal control is linear in time; its path energy equals
        # the closed form when integrated exactly (2-segment midpoint
        # sampling is exact for linear u only after endpoint correction)
        prob = problem(0.0, 1.0, [0.2], [-0.1], [0.5], [0.3])
        u0 = hermite_control(prob, 0.0)
        u1 = hermite_control(prob, 1.0)
        umid = hermite_control(prob, 0.5)
        assert umid[0] == pytest.approx(0.5 * (u0[0] + u1[0]))

    def test_rejects_single_segment(self):
        with pytest.raises(ValueError, match="2 segments"):
            steer_exact(problem(0, 1, [0], [0], [1], [1]), m=1)

    @pytest.mark.parametrize("route", [steer_exact, transcribe_cost])
    @pytest.mark.parametrize("m", [2.5, 8.0, "8", None])
    def test_rejects_non_integer_m(self, route, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            route(problem(0, 1, [0], [0], [1], [1]), m=m)


class TestTranscription:
    def test_zero_h_approaches_energy_cost_from_above(self):
        # the discrete optimum exceeds the continuous inf by O(1/m^2)
        rng = np.random.default_rng(14)
        for _ in range(5):
            z = rng.uniform(-1.5, 1.5, size=4)
            prob = problem(0.0, 1.0, [z[0]], [z[1]], [z[2]], [z[3]])
            res = transcribe_cost(prob, m=16)
            opt = energy_cost(prob)
            assert res.status == "ok"
            assert -1e-12 <= res.cost - opt <= 0.02 * (1.0 + opt)

    def test_constant_h_shifts_cost_exactly(self):
        # int h = c tau for every path, so the quadratic solve sees the same
        # landscape shifted by -c tau; exercises the quadrature weights
        prob = problem(0.0, 1.5, [0.1], [0.0], [0.8], [0.2])
        base = transcribe_cost(prob, m=12).cost
        shifted = transcribe_cost(prob, m=12, h=(0.7, 0, 0)).cost
        assert shifted == pytest.approx(base - 0.7 * 1.5, abs=1e-8)

    def test_second_order_refinement(self):
        # h = -(x^2 + v^2) / 4
        prob = problem(0.0, 1.0, [0.0], [0.5], [1.0], [-0.5])
        costs = {
            m: transcribe_cost(prob, m=m, h=(0, 0, np.diag([-0.5, -0.5]))).cost
            for m in (12, 24, 48)
        }
        # feasible sets nest under doubling, so costs decrease
        assert costs[24] <= costs[12] + 1e-12
        assert costs[48] <= costs[24] + 1e-12
        shrink = (costs[12] - costs[24]) / (costs[24] - costs[48])
        assert 2.5 < shrink < 7.0

    def test_unbounded_below_detected(self):
        # the clamped-beam Rayleigh quotient bounds the energy term by
        # (4.73)^4/4 ~ 125 per unit of int x^2 on tau = 1, so h = 200 x^2
        # makes the infimum -inf; the zero control is a stationary point
        # there, so only the sign of the Hessian can tell
        prob = problem(0.0, 1.0, [0.0], [0.0], [0.0], [0.0])
        res = transcribe_cost(prob, m=16, h=(0, 0, np.diag([400.0, 0.0])))
        assert res.status == "unbounded-below"
        assert res.cost == -np.inf
        assert res.path is None
        assert (res.n_converged, res.n_starts) == (0, 1)

    def test_demo_problem_cost(self):
        # h = -(x^2 + v^2) / 4 at m = 32, as priced by the former L-BFGS-B
        # route (one start and five gave this value to the bit)
        prob = problem(0.0, 1.0, [0.0], [0.0], [1.0], [0.0])
        res = transcribe_cost(prob, m=32, h=(0, 0, np.diag([-0.5, -0.5])))
        assert res.status == "ok" and (res.n_converged, res.n_starts) == (1, 1)
        assert res.cost == pytest.approx(3.3953828333009506, rel=1e-12)
        ex, ev = res.path.endpoint()
        assert abs(ex[0] - 1.0) <= ENDPOINT_TOL and abs(ev[0]) <= ENDPOINT_TOL

    @pytest.mark.parametrize("h", [
        (0, 0), 5, ([1.0], 0, 0), (0, [1.0, 2.0, 3.0], 0), (0, 0, np.eye(3)),
        (np.nan, 0, 0), (0, [0.0, np.inf], 0), (0, 0, [[0.0, 1.0], [0.0, 0.0]]),
    ])
    def test_rejects_malformed_h(self, h):
        with pytest.raises(ValueError, match="^h"):
            transcribe_cost(problem(0, 1, [0], [0], [1], [0]), m=8, h=h)

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError, match="2 segments"):
            transcribe_cost(problem(0, 1, [0], [0], [1], [1]), m=1)


class TestHarnackSweep:
    def test_rhs_log_form(self):
        # free regime: s0 = t^4, so the prefactor is (t/s)^{-2n}
        lg = log_harnack_rhs(1.0, 2.0, cost=0.0, n=1)
        assert lg == pytest.approx(-2.0 * np.log(2.0))
        assert harnack_rhs(1.0, 2.0, cost=0.0, n=1) == pytest.approx(0.25)

    def test_potential_terms_enter(self):
        lg0 = log_harnack_rhs(1.0, 2.0, cost=0.3)
        lg1 = log_harnack_rhs(1.0, 2.0, cost=0.3, U_start=2.0, U_end=1.0)
        assert lg1 - lg0 == pytest.approx(-0.5)

    def test_kernel_inequality_holds(self):
        rep = verify_harnack_kernel(1.0, 2.0, n_pairs=200, seed=3)
        assert rep.min_ratio >= 1.0 - 1e-6
        assert rep.equality_gap < 1e-10

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="0 < s < t"):
            verify_harnack_kernel(2.0, 1.0)

    @pytest.mark.parametrize(
        "s, t, name", [(1.0, np.inf, "t"), (1.0, np.nan, "t"), (np.nan, 2.0, "s"),
                       (-np.inf, 2.0, "s")]
    )
    def test_non_finite_window_rejected_by_name(self, s, t, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            verify_harnack_kernel(s, t, n_pairs=4)

    @pytest.mark.parametrize("box", [np.nan, np.inf, 0.0, -1.0, 1e308])
    def test_invalid_box_rejected(self, box):
        with pytest.raises(ValueError, match="box"):
            verify_harnack_kernel(1.0, 2.0, n_pairs=4, box=box)


def test_cost_csv_header_and_vector_fields():
    prob = problem(0.0, 1.0, [0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
    rows = [
        (0.0, 1.0, prob.x0, prob.v0, prob.x1, prob.v1, 3.0, "closed-form", 0, 0.0)
    ]
    text = cost_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "s,t,x0,v0,x1,v1,cost,method,m,gap"
    assert "0.0;1.0" in lines[1]


def per_cell_cost_csv(rows):
    """cost_csv as it was written cell by cell: one array round trip per
    endpoint, then one join of every row; the reference for the batched
    writer."""
    header = ["s", "t", "x0", "v0", "x1", "v1", "cost", "method", "m", "gap"]
    lines = [",".join(header)]
    for s, t, x0, v0, x1, v1, cost, method, m, gap in rows:
        ends = [";".join(map(repr, np.asarray(a, dtype=float).ravel().tolist()))
                for a in (x0, v0, x1, v1)]
        lines.append(",".join([repr(float(s)), repr(float(t)), *ends,
                               repr(float(cost)), method, str(m), repr(float(gap))]))
    return "\n".join(lines + [""])


@pytest.mark.parametrize("sizes", [[], [1] * 7, [3] * 5, [1, 2, 3, 2], [0, 0]])
def test_cost_csv_equals_per_cell_formatting(sizes):
    # scalar endpoints, equal-size vectors, mixed sizes and no rows
    rng = np.random.default_rng(len(sizes))
    rows = []
    for i, k in enumerate(sizes):
        ends = [rng.uniform(-2, 2, k) for _ in range(4)]
        if k == 1 and i % 2:
            ends = [float(a[0]) for a in ends]  # plain floats, as the campaign passes
        rows.append((0.0, 1.0, *ends, float(rng.uniform()), "transcribe", 32, 1e-300))
    assert cost_csv(rows) == per_cell_cost_csv(rows)
