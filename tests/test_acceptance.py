"""Acceptance gate: one test per primary capability, stated tolerances.

Each test prints one summary line with its measured worst value and
wall time; the suite is deterministic (fixed seeds, no environment
dependence beyond numpy; scipy is the test oracle).
"""

import time

import numpy as np

from harnack_forge.closed_forms import assemble_bound, eval_sfuncs, errata_csv, reconcile
from harnack_forge.control_cost import (
    ControlProblem,
    energy_cost,
    harnack_rhs,
    transcribe_cost,
    verify_harnack_kernel,
)
from harnack_forge.gaussian_kernel import (
    free_covariance,
    grid_density,
    kernel_state,
    log_hessian,
    sharpness_gap,
)
from harnack_forge.kinetic_pde import (
    QuadraticPotential,
    ZeroPotential,
    curvature_of,
    evolve,
    kernel_field,
    verify_matrix_harnack,
    verify_scalar_harnack,
)
from harnack_forge.riccati_engine import (
    CurvatureBound,
    S_from_M,
    bound_N,
    build_structural,
    comparison_check,
    fundamental_M,
    integrate_S,
)

# regime representatives: one pair per closed-form case
REGIME_PAIRS = ((1.0, 2.0), (2.0, 2.0), (1.0, 0.5), (0.0, 1.0), (0.0, 0.0))

ANCHOR_N1 = np.array([[-6.0, 3.0], [3.0, -2.0]])


def test_criterion_1_sharpness_equality_case():
    start = time.monotonic()
    worst = 0.0
    for n in (1, 2):
        zero = [0.0] * n
        for k in range(1, 21):
            t = 0.1 * k
            worst = max(worst, sharpness_gap(kernel_state(zero, zero, t)))
    anchor_lhs = log_hessian(kernel_state(0.0, 0.0, 1.0)).entries
    anchor_rhs = bound_N(CurvatureBound(k1=0.0, k2=0.0, n=1), 1.0).entries
    elapsed = time.monotonic() - start
    assert np.abs(anchor_lhs - ANCHOR_N1).max() <= 1e-8
    assert np.abs(anchor_rhs - ANCHOR_N1).max() <= 1e-8
    assert worst <= 1e-8, worst
    assert elapsed < 1.0, elapsed
    print(f"criterion 1 (sharpness): PASS, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_five_regime_oracle_agreement():
    start = time.monotonic()
    worst = 0.0
    for k1, k2 in REGIME_PAIRS:
        K = CurvatureBound(k1=k1, k2=k2, n=1)
        for t in np.linspace(0.1, 2.0, 20):
            closed = assemble_bound(eval_sfuncs(k1, k2, t)).entries
            oracle = bound_N(K, t).entries
            worst = max(worst, np.abs(closed - oracle).max() / np.abs(oracle).max())
    elapsed = time.monotonic() - start
    assert worst <= 1e-6, worst
    assert elapsed < 10.0, elapsed
    print(f"criterion 2 (regimes): PASS, worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_riccati_sign_and_comparison():
    start = time.monotonic()
    eval_ts = np.linspace(0.2, 2.0, 10)
    sp_cache = {}

    def worst_eigs(K):
        sp = sp_cache.setdefault(K.n, build_structural(K.n))
        wS = wSdot = -np.inf
        for t, S in integrate_S(K, 2.0, eval_times=eval_ts):
            if t == 0.0:
                continue
            A = S.entries
            wS = max(wS, float(np.linalg.eigvalsh(A)[-1]))
            rhs = -sp.C @ A - A @ sp.C.T - sp.D + A @ K.K @ A
            rhs = 0.5 * (rhs + rhs.T)
            wSdot = max(wSdot, float(np.linalg.eigvalsh(rhs)[-1]))
        return wS, wSdot

    worst_S = worst_dS = -np.inf
    rng = np.random.default_rng(101)
    n_pairs = 0
    for n in (1, 2):
        for _ in range(5):
            G = rng.normal(size=(2 * n, 2 * n))
            A = G.T @ G
            H = rng.normal(size=(2 * n, 2 * n))
            B = A + H.T @ H
            small, large = CurvatureBound(matrix=A), CurvatureBound(matrix=B)
            rep = comparison_check(small, large, [0.5, 1.0, 2.0])
            assert rep.status == "ok" and rep.ordering_holds, rep.worst_violation
            n_pairs += 1
            for K in (small, large):
                a, b = worst_eigs(K)
                worst_S, worst_dS = max(worst_S, a), max(worst_dS, b)
    for k1, k2 in REGIME_PAIRS:
        a, b = worst_eigs(CurvatureBound(k1=k1, k2=k2, n=1))
        worst_S, worst_dS = max(worst_S, a), max(worst_dS, b)
    elapsed = time.monotonic() - start
    assert n_pairs == 10
    assert worst_S <= 1e-8, worst_S
    assert worst_dS <= 1e-8, worst_dS
    assert elapsed < 10.0, elapsed
    print(
        f"criterion 3 (sign/monotone): PASS, max eig S {worst_S:.2e}, "
        f"max eig dS {worst_dS:.2e}, {elapsed:.2f}s"
    )


def test_criterion_4_fundamental_matrix_fixture_and_dual_route():
    start = time.monotonic()
    K0 = CurvatureBound(k1=0.0, k2=0.0, n=1)
    worst_fix = 0.0
    for t in (0.5, 1.0, 2.0):
        fixture = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [-t, 1.0, 0.0, 0.0],
                [t**3 / 3.0, -(t**2), 1.0, t],
                [t**2, -2.0 * t, 0.0, 1.0],
            ]
        )
        worst_fix = max(worst_fix, np.abs(fundamental_M(K0, t) - fixture).max())
    worst_dual = 0.0
    for k1, k2 in REGIME_PAIRS:
        K = CurvatureBound(k1=k1, k2=k2, n=1)
        for t in (0.5, 1.0, 2.0):
            via_exp = S_from_M(fundamental_M(K, t)).entries
            via_ode = bound_N(K, t, tol=1e-11).entries
            rel = np.abs(via_exp - via_ode).max() / (1.0 + np.abs(via_exp).max())
            worst_dual = max(worst_dual, rel)
    elapsed = time.monotonic() - start
    assert worst_fix <= 1e-12, worst_fix
    assert worst_dual <= 1e-7, worst_dual
    assert elapsed < 5.0, elapsed
    print(
        f"criterion 4 (fundamental matrix): PASS, fixture {worst_fix:.2e}, "
        f"dual route {worst_dual:.2e}, {elapsed:.2f}s"
    )


def test_criterion_5_control_cost_identity_and_transcription():
    start = time.monotonic()
    # closed form vs half the kernel quadratic form on a 5x5 endpoint grid
    worst_id = 0.0
    grid = np.linspace(-2.0, 2.0, 5)
    for tau in (0.5, 1.0, 2.0):
        Sinv = np.linalg.inv(free_covariance(tau, 1))
        for x1 in grid:
            for v1 in grid:
                prob = ControlProblem.make(0.0, tau, [0.0], [0.0], [x1], [v1])
                d = np.array([x1, v1])
                direct = 0.5 * float(d @ Sinv @ d)
                worst_id = max(worst_id, abs(energy_cost(prob) - direct))
    # exact anchors
    anchor_a = energy_cost(ControlProblem.make(0, 1, [0], [0], [1], [0]))
    anchor_b = energy_cost(ControlProblem.make(0, 1, [0], [0], [0], [1]))
    # transcription against the closed form on 50 seeded pairs
    rng = np.random.default_rng(0)
    worst_tr = 0.0
    for _ in range(50):
        z = rng.uniform(-2, 2, size=4)
        prob = ControlProblem.make(0.0, 1.0, [z[0]], [z[1]], [z[2]], [z[3]])
        e = energy_cost(prob)
        c = transcribe_cost(prob, m=32).cost
        worst_tr = max(worst_tr, abs(c - e) / max(1.0, e))
    elapsed = time.monotonic() - start
    assert worst_id <= 1e-10, worst_id
    assert abs(anchor_a - 3.0) <= 1e-12 and abs(anchor_b - 1.0) <= 1e-12
    assert worst_tr <= 1e-3, worst_tr
    assert elapsed < 30.0, elapsed
    print(
        f"criterion 5 (control cost): PASS, identity {worst_id:.2e}, "
        f"transcription {worst_tr:.2e}, {elapsed:.2f}s"
    )


def test_criterion_6_integrated_harnack_on_kernel():
    start = time.monotonic()
    worst_ratio = np.inf
    worst_eq = 0.0
    for s, t in ((1.0, 2.0), (0.5, 0.6)):
        rep = verify_harnack_kernel(s, t, n_pairs=1000, seed=0, box=3.0)
        worst_ratio = min(worst_ratio, rep.min_ratio)
        worst_eq = max(worst_eq, rep.equality_gap)
    # mean-to-mean anchor at (1, 2): both sides are exactly 1/4
    lhs = np.sqrt(
        np.linalg.det(free_covariance(1.0)) / np.linalg.det(free_covariance(2.0))
    )
    rhs = harnack_rhs(1.0, 2.0, cost=0.0, n=1)
    elapsed = time.monotonic() - start
    assert abs(lhs - 0.25) <= 1e-10
    assert abs(rhs - 0.25) <= 1e-10
    assert worst_ratio >= 1.0 - 1e-6, worst_ratio
    assert worst_eq <= 1e-10, worst_eq
    assert elapsed < 10.0, elapsed
    print(
        f"criterion 6 (integrated): PASS, min ratio {worst_ratio:.4f}, "
        f"equality gap {worst_eq:.2e}, {elapsed:.2f}s"
    )


def test_criterion_7_pde_harnack_desk_scale():
    start = time.monotonic()
    cases = (
        (QuadraticPotential(q_vv=1.0), (0.0, 0.5)),
        (QuadraticPotential(q_xv=1.0), (0.5, 1.0)),
    )
    margins = {}
    for potential, (k1, k2) in cases:
        K = curvature_of(potential)
        assert abs(K.k1 - k1) < 1e-6 and abs(K.k2 - k2) < 1e-6, (K.k1, K.k2)
        field = kernel_field(0.2, extent=4.0, n=256, sigma2=1.0)
        out, rep = evolve(field, potential, 0.6, scheme="lie")
        assert rep.ledger_discrepancy < 1e-10
        half = (-2.0, 2.0, -2.0, 2.0)
        mrep = verify_matrix_harnack(
            out, potential, curvature=K, region=half, tolerance=0.1
        )
        srep = verify_scalar_harnack(
            out, potential, curvature=K, region=half, tolerance=0.1
        )
        assert mrep.passed and mrep.min_margin >= -0.1, mrep.min_margin
        assert srep.passed and srep.min_margin >= -0.1, srep.min_margin
        margins[(k1, k2)] = (mrep.min_margin, srep.min_margin)
    # negative control: shifted bound on the exact free kernel must fail
    neg = verify_matrix_harnack(
        kernel_field(1.0, extent=6.0, n=128),
        ZeroPotential(),
        tolerance=0.1,
        bound_shift=0.5,
    )
    elapsed = time.monotonic() - start
    assert not neg.passed and neg.min_margin < -0.1
    assert elapsed < 300.0, elapsed
    text = ", ".join(
        f"({k1},{k2}): matrix {m:+.3f} scalar {s:+.3f}"
        for (k1, k2), (m, s) in margins.items()
    )
    print(f"criterion 7 (pde harnack): PASS, {text}, {elapsed:.1f}s")


def test_criterion_8_pde_self_convergence():
    start = time.monotonic()
    errors = []
    for n in (64, 128, 256):
        field = kernel_field(0.2, extent=4.0, n=n)
        out, rep = evolve(field, ZeroPotential(), 0.4, scheme="strang")
        assert rep.ledger_discrepancy < 1e-10
        exact = grid_density(kernel_state(0.0, 0.0, 0.4), out.xs, out.vs)
        errors.append(float(np.abs(out.rho - exact).sum() * out.dx * out.dv))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    elapsed = time.monotonic() - start
    assert min(ratios) >= 1.7, (errors, ratios)
    assert elapsed < 180.0, elapsed
    print(
        f"criterion 8 (convergence): PASS, L1 "
        f"{errors[0]:.4f}/{errors[1]:.4f}/{errors[2]:.4f}, "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}, {elapsed:.1f}s"
    )


def test_criterion_9_errata_reconciliation():
    start = time.monotonic()
    rows = reconcile(0.0, 0.0, [0.5, 1.0, 2.0])
    blocks = {r.block for r in rows}
    assert blocks == {"xx", "xv"}, blocks  # (v,v) agrees exactly
    for r in rows:
        assert abs(r.ratio - 0.5) <= 1e-9, (r.block, r.t, r.ratio)
    # deterministic generation, byte for byte
    again = errata_csv(reconcile(0.0, 0.0, [0.5, 1.0, 2.0]))
    assert errata_csv(rows) == again
    elapsed = time.monotonic() - start
    print(
        f"criterion 9 (errata): PASS, {len(rows)} rows, "
        f"factor-1/2 exact, {elapsed:.2f}s"
    )
