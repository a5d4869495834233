"""Verification campaigns and the harnack-verify command line.

Each campaign exercises one capability end to end and writes a JSON
report plus full-precision CSV artifacts into the output directory.
Reports are deterministic for a fixed seed and configuration modulo the
timestamp field.

One record per campaign, in CAMPAIGNS, holds its keys with their
defaults, the rule its values must meet together, and its runner.

Exit codes: 0 all checks passed, 1 a numeric check failed, 2 usage
error (values of the wrong type, out of range or inconsistent with each
other, found while parsing, and values that a library routine refuses
as outside its domain with riccati_engine.InputError, which every
routine raises before any artifact is written, so an exit 2 leaves no
output directory behind), 3 internal error (anything else).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import _csv, closed_forms, control_cost, gaussian_kernel, kinetic_pde
from . import riccati_engine as ric

@dataclass
class CampaignConfig:
    """Resolved configuration for one campaign run."""

    name: str
    params: dict
    out_dir: str
    seed: int


@dataclass(frozen=True)
class _Campaign:
    """One campaign: its rule, its runner and its keys with their defaults.

    problem(params) says why values that passed the type and sign checks
    do not fit together (None if they do); rules that a library routine
    applies before any costly work (t1 > t0, n_grid, scheme, m) are left
    to it.  run(cfg) returns (metrics, artifact paths, passed).
    """

    problem: Callable[[dict], str | None]
    run: Callable[[CampaignConfig], tuple]
    defaults: dict


# Counts, times and scales (s and the curvatures k1, k2 may be 0).
POSITIVE_KEYS = {"n", "n_eval", "n_t", "n_grid", "n_pairs", "m", "t_end", "t_lo",
                 "t_hi", "t0", "t1", "t", "tol", "rel_tol", "tolerance", "extent",
                 "sigma2", "box"}
NON_NEGATIVE_KEYS = {"k1", "k2"}

# Every cost and log-density a control-cost or harnack-integrated draw
# produces is a quadratic form in the draw; a box keeps each form under
# FORM_CAP, which leaves a factor 2^64 under the largest float for the
# sums of forms and the transcription's sums of squared controls.
FORM_CAP = sys.float_info.max * 2.0**-64


def _write(cfg, name, text):
    if not os.path.isdir(cfg.out_dir):  # here, so a refused run makes none
        os.makedirs(cfg.out_dir, exist_ok=True)
    return _csv.write_artifact(os.path.join(cfg.out_dir, name), text)


@contextmanager
def _refused(p, keys, pair=None, times=None):
    """Re-raise an InputError from the block with the values of keys, the
    settings that chose the refused input, in front, then the curvature
    pair and, for a refused M3 block of a stack over times, its time."""
    try:
        yield
    except ric.InputError as exc:
        where = ", ".join(f"{key}={p[key]!r}" for key in keys)
        if pair is not None:
            where += f" for pair [{pair[0]!r}, {pair[1]!r}]"
        if isinstance(exc, ric.M3SingularityError) and times is not None:
            where += f" at t={float(times[exc.index]):.6g}"
        raise ric.InputError(f"{where}: {exc}") from exc


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _time_order_problem(p):
    """The t_lo <= t_hi rule of closed-form and kernel-sharpness."""
    if not p["t_lo"] <= p["t_hi"]:
        return f"needs t_lo <= t_hi, got t_lo={p['t_lo']!r}, t_hi={p['t_hi']!r}"
    return None


def _form_scale(tau, ax, av):
    """Bound on |d^T W(tau)^{-1} d| over |d_x| <= ax, |d_v| <= av.

    W(tau)^{-1} = [[12/tau^3, -6/tau^2], [-6/tau^2, 4/tau]], summed by
    entry magnitude; r = ax / tau keeps a large tau from giving inf / inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tau = np.float64(tau)
        r = ax / tau
        return float((12.0 * r * r + 12.0 * r * av + 4.0 * av * av) / tau)


def _box_limit(p, kernel_times=()):
    """Largest box whose costs and log-densities stay under FORM_CAP.

    Over draws from [-box, box]^4 the cost deficit d = (x1 - x0 - tau v0,
    v1 - v0) has |d_x| <= (2 + tau) box and |d_v| <= 2 box, and the cost is
    d^T W(tau)^{-1} d / 4.  The log-densities of the kernels at each u of
    kernel_times (harnack-integrated's s and t) are forms d^T Sigma(u)^{-1}
    d / 2 with Sigma(u) = 2 W(u) and |d_x|, |d_v| <= box.
    """
    tau = p["t"] - p["s"]
    scale = max([_form_scale(tau, 2.0 + tau, 2.0),
                 *(_form_scale(u, 1.0, 1.0) for u in kernel_times)])
    return math.sqrt(FORM_CAP / scale) if scale > 0 else 0.0


def _box_problem(p, kernel_times=()):
    """The box rule of control-cost and harnack-integrated, checked after
    their s < t rule: the limit needs tau = t - s > 0."""
    if not p["box"] <= (limit := _box_limit(p, kernel_times)):
        return (f"box={p['box']!r}: exceeds {limit:.3g}, the largest box whose "
                "drawn costs and log-densities stay finite with a 2^64 safety factor")
    return None


# The riccati campaign refuses a dimension n above this.  It takes 4n x 4n
# exponentials at every eval time, so its time grows as n^3 and its memory
# as n^2: at the other defaults, on 2 vCPUs with OpenBLAS on one thread,
# n = 64 takes about 1.0 s and 200 MB, and n = 100 about 3.1 s and 440 MB.
MAX_RICCATI_N = 64
# The riccati campaign refuses an n_eval above this, by the same budget: each
# eval time costs one integrator step, one exponential and one inversion, so
# at the other defaults, measured as above, n_eval = 10000 takes about
# 0.26 s and 49 MB, and n_eval = 20000 about 0.52 s and 65 MB.
MAX_RICCATI_N_EVAL = 10000
# The riccati campaign refuses an n_eval * n^2 above this, by the same
# budget: its stack of exponentials grows as n_eval * n^2, so within both
# bounds above, measured as above, 100000 (n = 10 at n_eval = 1000, or n = 5
# at 4000) takes about 0.3 to 0.4 s and 155 MB, n = 4 at n_eval = 10000
# (160000) about 0.73 s and 220 MB, and n = 8 at 10000 about 2.4 s and
# 736 MB.  n = 64 at the default n_eval (86016) still runs.
MAX_RICCATI_STACK = 100000


def _riccati_problem(p):
    if p["n"] > MAX_RICCATI_N:
        return f"n={p['n']!r}: exceeds the bound MAX_RICCATI_N={MAX_RICCATI_N}"
    if p["n_eval"] > MAX_RICCATI_N_EVAL:
        return (f"n_eval={p['n_eval']!r}: exceeds the bound "
                f"MAX_RICCATI_N_EVAL={MAX_RICCATI_N_EVAL}")
    if p["n_eval"] * p["n"] ** 2 > MAX_RICCATI_STACK:
        return (f"n={p['n']!r}, n_eval={p['n_eval']!r}: n_eval * n^2 exceeds the "
                f"bound MAX_RICCATI_STACK={MAX_RICCATI_STACK}")
    return None


def _campaign_riccati(cfg):
    p = cfg.params
    K = ric.CurvatureBound(k1=p["k1"], k2=p["k2"], n=int(p["n"]))
    times = np.linspace(p["t_end"] / p["n_eval"], p["t_end"], int(p["n_eval"]))
    with _refused(p, ("k1", "k2", "t_end", "tol"), times=times):
        M = ric.fundamental_M(K, times)  # one stack feeds both exponential audits
        N_exp = np.array([N.entries for N in ric.S_from_M(M)])
        traj = ric.integrate_S(K, p["t_end"], tol=p["tol"], eval_times=times)
    csv_path = _write(cfg, "riccati_trajectory.csv", ric.trajectory_to_csv(traj))
    states = np.array([S.entries for t, S in traj if t > 0])
    max_eig = float(np.linalg.eigvalsh(states)[:, -1].max())
    defect = ric.residual_defect(K, traj[:: max(1, len(traj) // 20)])
    expo = ric.exponential_route_residual(K, M)
    # the CSV trajectory already holds every eval time: no second integration
    N_int = np.array([N.entries for N in ric.bound_N(K, times, trajectory=traj)])
    gaps = np.abs(N_int - N_exp).max(axis=(1, 2)) / (1 + np.abs(N_exp).max(axis=(1, 2)))
    dual_gap = ric._worst(gaps)
    metrics = {
        "max_eigenvalue_S": max_eig,
        "reintegration_defect": defect,
        "exponential_route_residual": expo,
        "dual_route_gap": dual_gap,
    }
    passed = max_eig <= 1e-8 and dual_gap <= 1e-7
    return metrics, [csv_path], passed


def _closed_form_problem(p):
    pairs = p["pairs"]
    if not pairs:
        return f"pairs={pairs!r}: expected a non-empty list"
    if not all(
        isinstance(k, list) and len(k) == 2 and all(_finite(x) and x >= 0 for x in k)
        for k in pairs
    ):
        return f"pairs={pairs!r}: expected pairs [k1, k2] of finite non-negative numbers"
    return _time_order_problem(p)


def _campaign_closed_form(cfg):
    p = cfg.params
    times = np.linspace(p["t_lo"], p["t_hi"], int(p["n_t"]))
    tags, cfs, ors = [], [], []  # one per (pair, time)
    for k1, k2 in p["pairs"]:
        K = ric.CurvatureBound(k1=k1, k2=k2, n=1)
        with _refused(p, ("pairs", "t_lo", "t_hi"), (k1, k2), times):
            oracles = ric.S_from_M(ric.fundamental_M(K, times))
            sfs = [closed_forms.eval_sfuncs(k1, k2, float(t)) for t in times]
        tags.extend(sf.regime.tag for sf in sfs)
        cfs.extend(closed_forms.assemble_bound(sf, n=1).entries for sf in sfs)
        ors.extend(N.entries for N in oracles)
    # three rows per (pair, time): the entries xx, xv and vv
    N_cf, N_or = np.array(cfs), np.array(ors)
    scale = np.abs(N_or).max(axis=(1, 2))[:, None]
    cf, orc = (N[:, (0, 0, 1), (0, 1, 1)] for N in (N_cf, N_or))
    rels = np.abs(cf - orc) / scale
    rows_per_pair = 3 * times.size
    t_col = [t for t in _csv.floats(times) for _ in range(3)]
    k1_col, k2_col = (
        chain.from_iterable(repeat(k, rows_per_pair) for k in _csv.floats(ks))
        for ks in zip(*p["pairs"])
    )
    text = _csv.csv_text(
        ["regime", "k1", "k2", "t", "entry", "closed_form", "oracle", "rel_err"],
        [[tag for tag in tags for _ in range(3)], k1_col, k2_col,
         t_col * len(p["pairs"]), ("xx", "xv", "vv") * len(tags),
         *map(_csv.floats, (cf, orc, rels))],
    )
    csv_path = _write(cfg, "closed_form_agreement.csv", text)
    worst = max(rels.ravel().tolist())  # skips a NaN, unless it comes first
    return {"worst_relative_error": worst}, [csv_path], worst <= p["rel_tol"]


# The kernel-sharpness campaign refuses a dimension n above this, by the
# same budget: at the other defaults, on 2 vCPUs, n = 200 takes about 2.9 s
# and 240 MB, and n = 250 about 6.9 s and 350 MB.
MAX_SHARPNESS_N = 200


def _kernel_sharpness_problem(p):
    if p["n"] > MAX_SHARPNESS_N:
        return f"n={p['n']!r}: exceeds the bound MAX_SHARPNESS_N={MAX_SHARPNESS_N}"
    return _time_order_problem(p)


def _campaign_kernel_sharpness(cfg):
    p = cfg.params
    times = np.linspace(p["t_lo"], p["t_hi"], int(p["n_t"]))
    n = int(p["n"])
    x0 = np.zeros(n)
    with _refused(p, ("t_lo", "t_hi")):
        gaps = gaussian_kernel.sharpness_gap(
            [gaussian_kernel.kernel_state(x0, x0, float(t)) for t in times]
        )
    text = _csv.csv_text(
        ["t", "n", "gap"], [_csv.floats(times), repeat(str(n)), _csv.floats(gaps)]
    )
    csv_path = _write(cfg, "kernel_sharpness.csv", text)
    worst = max(gaps)
    return {"worst_gap": worst}, [csv_path], worst <= p["tol"]


POTENTIALS = {
    "zero": kinetic_pde.ZeroPotential,
    "quadratic_v": lambda: kinetic_pde.QuadraticPotential(q_vv=1.0),
    "bilinear": lambda: kinetic_pde.QuadraticPotential(q_xv=1.0),
}


def _pde_harnack_problem(p):
    region = p["region"]  # an empty region is the whole grid
    if region and not (
        len(region) == 4 and all(map(_finite, region))
        and region[0] < region[1] and region[2] < region[3]
    ):
        return f"region={region!r}: expected [x_lo, x_hi, v_lo, v_hi], finite with lo < hi"
    if p["potential"] not in POTENTIALS:
        return f"potential={p['potential']!r}: expected one of {', '.join(POTENTIALS)}"
    return None


def _campaign_pde_harnack(cfg):
    p = cfg.params
    pot = POTENTIALS[p["potential"]]()
    region = tuple(p["region"]) if p.get("region") else None
    K = kinetic_pde.curvature_of(pot)
    keys = ("scheme", "potential", "t0", "t1", "n_grid", "extent", "sigma2", "region")
    with _refused(p, keys):
        field = kinetic_pde.kernel_field(
            p["t0"], extent=p["extent"], n=int(p["n_grid"]), sigma2=p["sigma2"]
        )
        # the scalar check's closed form has a cap at t1 that depends on K
        # alone: refuse it before the evolution, but let evolve's own
        # refusals (work bound, CFL, diffusion number) take precedence
        try:
            closed_forms._check_arg_cap(closed_forms.classify(K.k1, K.k2), p["t1"])
        except ric.CapError:
            kinetic_pde._plan(field, pot, p["t1"], p["scheme"])
            raise
        field, evo = kinetic_pde.evolve(field, pot, p["t1"], scheme=p["scheme"])
        mrep = kinetic_pde.verify_matrix_harnack(
            field, pot, curvature=K, tolerance=p["tolerance"], region=region
        )
        srep = kinetic_pde.verify_scalar_harnack(
            field, pot, curvature=K, tolerance=p["tolerance"], region=region
        )
    files = [_write(cfg, "final_field.csv", kinetic_pde.snapshot_csv(field))]
    files.extend(
        kinetic_pde.save_snapshot(field, os.path.join(cfg.out_dir, "final_field"))
    )
    metrics = {
        "matrix_min_margin": mrep.min_margin,
        "matrix_argmin": list(mrep.argmin),
        "scalar_min_margin": srep.min_margin,
        "n_tested": mrep.n_tested,
        "n_untestable": mrep.n_untestable,
        "mass_ledger_discrepancy": evo.ledger_discrepancy,
        "boundary_fraction": field.boundary_fraction,
        "k1": K.k1,
        "k2": K.k2,
        "regime": closed_forms.classify(K.k1, K.k2).tag,
    }
    return metrics, files, mrep.passed and srep.passed


# The control-cost campaign refuses an n_pairs above this, by the same
# budget as the riccati bounds: its CSV holds two rows per pair, so on
# 2 vCPUs, with the default m and counting about 0.11 s and 37 MB of
# interpreter start and import, n_pairs = 100000 takes about 0.8 s and
# 140 MB, and 200000 about 1.4 s and 240 MB.
MAX_CONTROL_PAIRS = 100000
# The control-cost campaign refuses an n_pairs * m above this, by the same
# budget: the transcription holds several (m, n_pairs) arrays of controls,
# among them the segment flow's (2m + 1) x n_pairs workspace, so, measured
# as above, 2000000 takes about 0.3 s and 100 MB (n_pairs = 10000 at
# m = 200) to 160 MB (n_pairs = 1 at m = 2000000), and n_pairs = 100000 at
# m = 20 about 0.84 s and 150 MB; 4000000 (n_pairs = 1) takes 290 MB.
MAX_CONTROL_STACK = 2000000


def _control_cost_problem(p):
    if p["n_pairs"] > MAX_CONTROL_PAIRS:
        return (f"n_pairs={p['n_pairs']!r}: exceeds the bound "
                f"MAX_CONTROL_PAIRS={MAX_CONTROL_PAIRS}")
    if p["n_pairs"] * p["m"] > MAX_CONTROL_STACK:
        return (f"n_pairs={p['n_pairs']!r}, m={p['m']!r}: n_pairs * m exceeds the "
                f"bound MAX_CONTROL_STACK={MAX_CONTROL_STACK}")
    if not p["s"] < p["t"]:
        return f"needs s < t, got s={p['s']!r}, t={p['t']!r}"
    return _box_problem(p)


def _campaign_control_cost(cfg):
    p = cfg.params
    s, t = p["s"], p["t"]
    m = int(p["m"])
    rng = np.random.default_rng(cfg.seed)
    rows = rng.uniform(-p["box"], p["box"], size=(int(p["n_pairs"]), 4))
    # with h = None the dimensions decouple, so each pair is one dimension of
    # one problem; both routes are batch invariant, so every pair gets the
    # bits it would get priced alone
    prob = control_cost.ControlProblem.make(s, t, *rows.T)
    with _refused(p, ("s", "t", "m")):
        exact = control_cost._gramian_costs(prob.tau, prob.x0, prob.v0, prob.x1, prob.v1)
        controls = control_cost.transcribe_cost(prob, m=m).path.controls
    # summed over its contiguous row, as the lone pair's cost is summed
    trans = 0.25 * (prob.tau / m) * np.sum(np.ascontiguousarray(controls.T) ** 2, axis=1)
    # the gap is relative; between subnormal costs it measures their rounding
    small = float(np.abs(exact).min())
    if not small >= np.finfo(float).tiny:
        raise ric.InputError(f"box={p['box']!r}: a drawn cost {small!r} lies under the "
                             "normal floats, where the two routes cannot be compared")
    gaps = np.abs(trans - exact) / np.abs(exact)
    worst = float(gaps.max())
    # the rows of control_cost.cost_csv, two per pair (closed form, then
    # transcription), with each pair's endpoints formatted once for both
    n_pairs = rows.shape[0]
    s_text, t_text = _csv.floats([s, t])
    ends = ([twice for text in _csv.floats(col) for twice in (text, text)]
            for col in rows.T)
    text = _csv.csv_text(
        control_cost.COST_CSV_HEADER,
        [repeat(s_text, 2 * n_pairs), repeat(t_text, 2 * n_pairs), *ends,
         _csv.floats(np.stack([exact, trans], axis=1)),
         ("closed_form", "transcribe") * n_pairs, ("0", str(m)) * n_pairs,
         _csv.floats(np.stack([np.zeros_like(gaps), gaps], axis=1))],
    )
    csv_path = _write(cfg, "control_costs.csv", text)
    return {"worst_relative_gap": worst}, [csv_path], worst <= p["rel_tol"]


# The harnack-integrated campaign refuses an n_pairs above this, by the
# same budget: measured as above, n_pairs = 1000000 takes about 0.42 s and
# 150 MB, and 2000000 about 0.8 s and 270 MB.
MAX_KERNEL_PAIRS = 1000000


def _harnack_integrated_problem(p):
    if p["n_pairs"] > MAX_KERNEL_PAIRS:
        return (f"n_pairs={p['n_pairs']!r}: exceeds the bound "
                f"MAX_KERNEL_PAIRS={MAX_KERNEL_PAIRS}")
    if not 0 < p["s"] < p["t"]:
        return f"needs 0 < s < t, got s={p['s']!r}, t={p['t']!r}"
    return _box_problem(p, (p["s"], p["t"]))


def _campaign_harnack_integrated(cfg):
    p = cfg.params
    with _refused(p, ("s", "t")):
        rep = control_cost.verify_harnack_kernel(
            p["s"], p["t"], n_pairs=int(p["n_pairs"]), seed=cfg.seed, box=p["box"]
        )
    metrics = {
        "min_ratio": rep.min_ratio,
        "min_pair": list(rep.min_pair),
        "equality_gap": rep.equality_gap,
    }
    passed = rep.min_ratio >= 1.0 - 1e-6 and rep.equality_gap <= 1e-10
    return metrics, [], passed


# The curvature pairs whose printed bounds the errata campaign reconciles.
ERRATA_PAIRS = ((0.0, 0.0), (0.0, 1.0))


def _errata_problem(p):
    t_grid = p["t_grid"]
    if not t_grid:
        return f"t_grid={t_grid!r}: expected a non-empty list"
    if not all(_finite(t) and t > 0 for t in t_grid):
        return f"t_grid={t_grid!r}: expected positive finite times"
    return None


def _campaign_errata(cfg):
    p = cfg.params
    rows = []
    for k1, k2 in ERRATA_PAIRS:
        with _refused(p, ("t_grid",), (k1, k2), p["t_grid"]):
            rows.extend(closed_forms.reconcile(k1, k2, p["t_grid"]))
    csv_path = _write(cfg, "errata.csv", closed_forms.errata_csv(rows))
    case5 = [r for r in rows if r.regime == closed_forms.CASE5]
    ok = bool(case5) and all(
        abs(r.ratio - 0.5) < 1e-9 for r in case5 if r.block in ("xx", "xv")
    )
    return {"n_rows": len(rows), "case5_half_ratio": ok}, [csv_path], ok


CAMPAIGNS = {
    "riccati": _Campaign(_riccati_problem, _campaign_riccati, {
        "k1": 1.0,
        "k2": 2.0,
        "n": 1,
        "t_end": 2.0,
        "tol": 1e-10,
        "n_eval": 21,
    }),
    "closed-form": _Campaign(_closed_form_problem, _campaign_closed_form, {
        "pairs": [[1.0, 2.0], [2.0, 2.0], [1.0, 0.5], [0.0, 1.0], [0.0, 0.0]],
        "t_lo": 0.1,
        "t_hi": 2.0,
        "n_t": 20,
        "rel_tol": 1e-6,
    }),
    "kernel-sharpness": _Campaign(
        _kernel_sharpness_problem, _campaign_kernel_sharpness,
        {"n": 1, "t_lo": 0.1, "t_hi": 2.0, "n_t": 20, "tol": 1e-8},
    ),
    "pde-harnack": _Campaign(_pde_harnack_problem, _campaign_pde_harnack, {
        "potential": "quadratic_v",
        "t0": 0.2,
        "t1": 0.6,
        "n_grid": 128,
        "extent": 4.0,
        "sigma2": 1.0,
        "scheme": "lie",
        "tolerance": 0.1,
        "region": [-2.0, 2.0, -2.0, 2.0],
    }),
    # m = 32 keeps the piecewise-constant optimum within rel_tol of the
    # continuous energy: the discretization excess is O(1/m^2) and crosses
    # 1e-3 between m = 24 and m = 32.
    "control-cost": _Campaign(
        _control_cost_problem, _campaign_control_cost,
        {"s": 0.0, "t": 1.0, "n_pairs": 20, "m": 32, "box": 2.0, "rel_tol": 1e-3},
    ),
    "harnack-integrated": _Campaign(
        _harnack_integrated_problem, _campaign_harnack_integrated,
        {"s": 1.0, "t": 2.0, "n_pairs": 1000, "box": 3.0},
    ),
    "errata": _Campaign(_errata_problem, _campaign_errata, {"t_grid": [0.5, 1.0, 2.0]}),
}
DEFAULTS = {name: campaign.defaults for name, campaign in CAMPAIGNS.items()}


def run_campaign(cfg):
    """Run one campaign; returns the report dict (also written to disk)."""
    metrics, files, passed = CAMPAIGNS[cfg.name].run(cfg)
    report = {
        "campaign": cfg.name,
        "params": cfg.params,
        "seed": cfg.seed,
        "passed": bool(passed),
        "metrics": metrics,
        "artifacts": [os.path.basename(f) for f in files],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    _write(cfg, f"report_{cfg.name}.json",
           json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_key(params, campaign, key, value, shared=False):
    """Set key in params.  A key scoped to another campaign is refused from
    --set; from a shared config file it is skipped, if that campaign has
    the key."""
    if "." in key:
        scope, bare = key.split(".", 1)
        if scope not in DEFAULTS:
            raise ValueError(f"{key}={value!r}: scope {scope!r} names no campaign "
                             f"(expected one of {', '.join(DEFAULTS)})")
        if scope != campaign:
            if not shared:
                raise ValueError(f"{key}={value!r}: scope {scope!r} is not the campaign "
                                 f"being run ({campaign!r})")
            if bare not in DEFAULTS[scope]:
                raise ValueError(f"{key}={value!r}: unknown config key {bare!r} for "
                                 f"campaign {scope!r}")
            return
        key = bare
    if key not in params:
        raise ValueError(f"unknown config key {key!r} for campaign {campaign!r}")
    params[key] = value


def _value_problem(key, value, default):
    """Why value cannot replace the default of key (None if it can)."""
    if isinstance(default, (list, str)):
        if not isinstance(value, type(default)):
            return f"expected a {type(default).__name__}"
        return None
    want = int if isinstance(default, int) else (int, float)
    if isinstance(value, bool) or not isinstance(value, want):
        return "expected an int" if want is int else "expected a number"
    if not math.isfinite(value):
        return "expected a finite number"
    if key in POSITIVE_KEYS and value <= 0:
        return "expected a positive value"
    if key in NON_NEGATIVE_KEYS and value < 0:
        return "expected a non-negative value"
    return None


# Built once per process: parse_args copies the --set default before it
# appends, so one call's values never reach the next.
PARSER = argparse.ArgumentParser(
    prog="harnack-verify",
    description="Verification campaigns for kinetic Harnack bounds.",
)
PARSER.add_argument("campaign", choices=CAMPAIGNS)
PARSER.add_argument("--config", help="JSON file of flat (dotted) config keys")
PARSER.add_argument(
    "--set",
    action="append",
    default=[],
    metavar="KEY=VALUE",
    help="override one config key (repeatable; a dotted key's scope must be "
    "the campaign being run)",
)
PARSER.add_argument("--out", default="harnack_out", help="output directory")
PARSER.add_argument("--seed", type=int, default=0)


def parse_cli(argv):
    """Parse arguments into a CampaignConfig."""
    args = PARSER.parse_args(argv)
    if args.seed < 0:
        PARSER.error(f"--seed={args.seed}: expected a non-negative integer")

    campaign = CAMPAIGNS[args.campaign]
    params = dict(campaign.defaults)
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            PARSER.error(f"--config: {exc}")
        if not isinstance(loaded, dict):
            PARSER.error("--config must contain a JSON object")
        for key, value in loaded.items():
            try:
                _apply_key(params, args.campaign, key, value, shared=True)
            except ValueError as exc:
                PARSER.error(str(exc))
    for item in args.set:
        if "=" not in item:
            PARSER.error(f"--set needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        try:
            _apply_key(params, args.campaign, key, _parse_value(value))
        except ValueError as exc:
            PARSER.error(str(exc))
    for key, value in params.items():
        problem = _value_problem(key, value, campaign.defaults[key])
        if problem:
            PARSER.error(f"{key}={value!r}: {problem}")
    problem = campaign.problem(params)
    if problem:
        PARSER.error(problem)
    return CampaignConfig(
        name=args.campaign, params=params, out_dir=args.out, seed=args.seed
    )


def main(argv=None):
    try:
        cfg = parse_cli(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code is not None else 2
    try:
        report = run_campaign(cfg)
    # OSError: e.g. the output directory cannot be written; InputError: a
    # value outside the domain of the routine it reaches
    except (OSError, ric.InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is internal
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{cfg.name}: {status}")
    for key, value in report["metrics"].items():
        print(f"  {key} = {value}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
