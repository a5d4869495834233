"""Random harnack-verify runs drawn from each campaign's record.

Every key of a campaign is drawn from its default: values near it, then
0, negatives, +-1e300, 1e-300, NaN and values of the wrong type.  Sizes
stay small (n_grid <= 32, n <= 3, n_eval <= 50, in-domain t1 - t0 <= 5).
Whatever the draw, a run exits 0, 1 or 2; a run that exits 0 or 1 writes
a report of strict JSON whose artifacts all exist; an exit 2 leaves no
output directory; and no run takes longer than WALL_S.
"""

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import example, given, strategies as st

import harnack_forge.verifier_cli as cli

WALL_S = 5.0

# The largest in-domain draw of each size key, and the value it runs at
# when it is not drawn (its default, if that is smaller).
SIZES = {"n_grid": 32, "n": 3, "n_eval": 50, "n_t": 20, "n_pairs": 50, "m": 32}
# The smallest in-domain draw of a size key; below it the run is refused.
MIN_SIZES = {"n_grid": 8, "m": 2}
CHOICES = {"potential": tuple(cli.POTENTIALS), "scheme": ("lie", "strang")}
WRONG_TYPES = ["x", True, None, [1.0], {"a": 1}]
EDGES = [0, 0.0, -1, -1.0, 1e300, -1e300, 1e-300, math.nan, *WRONG_TYPES]


def _near(default):
    """In-domain draws for a key whose default is this value."""
    if isinstance(default, str):
        return st.just(default)
    if isinstance(default, list):
        same_shape = st.tuples(*map(_near, default)).map(list)
        return same_shape | st.lists(_near(default[0]), max_size=len(default) + 1)
    if default == 0:
        return st.floats(0.0, 2.0)
    # within a factor 4 either way, with the default's sign
    return st.floats(-2.0, 2.0).map(lambda e: default * 2.0**e)


def _values(key, default):
    if key in SIZES:
        near = st.integers(MIN_SIZES.get(key, 1), SIZES[key])
    elif key in CHOICES:
        near = st.sampled_from(CHOICES[key])
    else:
        near = _near(default)
    return near | st.sampled_from(EDGES)


def _overrides(name):
    """Some of the campaign's keys, each with a drawn value."""
    defaults = cli.DEFAULTS[name]
    return st.fixed_dictionaries(
        {}, optional={key: _values(key, value) for key, value in defaults.items()}
    )


def _reject(constant):
    raise ValueError(f"non-finite {constant} in the report")


def _check_run(name, overrides):
    params = {key: min(value, SIZES[key]) if key in SIZES else value
              for key, value in cli.DEFAULTS[name].items()}
    params.update(overrides)
    argv = [name]
    for key, value in params.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        wall = time.perf_counter() - start
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert wall < WALL_S, (argv, wall)
        if code == 2:
            assert not out.exists(), argv
            return
        text = (out / f"report_{name}.json").read_text()
        report = json.loads(text, parse_constant=_reject)
        assert [a for a in report["artifacts"] if not (out / a).exists()] == []


def _fuzz(name, *examples):
    """The fuzz test of one campaign, with its named runs as examples."""
    @given(overrides=_overrides(name))
    def test(overrides):
        _check_run(name, overrides)

    for overrides in examples:
        test = example(overrides=overrides)(test)
    return test


test_riccati = _fuzz(
    "riccati",
    {"t_end": 1e-6},  # M3 singular at t_end / 21
    {"t_end": 30.0},  # M3 singular at a requested time
    {"tol": 1.0},  # outside integrate_S's range
    {"n": 200},  # over MAX_RICCATI_N; ran for minutes
    {"n": 4, "n_eval": 10000},  # over MAX_RICCATI_STACK
)
test_closed_form = _fuzz(
    "closed-form",
    {"t_hi": 50.0},
    {"t_lo": 1e-300},
    {"pairs": [[1.0]]},
    {"pairs": [[1e-300, 1.0]]},  # s0 <= 0 at t_lo
    {"t_lo": 3.0, "t_hi": 1.0},
)
test_kernel_sharpness = _fuzz(
    "kernel-sharpness",
    {"n": 2, "t_lo": 3.5e-9},  # an indefinite kernel covariance by eigvalsh
    {"t_lo": 1e-300},
    {"t_hi": 5e102},  # integrate_S's step floor
    {"n": 1000},  # over MAX_SHARPNESS_N
)
test_pde_harnack = _fuzz(
    "pde-harnack",
    # charged by cells alone, these two ran past 20 s and for some 12 minutes
    {"n_grid": 29, "t0": 0.0037, "t1": 20829.0},
    {"n_grid": 8, "potential": "zero", "t1": 3.5e6},
    {"n_grid": 16, "scheme": "strang"},  # drift CFL
    {"region": [1.0]},
    {"t0": 1e-300, "t1": 1e-299},  # N(t) overflows
    {"extent": 1e-9},  # no testable grid point
    {"potential": "foo"},
)
test_control_cost = _fuzz(
    "control-cost",
    {"box": 1e308},
    {"s": -1e100, "t": 1e100},  # A A^T overflows
    {"s": -1e30, "t": 1e30},
    {"box": 1e-160},  # subnormal costs
    {"m": 1},
)
test_harnack_integrated = _fuzz(
    "harnack-integrated",
    {"s": 3.0},
    {"box": 1e308},
    {"s": 1e100, "t": 2e100},  # t^4 overflows
    {"t": 5e102},  # CASE5's cap
)
test_errata = _fuzz(
    "errata",
    {"t_grid": [0.5, 50.0]},
    {"t_grid": [1e-300]},
    {"t_grid": [-1]},
    {"t_grid": []},
)


def test_every_campaign_is_fuzzed():
    fuzzed = {name.removeprefix("test_").replace("_", "-")
              for name, obj in globals().items()
              if name.startswith("test_") and hasattr(obj, "hypothesis")}
    assert fuzzed == set(cli.CAMPAIGNS)

