"""CLI parsing, exit codes, artifacts, determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import harnack_forge.riccati_engine as ric
import harnack_forge.verifier_cli as cli
from harnack_forge import _csv, closed_forms
from harnack_forge.control_cost import ControlProblem, cost_csv, energy_cost, transcribe_cost
from harnack_forge.kinetic_pde import kernel_field, load_snapshot, save_snapshot, snapshot_csv


def _reference_closed_form(p):
    """closed_form_agreement.csv and its worst error, built row by row."""
    times = np.linspace(p["t_lo"], p["t_hi"], int(p["n_t"]))
    rows = []
    for k1, k2 in p["pairs"]:
        K = ric.CurvatureBound(k1=k1, k2=k2, n=1)
        oracles = ric.S_from_M(ric.fundamental_M(K, times))
        for t, oracle in zip(times, oracles):
            sf = closed_forms.eval_sfuncs(k1, k2, float(t))
            N_cf = closed_forms.assemble_bound(sf, n=1).entries
            N_or = oracle.entries
            scale = float(np.abs(N_or).max())
            for lbl, (i, j) in (("xx", (0, 0)), ("xv", (0, 1)), ("vv", (1, 1))):
                rel = abs(N_cf[i, j] - N_or[i, j]) / scale
                rows.append((sf.regime.tag, k1, k2, t, lbl, N_cf[i, j], N_or[i, j], rel))
    tags, k1s, k2s, ts, entries, cfs, ors, rels = zip(*rows)
    text = _csv.csv_text(
        ["regime", "k1", "k2", "t", "entry", "closed_form", "oracle", "rel_err"],
        [tags, *map(_csv.floats, (k1s, k2s, ts)), entries,
         *map(_csv.floats, (cfs, ors, rels))],
    )
    return text, max(rels)


class TestParse:
    def test_defaults(self):
        cfg = cli.parse_cli(["errata"])
        assert cfg.name == "errata"
        assert cfg.seed == 0
        assert cfg.params == cli.DEFAULTS["errata"]

    def test_set_override(self):
        cfg = cli.parse_cli(["riccati", "--set", "k1=3.5", "--set", "n_eval=11"])
        assert cfg.params["k1"] == 3.5
        assert cfg.params["n_eval"] == 11

    def test_dotted_keys_scope_by_campaign(self, capsys):
        cfg = cli.parse_cli(["riccati", "--set", "riccati.k1=2.0"])
        assert cfg.params["k1"] == 2.0
        # a --set reaches only the campaign being run, so a foreign scope is a mistake
        with pytest.raises(SystemExit) as exc:
            cli.parse_cli(["riccati", "--set", "riccati.k1=2.0", "--set", "errata.k1=9.0"])
        assert exc.value.code == 2
        # the message follows "error: " as it is, with no quotes around it
        err = capsys.readouterr().err
        assert "error: errata.k1=9.0: scope 'errata' is not the campaign" in err

    def test_config_file(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"riccati.t_end": 1.5, "seedless": None}))
        with pytest.raises(SystemExit):
            cli.parse_cli(["riccati", "--config", str(path)])

    def test_config_scope_must_name_a_campaign(self, tmp_path, capsys):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"errata.t_grid": [9.0], "ricati.k1": 3.0}))
        with pytest.raises(SystemExit) as exc:
            cli.parse_cli(["riccati", "--config", str(path)])
        assert exc.value.code == 2
        assert "error: ricati.k1=3.0: scope 'ricati' names no campaign" in capsys.readouterr().err

    def test_config_file_valid_keys(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"riccati.t_end": 1.5}))
        cfg = cli.parse_cli(["riccati", "--config", str(path)])
        assert cfg.params["t_end"] == 1.5

    def test_config_skips_keys_of_other_campaigns(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"errata.t_grid": [1]}))
        cfg = cli.parse_cli(["riccati", "--config", str(path)])
        assert cfg.params == cli.DEFAULTS["riccati"]

    def test_config_typo_under_another_scope_is_usage_error(self, tmp_path, capsys):
        # the key is checked against the campaign its scope names
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"errata.t_gird": [1]}))
        out = tmp_path / "out"
        assert cli.main(["riccati", "--config", str(path), "--out", str(out)]) == 2
        assert "errata.t_gird=[1]: unknown config key 't_gird'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_campaign_exits(self):
        with pytest.raises(SystemExit):
            cli.parse_cli(["fourier"])

    def test_json_values_in_set(self):
        cfg = cli.parse_cli(["errata", "--set", "t_grid=[0.5,1.0]"])
        assert cfg.params["t_grid"] == [0.5, 1.0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["pde-harnack", "--set", "n_grid=abc"],
            ["harnack-integrated", "--set", "n_pairs=abc"],
            ["riccati", "--set", "k1=abc"],
            ["riccati", "--set", "t_end=-1"],
            ["control-cost", "--set", "n_pairs=0"],
            ["control-cost", "--set", "m=32.5"],
            ["pde-harnack", "--set", "region=2.0"],
            ["riccati", "--set", "k2=NaN"],
            ["riccati", "--set", "n=true"],
            ["harnack-integrated", "--set", "s=3.0"],
            ["pde-harnack", "--set", "t1=0.1"],
            ["pde-harnack", "--set", "scheme=foo"],
            ["control-cost", "--set", "m=1"],
            ["pde-harnack", "--set", "potential=foo"],
            ["pde-harnack", "--set", "region=[1.0]"],
            ["pde-harnack", "--set", "region=[2.0,-2.0,-2.0,2.0]"],
            ["closed-form", "--set", "pairs=[[1.0]]"],
            ["closed-form", "--set", "pairs=[[-1.0,1.0]]"],
            ["errata", "--set", "t_grid=[-1]"],
            ["pde-harnack", "--set", "n_grid=4"],
            ["closed-form", "--set", "pairs=[]"],
            ["errata", "--set", "t_grid=[]"],
            ["control-cost", "--set", "box=1e308"],
            ["harnack-integrated", "--set", "box=1e308"],
            ["closed-form", "--set", "t_lo=3", "--set", "t_hi=1"],
            ["kernel-sharpness", "--set", "t_lo=3", "--set", "t_hi=1"],
            ["riccati", "--set", "t_end=1e-300"],
            ["riccati", "--set", "t_end=1e-13"],  # smallest eval time t_end / 21
            ["riccati", "--set", "t_end=1e-6"],  # M3 singular at t_end / 21
            ["riccati", "--set", "t_end=1e4"],  # the exponential route overflows
            ["riccati", "--set", "k1=-1"],
            ["control-cost", "--set", "box=1e200"],
            ["harnack-integrated", "--set", "box=1e200"],
            ["closed-form", "--set", "t_hi=1000.0"],  # beyond the exponential cap
            ["closed-form", "--set", "t_hi=250"],  # beyond CASE1's hyperbolic cap
            ["errata", "--set", "t_grid=[1000.0]"],
            ["pde-harnack", "--set", "n_grid=16", "--set", 'scheme="strang"'],  # drift CFL
            # M3 singular at some requested time (its condition is not monotone in t)
            ["riccati", "--set", "t_end=30"],
            ["riccati", "--set", "t_end=50"],
            ["closed-form", "--set", "t_hi=30"],
            ["closed-form", "--set", "t_hi=50"],
            ["closed-form", "--set", "t_lo=1e-300"],
            ["errata", "--set", "t_grid=[50.0]"],
            ["errata", "--set", "t_grid=[1e-300]"],
            ["riccati", "--set", "tol=1"],  # outside integrate_S's range
            # a float that overflows or underflows where it enters the library
            ["kernel-sharpness", "--set", "t_lo=1e-300"],  # kernel covariance
            ["kernel-sharpness", "--set", "t_hi=1e300"],
            ["control-cost", "--set", "t=1e300"],  # controllability Gramian
            ["control-cost", "--set", "s=-1e100", "--set", "t=1e100"],  # A A^T overflows
            ["harnack-integrated", "--set", "t=1e300"],
            ["pde-harnack", "--set", "extent=1e-300"],  # diffusion number dt / dv^2
            ["pde-harnack", "--set", "extent=1e300"],
            ["closed-form", "--set", "pairs=[[1e-300,1.0]]"],  # s0 <= 0 at t_lo
            # no grid point is testable, so no check runs
            ["pde-harnack", "--set", "extent=1e-9"],
            ["pde-harnack", "--set", "extent=1e4"],
            ["pde-harnack", "--set", "sigma2=1e-9"],
            ["pde-harnack", "--set", "sigma2=1e-300"],
            ["pde-harnack", "--set", "region=[3.9,4.0,3.9,4.0]"],
            ["pde-harnack", "--set", "region=[1e-9,2e-9,0.0,1.0]"],
            # drawn costs that are subnormal, or 0, leave no relative gap
            ["control-cost", "--set", "box=1e-160"],
            ["control-cost", "--set", "box=1e-170"],
            ["pde-harnack", "--set", "t0=1e-300", "--set", "t1=1e-299"],  # N(t) overflows
            ["harnack-integrated", "--set", "s=1e100", "--set", "t=2e100"],  # t^4 overflows
            ["riccati", "--set", "ricati.k1=3"],  # a scope that names no campaign
            ["riccati", "--set", "n=200"],  # over MAX_RICCATI_N
            ["riccati", "--set", "errata.t_gird=[1]"],  # a scope that is not the campaign
            # t^3 within a factor 2 of the largest float: integrate_S's step floor
            ["kernel-sharpness", "--set", "t_hi=5e102"],
            ["harnack-integrated", "--set", "s=1", "--set", "t=5e102"],  # CASE5's cap
            ["kernel-sharpness", "--set", "n=1000"],  # over MAX_SHARPNESS_N
            ["riccati", "--set", "n_eval=100000"],  # over MAX_RICCATI_N_EVAL
            # exited 3 without a bound: 1.49 GiB and 2.98 GiB arrays under a 3 GB ulimit -v
            ["control-cost", "--set", "m=100000000"],  # over MAX_CONTROL_STACK
            ["control-cost", "--set", "n_pairs=100000000"],  # over MAX_CONTROL_PAIRS
            ["harnack-integrated", "--set", "n_pairs=100000000"],  # over MAX_KERNEL_PAIRS
            ["control-cost", "--set", "m=2", "--set", "n_pairs=100001"],
            ["control-cost", "--set", "n_pairs=1", "--set", "m=2000001"],
            ["harnack-integrated", "--set", "n_pairs=1000001"],
        ],
    )
    def test_bad_values_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        key = argv[-1].split("=")[0]
        assert f"{key}=" in capsys.readouterr().err  # the message names the key
        assert not out.exists()

    def test_successive_parses_keep_their_values_apart(self):
        first = cli.parse_cli(["riccati", "--set", "k1=3.5"])
        second = cli.parse_cli(["riccati", "--set", "n_eval=11"])
        assert (first.params["k1"], first.params["n_eval"]) == (3.5, 21)
        assert (second.params["k1"], second.params["n_eval"]) == (1.0, 11)
        assert cli.PARSER.get_default("set") == []
        with pytest.raises(SystemExit) as exc:
            cli.parse_cli(["riccati", "--set", "k1=abc"])
        assert exc.value.code == 2
        assert cli.parse_cli(["riccati"]).params == cli.DEFAULTS["riccati"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["riccati", "--set", "t_end=30"],
            ["closed-form", "--set", "t_hi=50"],
            ["errata", "--set", "t_grid=[0.5,50.0]"],
        ],
    )
    def test_unreachable_times_write_nothing(self, argv, tmp_path):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    # at n_grid 128: about 1.4e10 and 1.4e306 cell-steps of the lie scheme
    @pytest.mark.parametrize("t1", ["1e4", "1e300"])
    def test_runs_past_the_work_bound_exit_before_any_step(self, t1, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["pde-harnack", "--set", f"t1={t1}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"t1={float(t1)!r}" in err
        assert "cell-steps" in err and "MAX_CELL_STEPS" in err
        assert not out.exists()

    def test_a_time_past_the_closed_form_cap_exits_before_the_evolution(self, tmp_path,
                                                                          capsys):
        # the scalar check's cap depends on K and t1 alone; checked only after
        # the evolution, this run would evolve for about 9 s first
        out = tmp_path / "out"
        argv = ["pde-harnack", "--set", "n_grid=17", "--set", "t0=42.8", "--set", "t1=11253"]
        start = time.perf_counter()
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "t1=11253" in err
        assert "hyperbolic argument 1.13e+04 exceeds cap 700 for regime CASE4 at t=11253" in err
        assert not out.exists()

    # charged by cells alone: 2.7e8 cell-steps that ran past 20 s, and 8.7e8
    # that would run for some 12 minutes
    @pytest.mark.parametrize(
        "sets",
        [["n_grid=29", "t0=0.0037", "t1=20829"], ["n_grid=8", 'potential="zero"', "t1=3.5e6"]],
    )
    def test_small_grid_runs_are_charged_each_steps_fixed_cost(self, sets, tmp_path,
                                                               capsys):
        out = tmp_path / "out"
        argv = ["pde-harnack", *(arg for s in sets for arg in ("--set", s))]
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "STEP_OVERHEAD_CELLS=4096" in err and "MAX_CELL_STEPS" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "campaign, stacks", [("riccati", 1), ("closed-form", 5), ("errata", 2)]
    )
    def test_one_exponential_stack_per_pair(self, campaign, stacks, tmp_path, monkeypatch):
        # the M3 test reads the stack each campaign computes anyway
        calls = []
        real = ric.fundamental_M

        def counted(K, t):
            calls.append(t)
            return real(K, t)

        monkeypatch.setattr(ric, "fundamental_M", counted)
        monkeypatch.setattr(closed_forms, "fundamental_M", counted)
        cfg = cli.parse_cli([campaign, "--out", str(tmp_path)])
        assert calls == []
        cli.run_campaign(cfg)
        assert len(calls) == stacks

    @pytest.mark.parametrize(
        "argv", [["control-cost", "--seed", "-1"], ["harnack-integrated", "--seed", "-5"]]
    )
    def test_negative_seed_is_usage_error(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"riccati.t_end": "long"}))
        with pytest.raises(SystemExit):
            cli.parse_cli(["riccati", "--config", str(path)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["control-cost", "--set", "s=0.0", "--set", "t=1"],
            ["riccati", "--set", "k1=0.0", "--set", "t_end=2"],
            ["closed-form", "--set", "pairs=[[0.0, 1.0], [2.0, 2.0]]"],
            ["pde-harnack", "--set", "region=[-2.0, 2.0, -2.0, 2.0]",
             "--set", "potential=\"zero\"", "--set", "scheme=strang"],
            ["pde-harnack", "--set", "region=[]", "--set", "n_grid=8"],
            ["pde-harnack", "--set", "n_grid=8", "--set", "scheme=strang"],  # CFL 0.8
            ["kernel-sharpness", "--set", "n=200"],  # at MAX_SHARPNESS_N
            ["riccati", "--set", "n_eval=10000"],  # at MAX_RICCATI_N_EVAL
            ["riccati", "--set", "n=64"],  # at MAX_RICCATI_N, n_eval * n^2 = 86016
            ["riccati", "--set", "n=10", "--set", "n_eval=1000"],  # at MAX_RICCATI_STACK
            # at MAX_CONTROL_PAIRS and MAX_CONTROL_STACK
            ["control-cost", "--set", "n_pairs=100000", "--set", "m=20"],
            ["control-cost", "--set", "n_pairs=1", "--set", "m=2000000"],  # at MAX_CONTROL_STACK
            ["harnack-integrated", "--set", "n_pairs=1000000"],  # at MAX_KERNEL_PAIRS
        ],
    )
    def test_valid_values_are_accepted(self, argv):
        assert cli.parse_cli(argv).name == argv[0]

    @pytest.mark.parametrize("n, n_eval", [(10, 1001), (4, 10000), (8, 10000), (64, 25)])
    def test_riccati_stack_over_its_bound_is_refused_at_parse_time(self, n, n_eval,
                                                                   tmp_path, capsys):
        # each of n and n_eval is within its own bound; their product is not
        out = tmp_path / "out"
        argv = ["riccati", "--set", f"n={n}", "--set", f"n_eval={n_eval}", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"n={n}, n_eval={n_eval}: n_eval * n^2 exceeds" in err
        assert f"MAX_RICCATI_STACK={cli.MAX_RICCATI_STACK}" in err
        assert not out.exists()


class TestMain:
    def test_errata_campaign_passes(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["errata", "--out", out]) == 0
        report = json.loads((tmp_path / "out" / "report_errata.json").read_text())
        assert report["passed"] is True
        assert report["campaign"] == "errata"
        for art in report["artifacts"]:
            assert (tmp_path / "out" / art).exists()

    def test_kernel_sharpness_campaign(self, tmp_path):
        out = str(tmp_path / "out")
        assert cli.main(["kernel-sharpness", "--out", out]) == 0
        report = json.loads(
            (tmp_path / "out" / "report_kernel-sharpness.json").read_text()
        )
        assert report["passed"] is True

    @pytest.mark.parametrize(
        "campaign, artifact",
        [
            ("riccati", "riccati_trajectory.csv"),
            ("closed-form", "closed_form_agreement.csv"),
            ("kernel-sharpness", "kernel_sharpness.csv"),
            ("control-cost", "control_costs.csv"),
            ("errata", "errata.csv"),
            ("pde-harnack", "final_field.csv"),
        ],
    )
    def test_csv_fields_are_float_literals_or_labels(
        self, tmp_path, campaign, artifact
    ):
        # numpy scalars must not leak their repr, e.g. np.float64(0.5), and
        # every number must be the literal that reads back to the same value
        small = {"pde-harnack": ["--set", "n_grid=32"]}.get(campaign, [])
        assert cli.main([campaign, "--out", str(tmp_path)] + small) == 0
        header, *rows = (tmp_path / artifact).read_text().splitlines()
        assert all(label.isidentifier() for label in header.split(","))
        assert rows
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(header.split(","))
            # control_costs.csv joins vector endpoint components with ';'
            for text in (part for field in fields for part in field.split(";")):
                try:
                    number = int(text) if text.lstrip("-").isdigit() else float(text)
                except ValueError:
                    assert text.isidentifier(), (row, text)
                else:
                    assert repr(number) == text, (row, text)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_control_cost_csv_matches_pairs_priced_alone(self, tmp_path, seed):
        # the campaign prices all pairs in one call; each row must still have
        # the bits of that pair priced alone
        p = cli.DEFAULTS["control-cost"]
        argv = ["control-cost", "--out", str(tmp_path), "--seed", str(seed),
                "--set", "n_pairs=9"]
        assert cli.main(argv) == 0
        rng = np.random.default_rng(seed)
        rows = []
        for x0, v0, x1, v1 in rng.uniform(-p["box"], p["box"], size=(9, 4)).tolist():
            prob = ControlProblem.make(p["s"], p["t"], [x0], [v0], [x1], [v1])
            exact = energy_cost(prob)
            trans = transcribe_cost(prob, m=p["m"]).cost
            gap = abs(trans - exact) / abs(exact)
            ends = (p["s"], p["t"], x0, v0, x1, v1)
            rows.append((*ends, exact, "closed_form", 0, 0.0))
            rows.append((*ends, trans, "transcribe", p["m"], gap))
        assert (tmp_path / "control_costs.csv").read_bytes() == cost_csv(rows).encode()

    @pytest.mark.parametrize("n_t", [1, 7])
    def test_closed_form_csv_matches_its_per_row_table(self, tmp_path, n_t):
        # the campaign stacks each pair's entries; its table and worst error
        # must equal those of the per-row loop, over all five regimes, a
        # repeated pair and an integer pair
        pairs = [[1.0, 2.0], [2, 2], [1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [1.0, 2.0]]
        assert {closed_forms.classify(*k).tag for k in pairs} == {
            closed_forms.CASE1, closed_forms.CASE2, closed_forms.CASE3,
            closed_forms.CASE4, closed_forms.CASE5}
        argv = ["closed-form", "--out", str(tmp_path), "--set", f"pairs={json.dumps(pairs)}",
                "--set", f"n_t={n_t}"]
        assert cli.main(argv) == 0
        p = {**cli.DEFAULTS["closed-form"], "pairs": pairs, "n_t": n_t}
        text, worst = _reference_closed_form(p)
        assert (tmp_path / "closed_form_agreement.csv").read_text() == text
        report = json.loads((tmp_path / "report_closed-form.json").read_text())
        assert report["metrics"]["worst_relative_error"] == worst

    def test_control_cost_gap_is_relative_on_wide_windows(self, tmp_path):
        # every cost of a window of width 2e30 is about 1e-30; a gap floored
        # at |exact| >= 1 read 3.7e-33 there, while the two routes differ by
        # the transcription's O(1/m^2) excess, as on the unit window
        argv = ["control-cost", "--out", str(tmp_path),
                "--set", "s=-1e30", "--set", "t=1e30"]
        assert cli.main(argv) == 0
        report = json.loads((tmp_path / "report_control-cost.json").read_text())
        assert report["metrics"]["worst_relative_gap"] >= 9e-4

    @pytest.mark.parametrize("campaign", ["control-cost", "harnack-integrated"])
    def test_largest_accepted_box_stays_finite(self, tmp_path, campaign):
        params = dict(cli.DEFAULTS[campaign])
        # harnack-integrated also bounds the log-densities of its kernels at s and t
        kernel_times = (params["s"], params["t"]) if campaign == "harnack-integrated" else ()
        box = cli._box_limit(params, kernel_times)
        assert params["box"] < box < 1e300
        argv = [campaign, "--out", str(tmp_path), "--set", f"box={box!r}"]
        assert cli.main(argv) in (0, 1)

        def reject(constant):
            raise ValueError(f"non-finite {constant} in the report")

        report = (tmp_path / f"report_{campaign}.json").read_text()
        metrics = json.loads(report, parse_constant=reject)["metrics"]
        assert all(np.isfinite(v).all() for v in metrics.values())
        for path in tmp_path.glob("*.csv"):
            rows = list(csv.DictReader(path.open()))
            assert all(np.isfinite(float(row["cost"])) for row in rows)
        assert cli.main(argv[:-1] + [f"box={box * (1 + 1e-15)!r}"]) == 2

    def test_write_holds_a_slice_not_a_copy(self, tmp_path):
        # one write of the whole text allocated its full encoding as well
        text = snapshot_csv(kernel_field(0.3, extent=4.0, n=256, sigma2=1.0))
        cfg = cli.CampaignConfig("pde-harnack", {}, str(tmp_path), 0)
        tracemalloc.start()
        try:
            path = cli._write(cfg, "final_field.csv", text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * len(text), peak / len(text)
        with open(path, "rb") as fh:
            assert fh.read() == text.encode()

    def test_numeric_failure_exit_code(self, tmp_path):
        # an impossible tolerance turns agreement into a reported failure
        code = cli.main(
            [
                "closed-form",
                "--out",
                str(tmp_path / "out"),
                "--set",
                "rel_tol=1e-18",
            ]
        )
        assert code == 1

    def test_usage_error_exit_code(self):
        assert cli.main(["no-such-campaign"]) == 2

    def test_bad_config_path_exit_code(self, tmp_path):
        code = cli.main(
            ["errata", "--config", str(tmp_path / "missing.json")]
        )
        assert code == 2

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise RuntimeError("synthetic")

        errata = dataclasses.replace(cli.CAMPAIGNS["errata"], run=boom)
        monkeypatch.setitem(cli.CAMPAIGNS, "errata", errata)
        assert cli.main(["errata", "--out", str(tmp_path / "out")]) == 3

    def test_singular_riccati_state_is_internal(self, tmp_path, monkeypatch, capsys):
        # bound_N's singular S(t) is a fault of the computation, not of the input
        def singular(cfg):
            raise ric.SingularityError("S(t) numerically singular", cond=1e13)

        riccati = dataclasses.replace(cli.CAMPAIGNS["riccati"], run=singular)
        monkeypatch.setitem(cli.CAMPAIGNS, "riccati", riccati)
        assert cli.main(["riccati", "--out", str(tmp_path / "out")]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_deterministic_reports(self, tmp_path):
        for d in ("a", "b"):
            assert cli.main(["errata", "--out", str(tmp_path / d)]) == 0
        ra = json.loads((tmp_path / "a" / "report_errata.json").read_text())
        rb = json.loads((tmp_path / "b" / "report_errata.json").read_text())
        ra.pop("timestamp")
        rb.pop("timestamp")
        assert ra == rb
        csv_a = (tmp_path / "a" / "errata.csv").read_bytes()
        csv_b = (tmp_path / "b" / "errata.csv").read_bytes()
        assert csv_a == csv_b


RERUNS = [["control-cost"], ["pde-harnack", "--set", "n_grid=16"]]


def _run(tmp_path, argv, seed=0):
    """Run argv into tmp_path/out; returns {artifact name: bytes}."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out), "--seed", str(seed)]) in (0, 1)
    return {p.name: p.read_bytes() for p in out.iterdir()}


class TestRerun:
    """A rerun into the same --out replaces each artifact with a new file."""

    @pytest.mark.parametrize("argv", RERUNS, ids=lambda a: a[0])
    def test_rerun_writes_the_same_bytes_to_new_files(self, tmp_path, argv):
        first = _run(tmp_path, argv)
        # an open handle keeps each first-run inode from being reused
        handles = {name: open(tmp_path / "out" / name, "rb") for name in first}
        try:
            second = _run(tmp_path, argv)
            for name, fh in handles.items():
                old = os.fstat(fh.fileno())
                assert old.st_nlink == 0, name  # unlinked, not truncated
                assert os.stat(tmp_path / "out" / name).st_ino != old.st_ino, name
                assert fh.read() == first[name], name
        finally:
            for fh in handles.values():
                fh.close()
        assert second.keys() == first.keys()
        for name in first:
            if name.startswith("report_"):
                a, b = json.loads(first[name]), json.loads(second[name])
                a.pop("timestamp")
                b.pop("timestamp")
                assert a == b
            else:
                assert second[name] == first[name], name

    def test_hard_link_keeps_the_first_runs_bytes(self, tmp_path):
        first = _run(tmp_path, ["control-cost"])
        path = tmp_path / "out" / "control_costs.csv"
        os.link(path, tmp_path / "kept.csv")
        second = _run(tmp_path, ["control-cost"], seed=1)  # other pairs, other bytes
        assert second["control_costs.csv"] != first["control_costs.csv"]
        assert (tmp_path / "kept.csv").read_bytes() == first["control_costs.csv"]
        assert os.stat(path).st_nlink == 1

    @pytest.mark.parametrize("argv", RERUNS, ids=lambda a: a[0])
    def test_longer_stale_file_leaves_no_trailing_bytes(self, tmp_path, argv):
        first = _run(tmp_path, argv)
        for name, data in first.items():
            stale = tmp_path / "out" / name
            stale.write_bytes(data + b"stale" * 1000)
            stale.chmod(0o444)  # a read-only file is replaced too
        second = _run(tmp_path, argv)
        for name in first:
            if not name.startswith("report_"):
                assert second[name] == first[name], name

    def test_symlink_is_replaced_and_its_target_untouched(self, tmp_path):
        first = _run(tmp_path, RERUNS[1])
        target = tmp_path / "target.bin"
        target.write_bytes(b"target")
        link = tmp_path / "out" / "final_field.bin"
        link.unlink()
        link.symlink_to(target)
        second = _run(tmp_path, RERUNS[1])
        assert not link.is_symlink()
        assert second["final_field.bin"] == first["final_field.bin"]
        assert target.read_bytes() == b"target"

    def test_snapshot_over_an_existing_one_round_trips(self, tmp_path):
        base = str(tmp_path / "snap")
        save_snapshot(kernel_field(0.3, extent=2.0, n=32), base)
        field = kernel_field(0.5, extent=3.0, n=16, sigma2=0.5)
        save_snapshot(field, base)
        got = load_snapshot(base)
        for a, b in ((got.rho, field.rho), (got.xs, field.xs), (got.vs, field.vs)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (got.t, got.t0) == (field.t, field.t0)


def _fresh_python(*args):
    """Run a fresh interpreter that imports the package from where this process found it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(tmp_path):
    proc = _fresh_python(
        "-m", "harnack_forge.verifier_cli", "errata", "--out", str(tmp_path / "out")
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report_errata.json").exists()


# Prints, as its last line, whether scipy or numpy.polynomial (which only
# transcribe_cost's running-h branch needs) is loaded after `import
# harnack_forge`, after importing the CLI, and after each campaign run
# (one "campaign --set k=v ..." argument per run) with its exit code.
_SCIPY_PROBE = """
import json, sys
def loaded():
    return any(name in sys.modules for name in ("scipy", "numpy.polynomial"))
import harnack_forge
states = [loaded()]
import harnack_forge.verifier_cli as cli
states.append(loaded())
out, *runs = sys.argv[1:]
for k, run in enumerate(runs):
    code = cli.main(run.split() + ["--out", f"{out}/{k}"])
    states.append([code, loaded()])
print(json.dumps(states))
"""


def _scipy_states(tmp_path, *runs):
    proc = _fresh_python("-c", _SCIPY_PROBE, str(tmp_path), *runs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_only_campaigns_never_load_scipy(tmp_path):
    runs = [c if c != "pde-harnack" else "pde-harnack --set n_grid=16" for c in cli.CAMPAIGNS]
    assert _scipy_states(tmp_path, *runs) == [False, False] + [[0, False]] * len(runs)


# Each campaign run alone on the routes that once called scipy: scipy is
# still unloaded after the first call, so no route imports it lazily.
@pytest.mark.parametrize(
    "run, loads",
    [
        pytest.param(run, loads, id=run)
        for run, loads in [
            ("riccati", False),
            ("closed-form", False),
            ("errata", False),
            ("pde-harnack --set n_grid=16", False),
        ]
    ],
)
def test_scipy_routes_load_scipy_on_first_call(tmp_path, run, loads):
    assert _scipy_states(tmp_path, run) == [False, False, [0, loads]]


# Runs every campaign at its defaults with scipy unimportable and prints
# the exit codes as its last line.
_BLOCKED_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import harnack_forge.verifier_cli as cli
print(json.dumps([cli.main([c, "--out", f"{sys.argv[1]}/{c}"]) for c in cli.CAMPAIGNS]))
"""


def test_campaigns_run_with_scipy_unimportable(tmp_path):
    proc = _fresh_python("-c", _BLOCKED_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(cli.CAMPAIGNS)
