"""Tests of the campaign benchmark itself.

Run from the checkout root:  python3 -m pytest -q campaign_bench
"""

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import mixes  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

cli, kinetic_pde = run.import_package()

SEEDS = (1, 2, 3)
# Work count that each workload's dominant layer does per pass; it must
# be nearly independent of the seed.
WORK_COUNT = {
    "bounds": "riccati_engine.integrate_S.steps",
    "grid": "kinetic_pde.evolve.steps",
    "pairs": "control_cost.transcribe_cost.starts",
}
# CSV artifacts per pass that carry the known np.float64 defect: the
# riccati trajectories (the CASE5 one stays clean because its step size
# is never rescaled by a numpy scalar), the closed-form table and every
# pde-harnack snapshot.
KNOWN_MALFORMED = {"bounds": 5, "grid": 4, "pairs": 0}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(mixes.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert spec["per_layer"] == tracer.per_layer_spec()


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_mix_sets_every_parameter_and_no_jobs(workload):
    for campaign in mixes.build_mix(workload, 7):
        assert set(campaign.params) == set(cli.DEFAULTS[campaign.name])
        argv = campaign.argv("out")
        assert "--jobs" not in argv
        assert cli.parse_cli(argv).params == campaign.params


def test_reference_times_are_positive_and_do_not_import_the_package():
    wall, cpu = reference.measure()
    assert wall > 0 and cpu > 0
    with open(reference.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "math", "time", "numpy"}


def test_mix_is_a_function_of_the_seed():
    for workload in mixes.WORKLOADS:
        assert mixes.build_mix(workload, 3) == mixes.build_mix(workload, 3)
        assert mixes.build_mix(workload, 3) != mixes.build_mix(workload, 4)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_strict_csv_accepts_floats_and_labels(tmp_path):
    v = checks.strict_csv(_write(tmp_path, "a.csv", "t,tag,n\n0.5,xx,1\n-1e-3,CASE1,2\ninf,vv,3\n"))
    assert not v.malformed and v.rows == 3


@pytest.mark.parametrize("text, fault", [
    ("x,v\nnp.float64(0.5),1.0\n", "np.float64"),
    ("x,v\n0.5,1.0\n0.5\n", "width"),
    ("x,v\n0.5,1.0\nxx,1.0\n", "numeric column"),
    ("x,v\n0.5,1.0\n0.5,(1.0)\n", "not a literal"),
    ("x,v v\n0.5,1.0\n", "header"),
])
def test_strict_csv_faults(tmp_path, text, fault):
    v = checks.strict_csv(_write(tmp_path, "final_field.csv", text))
    assert set(v.faults) == {fault}
    assert v.known_defect == (fault == "np.float64")


def test_np_float64_is_known_only_from_the_known_writers(tmp_path):
    text = "x,v\nnp.float64(0.5),1.0\n"
    assert checks.strict_csv(_write(tmp_path, "riccati_trajectory.csv", text)).known_defect
    assert not checks.strict_csv(_write(tmp_path, "control_costs.csv", text)).known_defect


def test_tracer_wraps_names_bound_by_import_and_restores_them():
    from harnack_forge import gaussian_kernel, riccati_engine

    original = riccati_engine.bound_N
    with tracer.Tracer(run.PACKAGE) as tr:
        assert kinetic_pde.bound_N is riccati_engine.bound_N is gaussian_kernel.bound_N
        assert kinetic_pde.bound_N.__wrapped__ is original
        riccati_engine.bound_N(riccati_engine.CurvatureBound(k1=0.0, k2=0.0), 1.0)
    layers, calls = tr.end_pass()
    assert kinetic_pde.bound_N is original and gaussian_kernel.bound_N is original
    assert calls["riccati_engine.bound_N"] == calls["riccati_engine.integrate_S"] == 1
    assert layers["riccati_engine.bound_N.calls"] == 1
    assert layers["riccati_engine.integrate_S.horizon_ratio"] == 1
    assert 0 < layers["riccati_engine.integrate_S.self_s"] <= layers["riccati_engine.bound_N.total_s"]


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_workload_passes_with_seed_independent_work(workload, tmp_path):
    work = []
    for seed in SEEDS:
        mix = mixes.build_mix(workload, seed)
        with tracer.Tracer(run.PACKAGE) as tr:
            _, _, results = run.run_pass(cli, mix, str(tmp_path / str(seed)))
        layers, calls = tr.end_pass()
        failed, errors = run.check_pass(results, kinetic_pde.load_snapshot)
        assert (failed, errors) == (0, [])
        malformed, _, errors = checks.check_artifacts([(d, r) for _, d, r in results])
        assert errors == [] and malformed == KNOWN_MALFORMED[workload]
        assert not set(run.REQUIRED[workload]) - {n for n, c in calls.items() if c}
        work.append(layers[WORK_COUNT[workload]])
    assert max(work) <= 1.05 * min(work), work


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("campaign_bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_line():
    proc = _bench(ROOT, "--workload", "pairs", "--seed", "5", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in tracer.per_layer_spec()}


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "bounds", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
