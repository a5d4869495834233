"""Campaign benchmark for harnack-forge.

Runs one workload's mix of harnack-verify campaigns in process, through
verifier_cli.parse_cli and run_campaign (the path the CLI takes), in a
closed loop: one campaign at a time, each pass after the previous one.
Run it from the root of a checkout:

    python3 campaign_bench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics: iter_ref and cpu_ref (median
wall and process CPU time of one pass, each divided by the time of the
fixed reference computation of reference.py run just before and just
after the pass, which cancels the shared host's changing speed),
setup_s (the median, over SETUP_PROBES fresh interpreters, of the time
to import harnack_forge plus the excess of their cold first pass over a
warm pass at the same speed, iter_ref times the probe's reference time)
and peak_rss_mb.  The raw median pass times in seconds are printed in
the summary lines.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracer.REPORTED (medians per pass), the count of
malformed CSV artifacts per pass, and trace.overhead; a function of
REQUIRED that recorded no call is named and makes the result incorrect.

BLAS runs on one thread.  With OpenBLAS's default of a thread per core
the helper thread spins on the program's 4x4 products: it doubles the
CPU time and, with another process busy on a 2-core machine, slows a
pass by about 80 %, so the figures would measure the scheduler.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (campaigns run and campaigns that failed a
check) and metrics.  The lines before it are a summary and the
environment record.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Before numpy is first imported, here and in every child interpreter.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import mixes  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from checks import check_artifacts, check_report  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PACKAGE = "harnack_forge"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3

UNITS = {"iter_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# Functions each workload must exercise; the traced run names any that
# recorded no call instead of reporting a zero for it.
REQUIRED = {
    "bounds": ("riccati_engine.integrate_S", "riccati_engine.bound_N",
               "riccati_engine.fundamental_M", "riccati_engine.S_from_M",
               "riccati_engine.residual_defect", "closed_forms.eval_sfuncs",
               "closed_forms.reconcile", "gaussian_kernel.sharpness_gap",
               "verifier_cli.run_campaign"),
    "grid": ("kinetic_pde.evolve", "kinetic_pde.verify_matrix_harnack",
             "kinetic_pde.verify_scalar_harnack", "kinetic_pde.snapshot_csv",
             "kinetic_pde.save_snapshot", "riccati_engine.bound_N",
             "riccati_engine.integrate_S", "closed_forms.eval_sfuncs",
             "verifier_cli.run_campaign"),
    "pairs": ("control_cost.transcribe_cost", "control_cost.energy_cost",
              "control_cost.verify_harnack_kernel", "control_cost.log_harnack_rhs",
              "gaussian_kernel.log_density", "closed_forms.eval_sfuncs",
              "verifier_cli.run_campaign"),
}


def import_package():
    """Import harnack_forge from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from the root of a harnack-forge checkout")
    sys.path.insert(0, SRC)
    from harnack_forge import kinetic_pde, verifier_cli

    if os.path.dirname(os.path.dirname(os.path.abspath(verifier_cli.__file__))) != SRC:
        sys.exit(f"error: imported {PACKAGE} from {verifier_cli.__file__}, not {SRC}")
    return verifier_cli, kinetic_pde


def run_pass(cli, mix, out_root):
    """Run every campaign of `mix` once; returns (wall_s, cpu_s, results).

    results holds (campaign, out_dir, report), where a campaign that
    raised carries the exception in place of its report.
    """
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, campaign in enumerate(mix):
        out_dir = os.path.join(out_root, f"{i}-{campaign.name}")
        try:
            report = cli.run_campaign(cli.parse_cli(campaign.argv(out_dir)))
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as failed
            report = exc
        results.append((campaign, out_dir, report))
    return time.perf_counter() - wall0, time.process_time() - cpu0, results


def check_pass(results, load_snapshot):
    """Check every campaign of one pass; returns (n_failed, messages)."""
    failed, errors = 0, []
    for campaign, out_dir, report in results:
        if isinstance(report, BaseException):
            problems = [f"raised {type(report).__name__}: {report}"]
        else:
            try:
                problems = check_report(campaign, out_dir, report, load_snapshot)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        failed += bool(problems)
        errors += [f"{campaign.name} in {os.path.basename(out_dir)}: {p}"
                   for p in problems]
    return failed, errors


def _openblas_libraries():
    """Version string and thread count of each OpenBLAS this process loaded."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            name = os.path.basename(line.split()[-1]).lower()
            if "openblas" in name and ".so" in name:
                paths.add(line.split()[-1])
    libs = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        libs[os.path.basename(path)] = entry
    return libs


def environment():
    """Versions, BLAS threading and machine load, recorded with each result."""
    import numpy
    import scipy

    def blas_version(module):
        return module.__config__.CONFIG["Build Dependencies"]["blas"].get("version")

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "openblas": _openblas_libraries(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def steal_seconds():
    """CPU time the hypervisor has taken from this machine since boot.

    Recorded before and after a run: passes slowed by a busy host show up
    here, not in the program.  None where /proc/stat has no steal column.
    """
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def setup_probes(workload, seed, out_root):
    """Import time, cold first-pass time and reference time of fresh interpreters."""
    env = {k: v for k, v in os.environ.items() if k != "HARNACK_FORGE_JOBS"}
    probes = []
    for k in range(SETUP_PROBES):
        out_dir = os.path.join(out_root, f"probe-{k}")
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "cold_start.py"),
             workload, str(seed), out_dir],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold-start probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(cli, load_snapshot, mix, seconds, out_root, traced_with=None):
    """Cold pass, then passes until `seconds` have elapsed.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced and traced, and the per-layer metrics of each traced pass
    are collected.  The reference computation runs before the first pass
    and after each pass; a pass's times are also kept divided by the mean
    of the reference times on either side of it.  Every pass's reports
    are checked outside the timed region; the CSV artifacts of the last
    pass are parsed strictly.
    """
    state = {"walls": [], "cpus": [], "iter_refs": [], "cpu_refs": [],
             "ref_walls": [], "traced_refs": [], "layers": [],
             "called": set(), "errors": [], "attempted": 0, "failed": 0}

    def account(results):
        failed, errors = check_pass(results, load_snapshot)
        state["attempted"] += len(results)
        state["failed"] += failed
        state["errors"] += errors

    def strict(results):
        count, verdicts, errors = check_artifacts(
            [(d, r) for _, d, r in results if isinstance(r, dict)])
        state["errors"] += errors
        return count, verdicts

    cold_wall, _, results = run_pass(cli, mix, out_root)
    account(results)
    end = time.perf_counter() + seconds
    n = 0
    before = reference.measure()
    while time.perf_counter() < end or len(state["walls"]) < MIN_PASSES or (
            traced_with is not None and len(state["traced_refs"]) < MIN_PASSES):
        traced = traced_with is not None and n % 2 == 1
        if traced:
            with traced_with as tracer:
                wall, cpu, results = run_pass(cli, mix, out_root)
            layers, calls = tracer.end_pass()
            state["layers"].append(layers)
            state["called"].update(name for name, c in calls.items() if c)
        else:
            wall, cpu, results = run_pass(cli, mix, out_root)
        after = reference.measure()
        ref_wall, ref_cpu = ((b + a) / 2 for b, a in zip(before, after))
        before = after
        if traced:
            state["traced_refs"].append(wall / ref_wall)
        else:
            state["walls"].append(wall)
            state["cpus"].append(cpu)
            state["iter_refs"].append(wall / ref_wall)
            state["cpu_refs"].append(cpu / ref_cpu)
            state["ref_walls"].append(ref_wall)
        account(results)
        n += 1
    state["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    state["malformed"], state["verdicts"] = strict(results)
    state["cold_wall"] = cold_wall
    return state


def summarize_artifacts(verdicts):
    parts = []
    for v in verdicts:
        if v.malformed:
            where = os.path.join(os.path.basename(os.path.dirname(v.path)),
                                 os.path.basename(v.path))
            parts.append(f"{where} ({v.faults['np.float64']} "
                         f"np.float64 fields of {v.rows} rows)")
    return "; ".join(parts) or "none"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cli, kinetic_pde = import_package()
    # Campaigns run serially, as a user runs them by default; a worker
    # count from the environment would change what is measured.
    os.environ.pop("HARNACK_FORGE_JOBS", None)
    load_before, steal_before = os.getloadavg(), steal_seconds()
    mix = mixes.build_mix(args.workload, args.seed)
    out_root = os.path.join(ROOT, ".campaign_bench_out", f"{args.workload}-{os.getpid()}")
    try:
        probes = [] if args.trace else setup_probes(args.workload, args.seed, out_root)
        state = measure(cli, kinetic_pde.load_snapshot, mix, args.seconds, out_root,
                        traced_with=tracer.Tracer(PACKAGE) if args.trace else None)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_root))
        except OSError:
            pass  # another run still uses it

    iter_ref = statistics.median(state["iter_refs"])
    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    if steal_before is not None:
        env["steal_s"] = steal_seconds() - steal_before
    errors = state["errors"]
    lines = [
        f"workload={args.workload} seed={args.seed} campaigns_per_pass={len(mix)} "
        f"untraced_passes={len(state['walls'])} traced_passes={len(state['traced_refs'])} "
        f"campaigns_attempted={state['attempted']} campaigns_failed={state['failed']}",
        f"artifacts_malformed={state['malformed']} per pass: "
        f"{summarize_artifacts(state['verdicts'])}",
        f"untraced pass median: wall {statistics.median(state['walls']):.4f} s, "
        f"cpu {statistics.median(state['cpus']):.4f} s; reference "
        f"{statistics.median(state['ref_walls']):.5f} s",
    ]
    if args.trace:
        missing = sorted(set(REQUIRED[args.workload]) - state["called"])
        if missing:
            errors.append("traced run recorded no call of required function(s): "
                          + ", ".join(missing))
        units = {m["name"]: m["unit"] for m in tracer.per_layer_spec()}
        values = {name: statistics.median(layer[name] for layer in state["layers"])
                  for name in state["layers"][0]}
        values["artifacts_malformed"] = float(state["malformed"])
        values["trace.overhead"] = statistics.median(state["traced_refs"]) / iter_ref
        metrics = {name: _metric(values[name], units[name]) for name in units}
    else:
        # An excess is never negative: a cold pass that happens to run
        # faster than a warm pass at its speed shows no set-up cost, not a gain.
        for p in probes:
            p["excess_s"] = max(0.0, p["cold_pass_s"] - iter_ref * p["ref_s"])
        setup_s = statistics.median(p["import_s"] + p["excess_s"] for p in probes)
        metrics = {
            "iter_ref": _metric(iter_ref, UNITS["iter_ref"]),
            "cpu_ref": _metric(statistics.median(state["cpu_refs"]), UNITS["cpu_ref"]),
            "setup_s": _metric(setup_s, UNITS["setup_s"]),
            "peak_rss_mb": _metric(state["peak_rss_mb"], UNITS["peak_rss_mb"]),
        }
        lines.append("setup probes: " + ", ".join(
            f"import {p['import_s']:.3f} s, cold pass {p['cold_pass_s']:.3f} s, "
            f"excess {p['excess_s']:.3f} s" for p in probes)
            + f"; own cold pass {state['cold_wall']:.3f} s")
        errors += [f"setup probe {k}: {e}" for k, p in enumerate(probes) for e in p["errors"]]
    lines.append("untraced pass wall s: " + " ".join(f"{w:.3f}" for w in state["walls"]))
    lines += [f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    for line in lines:
        print(line)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not errors, "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
