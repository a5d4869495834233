"""Per-layer tracing of the harnack_forge package, measured from outside.

The tracer replaces every public function of the traced modules with a
wrapper that records a span (start, end, enclosing span) and, for the
functions whose work can be counted, a work count taken from the call's
arguments or result.  Because several modules import functions by name
(kinetic_pde binds bound_N, eval_sfuncs and assemble_bound; closed_forms
binds fundamental_M and S_from_M; gaussian_kernel binds bound_N), each
function is replaced in every harnack_forge module that binds it.
Functions imported inside a function body (log_density in
verify_harnack_kernel, eval_sfuncs in log_harnack_rhs) are looked up on
their home module at call time and so see the replacement too.

A span's self time is its duration minus the time covered by the spans
it encloses.  Spans are folded into per-pass totals as they close.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("riccati_engine", "closed_forms", "gaussian_kernel", "control_cost",
           "kinetic_pde", "verifier_cli")

# Per-layer metrics reported by the traced run, as (function, stat).
# calls / self_s / total_s come from spans; the others from COUNTERS.
REPORTED = {
    "riccati_engine.integrate_S": ("calls", "steps", "horizon_t", "horizon_ratio",
                                   "self_s"),
    "riccati_engine.bound_N": ("calls", "total_s"),
    "riccati_engine.fundamental_M": ("calls", "self_s"),
    "riccati_engine.S_from_M": ("self_s",),
    "riccati_engine.residual_defect": ("self_s",),
    "kinetic_pde.evolve": ("steps", "cell_steps", "self_s"),
    "kinetic_pde.verify_matrix_harnack": ("n_tested", "self_s"),
    "kinetic_pde.verify_scalar_harnack": ("self_s",),
    "kinetic_pde.snapshot_csv": ("bytes", "self_s"),
    "kinetic_pde.save_snapshot": ("bytes", "self_s"),
    "control_cost.transcribe_cost": ("calls", "starts", "converged",
                                     "converged_ratio", "self_s"),
    "control_cost.energy_cost": ("calls", "self_s"),
    "control_cost.verify_harnack_kernel": ("self_s", "total_s"),
    "control_cost.log_harnack_rhs": ("calls",),
    "gaussian_kernel.log_density": ("calls", "points", "self_s"),
    "gaussian_kernel.sharpness_gap": ("self_s",),
    "closed_forms.eval_sfuncs": ("calls", "self_s"),
    "closed_forms.reconcile": ("self_s",),
    "verifier_cli.run_campaign": ("calls", "self_s"),
    "verifier_cli.artifacts": ("bytes",),
}


# Unit and direction of each reported stat.  horizon_t is the summed
# integration horizon in the equation's time units; horizon_ratio divides
# it by the sum, over distinct curvatures, of the largest horizon asked
# for, so 1 means no interval was integrated twice.
STAT_UNITS = {
    "calls": ("count", "lower"), "steps": ("count", "lower"),
    "cell_steps": ("count", "lower"), "horizon_t": ("model_t", "lower"),
    "horizon_ratio": ("ratio", "lower"), "self_s": ("s", "lower"),
    "total_s": ("s", "lower"), "bytes": ("B", "lower"),
    "n_tested": ("count", "higher"), "starts": ("count", "lower"),
    "converged": ("count", "higher"), "converged_ratio": ("ratio", "higher"),
    "points": ("count", "higher"),
}


def per_layer_spec():
    """The per_layer entries of BENCHMARK.json, in report order."""
    spec = [{"name": f"{name}.{stat}", "unit": STAT_UNITS[stat][0],
             "better": STAT_UNITS[stat][1]}
            for name, stats in REPORTED.items() for stat in stats]
    return spec + [
        {"name": "artifacts_malformed", "unit": "count", "better": "lower"},
        {"name": "trace.overhead", "unit": "ratio", "better": "lower"},
    ]


def _curvature_key(K):
    return np.asarray(getattr(K, "K", K), dtype=float).tobytes()


def _count_integrate_S(stats, args, kwargs, result):
    t_end = float(kwargs.get("t_end", args[1] if len(args) > 1 else np.nan))
    stats["steps"] += len(result) - 1
    stats["horizon_t"] += t_end
    key = _curvature_key(kwargs.get("K", args[0] if args else None))
    stats.horizons[key] = max(stats.horizons.get(key, 0.0), t_end)


def _count_evolve(stats, args, kwargs, result):
    out, report = result
    stats["steps"] += report.n_steps
    stats["cell_steps"] += report.n_steps * out.rho.size


def _count_n_tested(stats, args, kwargs, result):
    stats["n_tested"] += result.n_tested


def _count_text_bytes(stats, args, kwargs, result):
    stats["bytes"] += len(result)  # the CSV text is ASCII


def _count_file_bytes(stats, args, kwargs, result):
    stats["bytes"] += sum(os.path.getsize(path) for path in result)


def _count_starts(stats, args, kwargs, result):
    stats["starts"] += result.n_starts
    stats["converged"] += result.n_converged


def _count_points(stats, args, kwargs, result):
    stats["points"] += np.asarray(result).size


def _count_artifact_bytes(stats, args, kwargs, result):
    cfg = kwargs.get("cfg", args[0] if args else None)
    artifacts = stats.tracer.stats["verifier_cli.artifacts"]
    artifacts["bytes"] += sum(os.path.getsize(os.path.join(cfg.out_dir, name))
                              for name in result["artifacts"])


COUNTERS = {
    "riccati_engine.integrate_S": _count_integrate_S,
    "kinetic_pde.evolve": _count_evolve,
    "kinetic_pde.verify_matrix_harnack": _count_n_tested,
    "kinetic_pde.snapshot_csv": _count_text_bytes,
    "kinetic_pde.save_snapshot": _count_file_bytes,
    "control_cost.transcribe_cost": _count_starts,
    "gaussian_kernel.log_density": _count_points,
    "verifier_cli.run_campaign": _count_artifact_bytes,
}


class FunctionStats(defaultdict):
    """Totals of one traced function within one pass."""

    def __init__(self, tracer):
        super().__init__(float)
        self.tracer = tracer
        self.horizons = {}


class Tracer:
    """Wraps the package's public functions while active (a context manager).

    `stats` maps "module.function" to the FunctionStats of the current
    pass; `end_pass()` returns them and starts the next pass.
    """

    def __init__(self, package):
        self.package = package
        self.stats = defaultdict(lambda: FunctionStats(self))
        self._stack = []  # [start, child time] of each open span
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, func):
        stats_of = self.stats
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stats = stats_of[name]
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[1]
            if counter is not None:
                counter(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def __enter__(self):
        modules = {m: sys.modules[f"{self.package}.{m}"] for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        binders = [mod for key, mod in sys.modules.items()
                   if key == self.package or key.startswith(self.package + ".")]
        for module in binders:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        return False

    def end_pass(self):
        """Finish a pass: (per-layer metrics by name, call count by function)."""
        out = {}
        for name, wanted in REPORTED.items():
            stats = self.stats.get(name) or FunctionStats(self)
            derived = dict(stats)
            if stats.horizons:
                derived["horizon_ratio"] = stats["horizon_t"] / sum(stats.horizons.values())
            if stats.get("starts"):
                derived["converged_ratio"] = stats["converged"] / stats["starts"]
            for stat in wanted:
                out[f"{name}.{stat}"] = float(derived.get(stat, 0.0))
        calls = {name: int(s["calls"]) for name, s in self.stats.items()}
        self.stats.clear()
        return out, calls
