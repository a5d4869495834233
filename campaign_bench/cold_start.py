"""Time a fresh interpreter's import of harnack_forge and its first pass.

Usage (run.py starts it; the checkout root is found from this file):

    python3 campaign_bench/cold_start.py WORKLOAD SEED OUT_DIR

Prints one JSON line: import_s (harnack_forge with numpy and scipy),
cold_pass_s (the first pass of the workload's mix), ref_s (the mean
time of the reference computation of reference.py run just before and
just after that pass) and errors (checks the pass failed).
"""

import json
import sys
import time

start = time.perf_counter()
import run  # noqa: E402 - the bench directory is this script's sys.path[0]

cli, kinetic_pde = run.import_package()
import_s = time.perf_counter() - start

import mixes  # noqa: E402

workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
mix = mixes.build_mix(workload, seed)
run.reference.measure()  # its own first run is slow; keep that out of ref_s
before = run.reference.measure()[0]
cold_pass_s, _, results = run.run_pass(cli, mix, out_dir)
after = run.reference.measure()[0]
_, errors = run.check_pass(results, kinetic_pde.load_snapshot)
print(json.dumps({"import_s": import_s, "cold_pass_s": cold_pass_s,
                  "ref_s": (before + after) / 2, "errors": errors}))
