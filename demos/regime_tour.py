"""Tour the five curvature regimes and their closed-form bounds.

Each nonnegative pair (k1, k2) lands in one of five regimes by the sign
of k2^2 - 2 k1; the scalar functions s0, s1, s2 then have hyperbolic,
mixed, or polynomial closed forms.  The script classifies one pair per
regime, checks the closed form against the matrix-exponential oracle,
and prints the reconciliation rows where the literal published formulas
disagree with that oracle.
"""

import numpy as np

from harnack_forge import (
    CurvatureBound,
    S_from_M,
    assemble_bound,
    classify,
    eval_sfuncs,
    fundamental_M,
    reconcile,
)

PAIRS = [(1.0, 2.0), (2.0, 2.0), (1.0, 0.5), (0.0, 1.0), (0.0, 0.0)]


def main():
    t = 1.0
    print(f"one pair per regime, evaluated at t = {t}\n")
    for k1, k2 in PAIRS:
        regime = classify(k1, k2)
        sf = eval_sfuncs(k1, k2, t)
        closed = assemble_bound(sf).entries
        oracle = S_from_M(fundamental_M(CurvatureBound(k1=k1, k2=k2, n=1), t)).entries
        rel = np.abs(closed - oracle).max() / np.abs(oracle).max()
        print(
            f"  ({k1:3.1f}, {k2:3.1f})  {regime.tag}  "
            f"s0={sf.s0:9.4f}  N_vv={closed[1, 1]:+8.4f}  "
            f"oracle rel {rel:.1e}"
        )

    print("\nprinted-vs-oracle reconciliation (free case):")
    rows = reconcile(0.0, 0.0, [0.5, 1.0, 2.0])
    for r in rows:
        print(
            f"  t={r.t:3.1f}  block {r.block}:  printed {r.printed:+9.4f}  "
            f"oracle {r.oracle:+9.4f}  ratio {r.ratio:.12f}"
        )
    print("the (x,x) and (x,v) entries disagree by exactly the factor 1/2;")
    print("the (v,v) entry agrees, so no row is emitted for it")


if __name__ == "__main__":
    main()
