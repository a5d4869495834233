"""Minimum-energy steering costs and the integrated Harnack sweep.

The cost of moving the double integrator between phase-space endpoints
has a Gramian closed form.  A direct transcription over piecewise-
constant controls recovers it from above (exactly solved, as discrete
minimum-energy control) and extends it to quadratic running
potentials, where the transcribed cost is an exact quadratic in the
controls and one linear solve gives its minimum.
The closed-form cost then powers the integrated Harnack inequality,
checked here on exact kernel densities.
"""

import numpy as np

from harnack_forge import (
    ControlProblem,
    energy_cost,
    transcribe_cost,
    verify_harnack_kernel,
)


def main():
    prob = ControlProblem.make(0.0, 1.0, [0.0], [0.0], [1.0], [0.0])
    print(f"unit displacement, tau = 1: cost {energy_cost(prob):.6f} (exactly 3)")

    path = transcribe_cost(prob, m=16).path
    ex, ev = path.endpoint()
    print(f"transcribed path endpoint: x={ex[0]:.12f}, v={ev[0]:.12f}")
    print(f"discrete path energy {path.energy():.6f} >= continuous inf 3")

    print("\ntranscription refinement (free running cost, solved exactly):")
    for m in (8, 16, 32, 64):
        res = transcribe_cost(prob, m=m)
        print(f"  m={m:3d}  cost {res.cost:.8f}  excess {res.cost - 3.0:.2e}")

    # h(x, v) = c + g.(x, v) + (x, v).H (x, v) / 2 = -(x^2 + v^2) / 4
    res = transcribe_cost(prob, m=32, h=(0.0, 0.0, np.diag([-0.5, -0.5])))
    print(f"\nwith running cost h = -(x^2+v^2)/4: cost {res.cost:.6f} ({res.status})")
    bad = transcribe_cost(prob, m=32, h=(0.0, 0.0, np.diag([400.0, 0.0])))
    print(f"with h = 200 x^2 the cost has no minimum: {bad.cost} ({bad.status})")

    print("\nintegrated Harnack on exact kernels, 1000 seeded pairs:")
    for s, t in ((1.0, 2.0), (0.5, 0.6)):
        rep = verify_harnack_kernel(s, t, n_pairs=1000, seed=0)
        print(
            f"  (s,t)=({s},{t})  min LHS/RHS {rep.min_ratio:.4f}  "
            f"equality gap {rep.equality_gap:.1e}"
        )
    print("ratios stay >= 1: the inequality holds with equality at the means")


if __name__ == "__main__":
    main()
