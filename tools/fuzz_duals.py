"""Near-degenerate interior tau through the dual solvers: a report, not a gate.

    python tools/fuzz_duals.py

Run from the root of a source checkout; the package is imported from ./src.
It takes no arguments and exits 0 whatever the solvers do.

First the known reproducers of the dual Newton's stalls (ROADMAP item 21),
one line per problem and loss.  Then FUZZ_COUNT seeded tau: N 4-8, k 1-3, a
statistic uniform on [-1, 1] rounded to 3 decimals, and tau = T p for a law
p whose one or two smallest charges lie between 1e-9 and 1e-5, so tau lies
inside the hull, within about a charge of a face.  Each tau runs `solve`,
then `verify_saddle`, under Brier, log, Bregman xlogx and Bregman power 3
loss, and the report counts, per loss, how each run ended:

- the solve's method, when `verify_saddle` certifies its saddle;
- "<method>, saddle rejected", when it does not;
- "verify: <exception class>", when `verify_saddle` raises;
- the exception class, when `solve` raises.

The counts are what a change to the dual solvers, or to the rank and
support tests they rest on, should be read against.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import maxentgames as mg  # noqa: E402

SEED = 2026
FUZZ_COUNT = 400
LOSSES = {
    "brier": lambda space: mg.brier_model(space),
    "log": lambda space: mg.log_model(space),
    "bregman xlogx": lambda space: mg.bregman_model(space, mg.xlogx_generator()),
    "bregman power 3": lambda space: mg.bregman_model(space, mg.power_generator(3.0)),
}
XLOGX_T = [[-0.403, -0.463, -0.530, 0.952], [-0.361, -0.764, 0.830, -0.683],
           [0.473, 0.318, 0.435, 0.547]]
# (name, statistic, law p with tau = T p, losses); "relative log" is log
# loss relative to the density (0.4, 0.3, 0.2, 0.1)
REPRODUCERS = (
    ("xlogx, charge 3e-7", XLOGX_T, (3e-5, 0.85, 0.1499697, 3e-7),
     ("bregman xlogx", "log")),
    ("xlogx, charge 1e-8", XLOGX_T, (1e-5, 0.85, 0.14998999, 1e-8),
     ("bregman xlogx", "relative log")),
    ("power 3", [[0.214, 0.893, -0.77, -0.841], [-0.617, -0.559, -0.674, -0.848]],
     (0.13726326334951117, 1.8147100696610506e-08, 0.8627367146557937,
      3.847594445429525e-09), ("bregman power 3",)),
    ("brier", [[-0.127, -0.965, -0.335, -0.827], [-0.085, 0.603, 0.963, -0.444],
               [-0.701, -0.906, -0.385, -0.484]],
     (5.858405813044315e-08, 0.9628212258536517, 0.03717867585463324,
      3.970765694660526e-08), ("brier",)),
)


def space(n: int):
    return mg.SampleSpace.of([str(i) for i in range(n)])


def model_for(loss: str, n: int):
    if loss == "relative log":
        density = mg.Act(mg.ACT_DENSITY, np.array([0.4, 0.3, 0.2, 0.1]))
        return mg.relative_model(mg.log_model(space(n)), density)
    return LOSSES[loss](space(n))


def outcome(model, g, detail: bool = False) -> str:
    """How `solve`, then `verify_saddle`, ended on one Gamma_tau; with
    `detail`, an exception's message too."""
    try:
        sp = mg.solve(model, g)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}" if detail else type(exc).__name__
    try:
        check = mg.verify_saddle(model, g, sp.p_star, sp.zeta_star)
    except Exception as exc:
        return f"verify: {type(exc).__name__}"
    return sp.method if check.is_saddle else f"{sp.method}, saddle rejected"


def fuzz_problem(rng):
    """(T, tau) with tau = T p, p's one or two smallest charges in [1e-9, 1e-5]."""
    n = int(rng.integers(4, 9))
    k = int(rng.integers(1, 4))
    t = np.round(rng.uniform(-1.0, 1.0, (k, n)), 3)
    p = rng.dirichlet(np.ones(n))
    small = rng.choice(n, int(rng.integers(1, 3)), replace=False)
    p[small] = 10.0 ** rng.uniform(-9.0, -5.0, small.size)
    rest = np.setdiff1d(np.arange(n), small)
    p[rest] *= (1.0 - p[small].sum()) / p[rest].sum()
    return t, t @ p


def main() -> int:
    print("reproducers")
    for name, t, p, losses in REPRODUCERS:
        t = np.array(t)
        g = mg.GammaTau(mg.Statistic(t), t @ np.array(p))
        for loss in losses:
            print(f"  {name:20s} {loss:16s} {outcome(model_for(loss, t.shape[1]), g, True)}")
    rng = np.random.default_rng(SEED)
    counts = {loss: Counter() for loss in LOSSES}
    for _ in range(FUZZ_COUNT):
        t, tau = fuzz_problem(rng)
        g = mg.GammaTau(mg.Statistic(t), tau)
        for loss in LOSSES:
            counts[loss][outcome(model_for(loss, t.shape[1]), g)] += 1
    print(f"fuzz: {FUZZ_COUNT} near-degenerate interior tau, seed {SEED}")
    for loss, tally in counts.items():
        for end, count in sorted(tally.items(), key=lambda item: (-item[1], item[0])):
            print(f"  {loss:16s} {end:36s} {count:4d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
