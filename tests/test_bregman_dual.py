"""The Bregman dual solver against the specialized solvers it generalizes.

With the counting base, the `square` generator is the Brier score and
`xlogx` the log score, so `solve()` on those Bregman models must reproduce
`solve_brier` and `solve_log`.  `power(3)` has no specialized solver; it is
checked against the saddle inequalities and against Frank-Wolfe.  The
problems take N = 4-12 and k = 1-3, with tau inside the hull or on the
face {t_1 = -1}, where the solver restricts to the outcomes Gamma_tau can
charge (for `xlogx`, psi'(0) = -inf, so only that restriction keeps the
dual finite).
"""

import numpy as np
import pytest

from maxentgames import (
    GammaTau,
    SampleSpace,
    Statistic,
    bregman_model,
    brier_model,
    log_model,
    power_generator,
    solve,
    solve_bregman,
    solve_brier,
    solve_generic,
    solve_log,
    square_generator,
    verify_saddle,
    xlogx_generator,
)


def problems(seed, count):
    """(space, g, on_face): half with tau inside, half on {t_1 = -1}."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(max(4, k + 3), 13))
        t = rng.uniform(-1.0, 1.0, size=(k, n))
        face = case % 2 == 1
        if face:
            on = rng.choice(n, size=k + 2, replace=False)
            t[0, on] = -1.0
            p = np.zeros(n)
            p[on] = rng.dirichlet(np.ones(on.size))
        else:
            p = rng.dirichlet(np.ones(n))
        tau = t @ p
        if face:
            tau[0] = -1.0
        yield SampleSpace.of(range(n)), GammaTau(Statistic(t), tau), face


def test_square_generator_reproduces_brier():
    for case, (space, g, face) in enumerate(problems(41, 100)):
        sp = solve(bregman_model(space, square_generator(g.n)), g)
        ref = solve_brier(brier_model(space), g)
        assert sp.method == "bregman-dual"
        assert abs(sp.h_star - ref.h_star) <= 1e-12, case
        assert np.max(np.abs(sp.p_star.w - ref.p_star.w)) <= 1e-12, case
        assert (sp.beta is None) == face, case


def test_xlogx_generator_reproduces_log():
    for case, (space, g, face) in enumerate(problems(42, 100)):
        sp = solve(bregman_model(space, xlogx_generator()), g)
        ref = solve_log(log_model(space), g)
        assert abs(sp.h_star - ref.h_star) <= 1e-8, case
        assert np.max(np.abs(sp.p_star.w - ref.p_star.w)) <= 1e-8, case
        if not face:
            assert np.max(np.abs(sp.beta - ref.beta)) <= 1e-6, case


def test_power_generator_is_a_saddle_and_agrees_with_frank_wolfe():
    for case, (space, g, _) in enumerate(problems(43, 60)):
        model = bregman_model(space, power_generator(3.0))
        sp = solve(model, g)
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, case
        assert np.max(np.abs(g.statistic.matrix @ sp.p_star.w - g.tau)) <= 1e-12, case
        if g.n <= 8:
            fw = solve_generic(model, g)
            assert fw.method == "frank-wolfe"
            assert abs(fw.h_star - sp.h_star) <= 1e-8, case


def test_solve_bregman_rejects_other_models():
    space, g, _ = next(problems(44, 1))
    with pytest.raises(ValueError):
        solve_bregman(brier_model(space), g)
