"""Acceptance gate: ten numbered end-to-end checks at pinned tolerances.

Each check prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output); the asserts behind the line carry the diagnostic detail.
"""

import functools
import math

import numpy as np

from maxentgames import (
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    Act,
    Distribution,
    GammaTau,
    SampleSpace,
    Statistic,
    beta_derivative_check,
    blahut_arimoto,
    bregman_model,
    brier_model,
    capacity_solve,
    check_proper,
    conjugacy_check,
    discrepancy,
    div,
    find_neutral,
    log_model,
    mixture_identities,
    pythagorean_check,
    relative_model,
    restricted_upper_value,
    solve,
    specific_entropy,
    square_generator,
    support_scan,
    trace_family,
    vertices,
    xlogx_generator,
    zero_one_model,
)
from maxentgames.cli import vertex_columns
from maxentgames.derived import StatModel

SPACE = SampleSpace.of(["-1", "0", "1"])
T = Statistic(np.array([[-1.0, 0.0, 1.0]]))
BRIER = brier_model(SPACE)
LOG = log_model(SPACE)
ZERO_ONE = zero_one_model(SPACE)
MODELS = {"brier": BRIER, "log": LOG, "zero_one": ZERO_ONE}


def gamma(tau):
    return GammaTau(T, np.array([float(tau)]))


def gate(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"acceptance {num:2d} [{label}]: FAIL")
                raise
            print(f"acceptance {num:2d} [{label}]: PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Brier trace closed forms


def brier_closed_form(tau):
    if tau <= -2.0 / 3.0:
        p = np.array([-tau, 1.0 + tau, 0.0])
        return p, -2.0 * tau * (1.0 + tau), 2.0 * tau * tau, -2.0 - 4.0 * tau
    if tau < 2.0 / 3.0:
        p = np.array([1.0 / 3.0 - tau / 2.0, 1.0 / 3.0, 1.0 / 3.0 + tau / 2.0])
        return p, 2.0 / 3.0 - tau * tau / 2.0, 2.0 / 3.0 + tau * tau / 2.0, -tau
    p = np.array([0.0, 1.0 - tau, tau])
    return p, 2.0 * tau * (1.0 - tau), 2.0 * tau * tau, 2.0 - 4.0 * tau


@gate(1, "brier closed forms")
def test_01_brier_closed_forms():
    for tau in (-1.0, -0.8, -2.0 / 3.0, -0.25, 0.0, 0.5, 2.0 / 3.0, 0.9, 1.0):
        p_exp, h_exp, b0_exp, b1_exp = brier_closed_form(tau)
        sp = solve(BRIER, gamma(tau))
        assert np.max(np.abs(sp.p_star.w - p_exp)) <= 1e-9, tau
        assert abs(sp.h_star - h_exp) <= 1e-9, tau
        assert abs(sp.beta0 - b0_exp) <= 1e-9, tau
        assert abs(float(sp.beta[0]) - b1_exp) <= 1e-9, tau


# ---------------------------------------------------------------------------
# 2. zero-one trace closed forms


def zero_one_closed_form(tau):
    a = abs(tau)
    if a <= 0.5:
        p = np.array([(1.0 - 2.0 * a) / 3.0, (1.0 + a) / 3.0, (1.0 + a) / 3.0])
        h = (2.0 - a) / 3.0
    else:
        p = np.array([0.0, 1.0 - a, a])
        h = 1.0 - a
    return (p if tau >= 0 else p[::-1].copy()), h


@gate(2, "zero-one closed forms")
def test_02_zero_one_closed_forms():
    for tau in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0):
        p_exp, h_exp = zero_one_closed_form(tau)
        sp = solve(ZERO_ONE, gamma(tau))
        assert np.max(np.abs(sp.p_star.w - p_exp)) <= 1e-9, tau
        assert abs(sp.h_star - h_exp) <= 1e-9, tau


# ---------------------------------------------------------------------------
# 3. zero-one robust-Bayes act on the inner branch


@gate(3, "zero-one act reconstruction")
def test_03_zero_one_act_reconstruction():
    zeta_exp = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    for tau in (0.05, 0.125, 0.25, 0.375, 0.45):
        sp = solve(ZERO_ONE, gamma(tau))
        assert np.max(np.abs(sp.zeta_star.as_array() - zeta_exp)) <= 1e-9, tau
        assert abs(sp.beta0 - 2.0 / 3.0) <= 1e-9, tau
        assert abs(float(sp.beta[0]) + 1.0 / 3.0) <= 1e-9, tau

    # at the kink the optimal acts form the segment (0, a, 1-a), a <= 1/3
    sp = solve(ZERO_ONE, gamma(0.5))
    assert np.max(np.abs(sp.zeta_star.as_array() - zeta_exp)) <= 1e-9
    fam = sp.act_family
    assert fam is not None
    for c in np.linspace(fam.lo, fam.hi, 9):
        w = fam.act(c).as_array()
        assert abs(w[0]) <= 1e-9
        assert -1e-9 <= w[1] <= 1.0 / 3.0 + 1e-9
        assert abs(w[1] + w[2] - 1.0) <= 1e-9
    ends = sorted(fam.act(c).as_array()[1] for c in (fam.lo, fam.hi))
    assert abs(ends[1] - 1.0 / 3.0) <= 1e-9   # canonical endpoint is a = 1/3


# ---------------------------------------------------------------------------
# 4. support scan of a trace against an off-family law


@gate(4, "support scan counterexample")
def test_04_support_scan():
    grid = np.linspace(-0.95, 0.95, 39)
    trace = trace_family(BRIER, T, grid)
    scan = support_scan(BRIER, trace, Distribution(np.array([0.9, 0.0, 0.1])))
    at_08 = int(np.argmin(np.abs(grid + 0.8)))
    assert abs(scan.values[at_08] + 0.240000) <= 1e-9
    assert scan.best_index == 0
    assert abs(float(scan.best_tau[0]) + 0.95) <= 1e-12
    assert abs(scan.values[scan.best_index] + 0.195000) <= 1e-9
    zeta_best = trace.rows[scan.best_index].zeta_star.as_array()
    assert np.max(np.abs(zeta_best - np.array([0.95, 0.05, 0.0]))) <= 1e-9


# ---------------------------------------------------------------------------
# 5. log-loss family: moments, gradients, boundary faces


@gate(5, "log family fit")
def test_05_log_family():
    assert abs(solve(LOG, gamma(0.0)).h_star - math.log(3.0)) <= 1e-12
    for tau in np.linspace(-0.9, 0.9, 19):
        sp = solve(LOG, gamma(tau))
        resid = abs(float((T.matrix @ sp.p_star.w)[0]) - tau)
        assert resid <= 1e-8, tau      # fitted mean
        assert resid <= 1e-10, tau     # stationarity of the dual fit
    for tau in (-1.0, 1.0):
        sp = solve(LOG, gamma(tau))
        assert sp.h_star == 0.0
        assert not sp.tau_interior


# ---------------------------------------------------------------------------
# 6. duality: slopes, monotone multipliers, conjugate envelope


@gate(6, "duality suite")
def test_06_duality():
    grids = {
        "brier": np.linspace(-0.99, 0.99, 199),
        "zero_one": np.linspace(-0.99, 0.99, 199),
        # the log entropy's higher derivatives blow up toward the boundary,
        # so its step-0.01 window stays inside +-0.9 where stencils hold 1e-4
        "log": np.linspace(-0.9, 0.9, 181),
    }
    for name, model in MODELS.items():
        trace = trace_family(model, T, grids[name])
        rep = beta_derivative_check(trace)
        assert rep.all_ok, name
        for row in rep.rows:
            if row.kind == "smooth":
                resid = min(abs(row.slope_left - row.beta),
                            abs(row.slope_right - row.beta))
                assert resid <= 1e-4, (name, row.tau, resid)

        # multiplier monotonicity between adjacent rows
        rows = trace.rows
        for a, b in zip(rows, rows[1:]):
            if a.beta is None or b.beta is None:
                continue
            step = float(b.tau[0] - a.tau[0])
            assert step * (float(b.beta[0]) - float(a.beta[0])) <= 1e-7, name

        rep = conjugacy_check(model, T, np.arange(-0.75, 0.76, 0.25),
                              np.linspace(-2.0, 2.0, 400))
        assert rep.max_grid_residual <= 1e-3, name
        assert rep.max_matched_residual <= 1e-8, name


# ---------------------------------------------------------------------------
# 7. Pythagorean identity against a neutral reference


@gate(7, "pythagorean suite")
def test_07_pythagorean():
    uniform = Act(ACT_DISTRIBUTION, np.full(3, 1.0 / 3.0))
    for tau in np.linspace(-2.0 / 3.0, 2.0 / 3.0, 21):
        g = gamma(tau)
        sp = solve(BRIER, g)
        rep = pythagorean_check(BRIER, vertices(g).points, sp.p_star,
                                sp.zeta_star, uniform)
        assert np.max(np.abs(rep.slacks)) <= 1e-8, tau
    for tau in (0.75, 0.9):
        g = gamma(tau)
        sp = solve(BRIER, g)
        rep = pythagorean_check(BRIER, vertices(g).points, sp.p_star,
                                sp.zeta_star, uniform)
        assert rep.max_slack >= 1e-3, tau
        assert not rep.equality

    # equality holds exactly when the saddle act equalizes the constraint set
    for name, model in MODELS.items():
        ref = find_neutral(model)
        assert ref is not None, name
        for tau in np.linspace(-1.0, 1.0, 41):
            g = gamma(tau)
            sp = solve(model, g)
            rep = pythagorean_check(model, vertices(g).points, sp.p_star,
                                    sp.zeta_star, ref)
            assert rep.equality == vertex_columns(model, vertices(g), sp)[0], (name, tau)
            assert rep.min_slack >= -1e-8, (name, tau)


# ---------------------------------------------------------------------------
# 8. two independent routes to the game value


@gate(8, "cross-oracle game values")
def test_08_cross_oracle_values():
    for name, method in (("zero_one", "lp"), ("brier", "certificate")):
        model = MODELS[name]
        for tau in np.linspace(-1.0, 1.0, 41):
            upper = restricted_upper_value(model, gamma(tau))
            assert upper.method == method
            h = specific_entropy(model, T, tau)
            assert abs(upper.value - h) <= 1e-7, (name, tau)


# ---------------------------------------------------------------------------
# 9. capacity of finite models


def _upsilon_mass(result):
    return float(result.pi_star.w[result.upsilon].sum())


@gate(9, "capacity and cross-solver agreement")
def test_09_capacity():
    two = SampleSpace.of(["0", "1"])
    channel = StatModel(log_model(two), (
        Distribution(np.array([0.9, 0.1])),
        Distribution(np.array([0.1, 0.9])),
    ))
    exact = math.log(2.0) - (0.1 * math.log(10.0) + 0.9 * math.log(10.0 / 9.0))
    res = capacity_solve(channel)
    assert abs(res.i_star - 0.368064) <= 1e-6
    assert abs(res.i_star - exact) <= 1e-6
    assert np.max(np.abs(res.pi_star.w - 0.5)) <= 1e-4
    assert _upsilon_mass(res) >= 1.0 - 1e-6

    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        space = SampleSpace.of([f"x{i}" for i in range(n)])
        members = tuple(Distribution(rng.dirichlet(np.ones(n)))
                        for _ in range(m))
        sm = StatModel(log_model(space), members)
        res = capacity_solve(sm, tol=1e-6)
        oracle = blahut_arimoto(sm, tol=1e-10)
        assert abs(res.i_star - oracle.i_star) <= 1e-6, (n, m)
        assert _upsilon_mass(res) >= 1.0 - 1e-6, (n, m)
        assert _upsilon_mass(oracle) >= 1.0 - 1e-6, (n, m)


# ---------------------------------------------------------------------------
# 10. property suites, one thousand seeded cases apiece


def _space(n):
    return SampleSpace.of([f"x{i}" for i in range(n)])


def _models_at(n, cache={}):
    if n not in cache:
        sp = _space(n)
        cache[n] = (brier_model(sp), log_model(sp), zero_one_model(sp))
    return cache[n]


@gate(10, "property suites")
def test_10_property_suites():
    cases = 1000

    # entropy concavity
    rng = np.random.default_rng(0)
    for i in range(cases):
        n = int(rng.integers(2, 7))
        model = _models_at(n)[i % 3]
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        lam = float(rng.uniform())
        mixed = Distribution(lam * p + (1.0 - lam) * q)
        bound = (lam * model.entropy(Distribution(p))
                 + (1.0 - lam) * model.entropy(Distribution(q)))
        assert model.entropy(mixed) >= bound - 1e-9

    # propriety margins
    for n in (2, 4):
        sp = _space(n)
        for model in (brier_model(sp), log_model(sp), zero_one_model(sp),
                      bregman_model(sp, xlogx_generator()),
                      bregman_model(sp, square_generator(n))):
            rep = check_proper(model, trials=cases, seed=1)
            assert rep.min_margin >= -1e-9, model.kind

    # discrepancy nonnegativity and its zero at the Bayes act
    rng = np.random.default_rng(2)
    for i in range(cases):
        n = int(rng.integers(2, 7))
        model = _models_at(n)[i % 3]
        p = Distribution(rng.dirichlet(np.ones(n)))
        act = model.random_act(rng)
        assert discrepancy(model, p, act) >= -1e-12
        assert abs(discrepancy(model, p, model.bayes_act(p))) <= 1e-9

    # mixture compensation identities
    rng = np.random.default_rng(3)
    for i in range(cases):
        n = int(rng.integers(2, 7))
        model = _models_at(n)[i % 3]
        parts = [Distribution(rng.dirichlet(np.ones(n))) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        q = Distribution(rng.dirichlet(np.ones(n)))
        rep = mixture_identities(model, parts, weights, q)
        assert rep.entropy_residual <= 1e-9
        assert rep.div_residual <= 1e-9

    # expected loss is affine in the law
    rng = np.random.default_rng(4)
    for i in range(cases):
        n = int(rng.integers(2, 7))
        model = _models_at(n)[i % 3]
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        lam = float(rng.uniform())
        act = model.random_act(rng)
        left = model.expected_loss(Distribution(lam * p + (1 - lam) * q), act)
        ep = model.expected_loss(Distribution(p), act)
        eq = model.expected_loss(Distribution(q), act)
        if math.isinf(ep) or math.isinf(eq):
            assert math.isinf(left)
        else:
            assert abs(left - (lam * ep + (1 - lam) * eq)) <= 1e-9

    # subtracting a reference loss moves entropies, never Bayes acts
    rng = np.random.default_rng(5)
    for i in range(cases):
        n = int(rng.integers(2, 7))
        model = _models_at(n)[i % 3]
        if model.act_kind == ACT_DENSITY:
            ref = Act(ACT_DENSITY, rng.dirichlet(np.ones(n)) * n / model.base.total)
        else:
            ref = Act(ACT_DISTRIBUTION, rng.dirichlet(np.ones(n)))
        rel = relative_model(model, ref)
        p = Distribution(rng.dirichlet(np.ones(n)))
        q = Distribution(rng.dirichlet(np.ones(n)))
        a, b = model.bayes_act(p), rel.bayes_act(p)
        assert a.kind == b.kind
        assert np.max(np.abs(a.as_array() - b.as_array())) <= 1e-12
        assert abs(div(rel, p, q) - div(model, p, q)) <= 1e-9

    # generator specializations reproduce the named games
    rng = np.random.default_rng(6)
    for i in range(cases):
        n = int(rng.integers(2, 7))
        sp = _space(n)
        if i % 2 == 0:
            special, reference = bregman_model(sp, xlogx_generator()), log_model(sp)
        else:
            special, reference = bregman_model(sp, square_generator(n)), brier_model(sp)
        p = Distribution(rng.dirichlet(np.ones(n)))
        q = Distribution(rng.dirichlet(np.ones(n)))
        assert abs(special.entropy(p) - reference.entropy(p)) <= 1e-9
        assert abs(div(special, p, q) - div(reference, p, q)) <= 1e-9
