"""Saddle-point solvers and family diagnostics on the three-point space.

The closed forms frozen here were derived by hand for the statistic
t = (-1, 0, 1): quadratic-score and hit-or-miss games admit piecewise
polynomial solutions, the log game reduces to a softmax tilt.
"""

import numpy as np
import pytest

from maxentgames import (
    Act,
    CombinatorialBlowup,
    Distribution,
    GammaTau,
    Infeasible,
    MaxIterExceeded,
    SampleSpace,
    Statistic,
    beta_derivative_check,
    brier_model,
    conjugacy_check,
    lafferty_family,
    log_model,
    natural_tilt,
    solve,
    solve_brier,
    solve_generic,
    solve_log,
    solve_zero_one,
    specific_entropy,
    support_scan,
    trace_family,
    verify_saddle,
    vertices,
    zero_one_model,
)
from maxentgames.maxent import _slope_root

SPACE = SampleSpace.of(["-1", "0", "1"])
T = Statistic(np.array([[-1.0, 0.0, 1.0]]))
BRIER = brier_model(SPACE)
LOG = log_model(SPACE)
ZERO_ONE = zero_one_model(SPACE)

TOL = 1e-9


def gamma(tau):
    return GammaTau(T, np.array([float(tau)]))


def brier_closed_form(tau):
    """Piecewise solution of the quadratic-score game: (p, h, beta0, beta1)."""
    if tau < -2.0 / 3.0:
        p = np.array([-tau, 1.0 + tau, 0.0])
        return p, -2.0 * tau * (1.0 + tau), 2.0 * tau * tau, -2.0 - 4.0 * tau
    if tau > 2.0 / 3.0:
        p = np.array([0.0, 1.0 - tau, tau])
        return p, 2.0 * tau * (1.0 - tau), 2.0 * tau * tau, 2.0 - 4.0 * tau
    p = np.array([1.0 / 3.0 - tau / 2.0, 1.0 / 3.0, 1.0 / 3.0 + tau / 2.0])
    return p, 2.0 / 3.0 - tau * tau / 2.0, 2.0 / 3.0 + tau * tau / 2.0, -tau


def zero_one_closed_form(tau):
    """Hit-or-miss game maximizer and value; mirror symmetry handles tau < 0."""
    if tau < 0.0:
        p, h = zero_one_closed_form(-tau)
        return p[::-1], h
    if tau > 0.5:
        return np.array([0.0, 1.0 - tau, tau]), 1.0 - tau
    return (np.array([(1.0 - 2.0 * tau) / 3.0, (1.0 + tau) / 3.0, (1.0 + tau) / 3.0]),
            (2.0 - tau) / 3.0)


# ---------------------------------------------------------------------------
# quadratic score


def test_brier_closed_form_grid():
    for tau in (-1.0, -0.8, -2.0 / 3.0, -0.25, 0.0, 0.5, 2.0 / 3.0, 0.9, 1.0):
        sp = solve_brier(BRIER, gamma(tau))
        p, h, b0, b1 = brier_closed_form(tau)
        assert np.max(np.abs(sp.p_star.w - p)) <= TOL, tau
        assert abs(sp.h_star - h) <= TOL
        assert abs(sp.beta0 - b0) <= TOL
        assert abs(float(sp.beta[0]) - b1) <= TOL


def test_brier_random_taus_match_closed_form():
    rng = np.random.default_rng(11)
    for tau in rng.uniform(-0.999, 0.999, size=60):
        sp = solve_brier(BRIER, gamma(tau))
        p, h, b0, b1 = brier_closed_form(float(tau))
        assert np.max(np.abs(sp.p_star.w - p)) <= 1e-8
        assert abs(sp.h_star - h) <= 1e-9
        assert abs(float(sp.beta[0]) - b1) <= 1e-8


def test_brier_flags_inner_vs_outer():
    inner = solve_brier(BRIER, gamma(0.25))
    assert inner.is_linear and inner.is_regular and inner.is_equalizer
    assert inner.tau_interior
    outer = solve_brier(BRIER, gamma(0.9))
    assert not outer.is_linear    # loss off the support breaks the affine fit
    assert outer.is_regular       # still affine where P* lives
    assert not outer.is_equalizer
    assert outer.tau_interior


def test_brier_hull_endpoints_one_sided_slope():
    left = solve_brier(BRIER, gamma(-1.0))
    assert left.h_star == 0.0 and not left.tau_interior
    assert abs(float(left.beta[0]) - 2.0) <= TOL
    assert abs(left.beta0 - 2.0) <= TOL
    right = solve_brier(BRIER, gamma(1.0))
    assert abs(float(right.beta[0]) + 2.0) <= TOL
    assert abs(right.beta0 - 2.0) <= TOL


def test_brier_act_is_maximizer():
    sp = solve_brier(BRIER, gamma(0.3))
    assert np.max(np.abs(sp.zeta_star.payload - sp.p_star.w)) <= TOL
    assert sp.bayes_margin <= 1e-9
    assert sp.vertex_margin <= 1e-7


# ---------------------------------------------------------------------------
# hit-or-miss score


def test_zero_one_closed_form_grid():
    for tau in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0):
        sp = solve_zero_one(ZERO_ONE, gamma(tau))
        p, h = zero_one_closed_form(tau)
        assert np.max(np.abs(sp.p_star.w - p)) <= TOL, tau
        assert abs(sp.h_star - h) <= TOL


def test_zero_one_inner_act_and_coefficients():
    for tau in (0.1, 0.25, 0.4):
        sp = solve_zero_one(ZERO_ONE, gamma(tau))
        assert np.max(np.abs(sp.zeta_star.payload - [0.0, 1 / 3, 2 / 3])) <= TOL
        assert abs(sp.beta0 - 2.0 / 3.0) <= TOL
        assert abs(float(sp.beta[0]) + 1.0 / 3.0) <= TOL
        assert sp.act_family is None    # unique optimal act strictly inside
    mirrored = solve_zero_one(ZERO_ONE, gamma(-0.25))
    assert np.max(np.abs(mirrored.zeta_star.payload - [2 / 3, 1 / 3, 0.0])) <= TOL
    assert abs(float(mirrored.beta[0]) - 1.0 / 3.0) <= TOL


def test_zero_one_half_tau_act_family():
    sp = solve_zero_one(ZERO_ONE, gamma(0.5))
    fam = sp.act_family
    assert fam is not None
    # canonical member equalizes, which forces the inner-region act
    assert np.max(np.abs(sp.zeta_star.payload - [0.0, 1 / 3, 2 / 3])) <= 1e-8
    assert abs(sp.beta0 - 2.0 / 3.0) <= 1e-8
    assert abs(float(sp.beta[0]) + 1.0 / 3.0) <= 1e-8
    vs = vertices(gamma(0.5))
    seen_point_mass = False
    for c in np.linspace(fam.lo, fam.hi, 9):
        z = fam.act(c).payload
        assert abs(z[0]) <= 1e-8             # never guess the excluded outcome
        assert z[1] <= 1.0 / 3.0 + 1e-8      # worst-case bound on the middle
        worst = max(float(v @ (1.0 - z)) for v in vs.points)
        assert abs(worst - sp.h_star) <= 1e-8
        seen_point_mass = seen_point_mass or abs(z[2] - 1.0) <= 1e-8
    assert seen_point_mass                   # family reaches (0, 0, 1)


def test_zero_one_tau_zero_act_family():
    sp = solve_zero_one(ZERO_ONE, gamma(0.0))
    assert np.max(np.abs(sp.zeta_star.payload - 1.0 / 3.0)) <= TOL
    fam = sp.act_family
    assert fam is not None
    ends = sorted(fam.act(c).payload[0] for c in (fam.lo, fam.hi))
    assert abs(ends[0] - 0.0) <= 1e-8 and abs(ends[1] - 2.0 / 3.0) <= 1e-8
    for c in np.linspace(fam.lo, fam.hi, 7):
        z = fam.act(c).payload
        assert abs(z[1] - 1.0 / 3.0) <= 1e-8   # middle weight is pinned


def test_zero_one_act_family_rejects_out_of_range():
    fam = solve_zero_one(ZERO_ONE, gamma(0.5)).act_family
    with pytest.raises(ValueError):
        fam.act(fam.hi + 1.0)


def test_zero_one_outer_and_boundary():
    outer = solve_zero_one(ZERO_ONE, gamma(0.75))
    assert np.max(np.abs(outer.zeta_star.payload - [0.0, 0.0, 1.0])) <= TOL
    assert abs(outer.beta0 - 1.0) <= TOL
    assert abs(float(outer.beta[0]) + 1.0) <= TOL
    assert not outer.is_equalizer
    for tau, target in ((-1.0, 1.0), (1.0, -1.0)):
        sp = solve_zero_one(ZERO_ONE, gamma(tau))
        assert abs(sp.h_star) <= 1e-12 and not sp.tau_interior
        assert abs(float(sp.beta[0]) - target) <= 1e-6


# ---------------------------------------------------------------------------
# log score


def test_log_uniform_is_max_entropy():
    sp = solve_log(LOG, gamma(0.0))
    assert abs(sp.h_star - np.log(3.0)) <= 1e-12
    assert np.max(np.abs(sp.p_star.w - 1.0 / 3.0)) <= 1e-10


def test_log_grid_moment_and_gradient():
    for tau in np.linspace(-0.9, 0.9, 19):
        sp = solve_log(LOG, gamma(tau))
        assert abs(float((T.matrix @ sp.p_star.w)[0]) - tau) <= 1e-8
        assert sp.gap <= 1e-10
        assert sp.is_regular and sp.method == "log-newton"
        assert abs(sp.beta0 + float(sp.beta[0]) * tau - sp.h_star) <= 1e-9


def test_log_frozen_row():
    sp = solve_log(LOG, gamma(0.5))
    assert np.max(np.abs(sp.p_star.w - [0.116204060378, 0.267591879244,
                                        0.616204060378])) <= 1e-10
    assert abs(sp.h_star - 0.901234700635) <= 1e-10
    assert abs(sp.beta0 - 1.31829229781) <= 1e-9
    assert abs(float(sp.beta[0]) + 0.834115194351) <= 1e-9


def test_log_boundary_restricts_to_face():
    for tau, idx in ((-1.0, 0), (1.0, 2)):
        sp = solve_log(LOG, gamma(tau))
        assert sp.h_star == 0.0
        assert sp.beta is None and sp.beta0 is None
        assert not sp.is_regular
        assert sp.method == "log-face"
        assert sp.p_star.w[idx] == 1.0


def test_log_two_dimensional_statistic():
    t2 = Statistic(np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    sp = solve_log(LOG, GammaTau(t2, np.array([0.2, 0.4])))
    assert np.max(np.abs(t2.matrix @ sp.p_star.w - [0.2, 0.4])) <= 1e-8
    assert np.max(np.abs(sp.p_star.w - [0.2, 0.4, 0.4])) <= 1e-8
    # the two tilt coefficients coincide by symmetry of the solution
    assert abs(float(sp.beta[0]) - float(sp.beta[1])) <= 1e-8


def test_log_face_of_rank_deficient_statistic():
    # k + 2 outcomes share the minimum of the first row and tau sits on that
    # face, where the first row is constant: the tilt must be solved in the
    # face's own coordinates, in either memory layout of the statistic
    rng = np.random.default_rng(16)
    for n, k in ((8, 2), (12, 2), (8, 3), (12, 3)):
        for _ in range(4):
            t = rng.uniform(-1.0, 1.0, size=(k, n))
            on = np.sort(rng.choice(n, size=k + 2, replace=False))
            t[0, on] = -1.0
            tau = t[:, on] @ rng.dirichlet(np.ones(k + 2))
            tau[0] = -1.0
            model = log_model(SampleSpace.of(range(n)))
            for mat in (np.ascontiguousarray(t), np.asfortranarray(t)):
                g = GammaTau(Statistic(mat), tau)
                sp = solve_log(model, g)
                assert sp.method == "log-face" and sp.beta is None
                assert np.array_equal(sp.p_star.support(1e-12), on)
                assert np.max(np.abs(mat @ sp.p_star.w - tau)) <= 1e-8
                assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


def test_log_tau_just_inside_a_hull_end():
    # hull_interior calls tau within 1e-9 of the end a boundary, yet every
    # outcome still carries mass, so the face does not shrink
    rng = np.random.default_rng(3)
    model = log_model(SampleSpace.of(range(6)))
    for _ in range(60):
        t = rng.uniform(-1.0, 1.0, size=(1, 6))
        tau = np.array([t.max() - rng.uniform(0.5, 1.5) * 7.5e-10])
        g = GammaTau(Statistic(t), tau)
        sp = solve_log(model, g)
        assert np.max(np.abs(t @ sp.p_star.w - tau)) <= 1e-9
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


# ---------------------------------------------------------------------------
# dispatch, generic solver, infeasibility


def test_solve_routes_by_model_kind():
    assert solve(BRIER, gamma(0.3)).method == "brier-enum"
    assert solve(LOG, gamma(0.3)).method == "log-newton"
    assert solve(ZERO_ONE, gamma(0.3)).method == "zero-one-enum"


def test_generic_agrees_with_specialized():
    for model, taus in ((BRIER, (-0.8, 0.0, 0.45)),
                        (ZERO_ONE, (-0.4, 0.25, 0.6)),
                        (LOG, (-0.5, 0.3))):
        for tau in taus:
            ref = solve(model, gamma(tau))
            gen = solve_generic(model, gamma(tau))
            assert abs(gen.h_star - ref.h_star) <= 1e-6, (model.kind, tau)
            assert np.max(np.abs(gen.p_star.w - ref.p_star.w)) <= 1e-5


def test_infeasible_tau_raises():
    for solver, model in ((solve_brier, BRIER), (solve_log, LOG),
                          (solve_zero_one, ZERO_ONE)):
        with pytest.raises(Infeasible):
            solver(model, gamma(1.5))
    assert specific_entropy(BRIER, T, np.array([-1.2])) == float("-inf")


def test_enumeration_cap(monkeypatch):
    # Brier has no cap of its own: it solves up to the vertex cap (20) and
    # past it vertices() refuses
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    model = brier_model(SampleSpace.of(range(18)))
    g = GammaTau(Statistic(np.linspace(-1.0, 1.0, 18)[None, :]), np.array([0.0]))
    sp = solve_brier(model, g)
    assert abs(sp.h_star - (1.0 - 1.0 / 18.0)) <= 1e-12
    assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle
    big = GammaTau(Statistic(np.linspace(-1.0, 1.0, 21)[None, :]), np.array([0.0]))
    with pytest.raises(CombinatorialBlowup, match="MAXENT_MAX_N"):
        solve_brier(brier_model(SampleSpace.of(range(21))), big)


def test_wrong_model_kind_rejected():
    with pytest.raises(ValueError):
        solve_brier(LOG, gamma(0.0))
    with pytest.raises(ValueError):
        solve_log(BRIER, gamma(0.0))
    with pytest.raises(ValueError):
        solve_zero_one(BRIER, gamma(0.0))


# ---------------------------------------------------------------------------
# natural tilts


def test_tilt_matches_dual_of_brier_game():
    res = natural_tilt(BRIER, T, np.array([0.5]))
    assert abs(float((T.matrix @ res.q.w)[0]) + 0.5) <= 1e-6
    assert abs(res.chi - 19.0 / 24.0) <= 1e-9
    flat = natural_tilt(BRIER, T, np.array([0.0]))
    assert abs(flat.chi - 2.0 / 3.0) <= 1e-9
    assert np.max(np.abs(flat.q.w - 1.0 / 3.0)) <= 1e-4


def test_tilt_log_is_softmax():
    beta = np.array([0.7])
    res = natural_tilt(LOG, T, beta)
    kappa = float(np.log(np.exp(0.7) + 1.0 + np.exp(-0.7)))
    assert abs(res.chi - kappa) <= 1e-9
    expected = np.exp(-beta[0] * T.matrix[0])
    expected /= expected.sum()
    assert np.max(np.abs(res.q.w - expected)) <= 1e-6


def test_tilt_zero_one_piecewise_linear_values():
    # chi(beta) = max over tau of h(tau) - beta * tau, attained at a kink
    for beta, chi in ((0.0, 2.0 / 3.0), (0.25, 2.0 / 3.0), (0.5, 0.75),
                      (1.5, 1.5), (-0.5, 0.75)):
        res = natural_tilt(ZERO_ONE, T, np.array([beta]))
        assert abs(res.chi - chi) <= 1e-9, beta
        assert res.gap <= 1e-9


def test_tilt_reaches_the_default_tolerance_on_smooth_models():
    rng = np.random.default_rng(5)
    space = SampleSpace.of(range(5))
    t = rng.uniform(-1.0, 1.0, size=(1, 5))
    for model in (brier_model(space), log_model(space)):
        for beta in np.linspace(-2.0, 2.0, 9):
            res = natural_tilt(model, Statistic(t), np.array([beta]))
            assert res.method == "frank-wolfe"
            assert res.gap <= 1e-8
            tilted = model.entropy(res.q) - beta * float(t[0] @ res.q.w)
            assert abs(res.chi - tilted) <= 1e-12
            if model.kind == "log":
                expected = np.exp(-beta * t[0])
                assert np.max(np.abs(res.q.w - expected / expected.sum())) <= 1e-6


def test_tilt_iteration_budget_carries_best_iterate():
    # exact line searches reach this interior optimum in two steps; one
    # step leaves the gap far above the ask
    with pytest.raises(MaxIterExceeded) as err:
        natural_tilt(BRIER, T, np.array([0.1]), tol=1e-15, max_iter=1)
    res = err.value.result
    assert res is not None
    assert res.gap > 0.0
    assert res.value <= 2.0 / 3.0 + 0.1 + 1e-12   # never above the true maximum


# ---------------------------------------------------------------------------
# traces along a tau grid


def test_trace_requires_increasing_grid():
    with pytest.raises(ValueError):
        trace_family(BRIER, T, [0.0, 0.0, 0.1])


def test_trace_rows_follow_grid():
    grid = np.linspace(-0.9, 0.9, 13)
    tr = trace_family(BRIER, T, grid)
    assert tr.m == 13
    assert np.max(np.abs(tr.taus.ravel() - grid)) == 0.0
    for tau, row in zip(grid, tr.rows):
        assert abs(row.h_star - brier_closed_form(float(tau))[1]) <= 1e-9


def test_trace_entropy_dominates_constraint_set():
    # maximality against every vertex and against random interior mixtures
    rng = np.random.default_rng(3)
    grid = np.linspace(-0.9, 0.9, 10)
    for model in (BRIER, LOG, ZERO_ONE):
        for tau in grid:
            sp = solve(model, gamma(tau))
            vs = vertices(gamma(tau))
            for v in vs.points:
                assert model.entropy(Distribution(v)) <= sp.h_star + 1e-7
            lam = rng.dirichlet(np.ones(vs.m), size=25)
            for w in lam @ vs.points:
                assert model.entropy(Distribution(w)) <= sp.h_star + 1e-7


def test_trace_supporting_line_dominates_entropy():
    # at regular rows h(sigma) <= beta0 + beta1 sigma across the whole hull
    for model in (BRIER, ZERO_ONE, LOG):
        for tau in (-0.7, -0.2, 0.35, 0.8):
            sp = solve(model, gamma(tau))
            assert sp.is_regular
            for sigma in np.linspace(-1.0, 1.0, 41):
                h_sig = solve(model, gamma(sigma)).h_star
                bound = sp.beta0 + float(sp.beta[0]) * sigma
                assert h_sig <= bound + 1e-7, (model.kind, tau, sigma)


def test_trace_slope_monotone_in_tau():
    for model in (BRIER, ZERO_ONE, LOG):
        tr = trace_family(model, T, np.linspace(-0.95, 0.95, 39))
        rows = [r for r in tr.rows if r.is_regular]
        for a, b in zip(rows, rows[1:]):
            assert float((b.tau - a.tau) @ (b.beta - a.beta)) <= 1e-7


# ---------------------------------------------------------------------------
# derivative and conjugacy diagnostics


def test_beta_matches_slope_smooth_trace():
    tr = trace_family(BRIER, T, np.linspace(-0.95, 0.95, 39))
    report = beta_derivative_check(tr)
    assert report.all_ok
    checked = [r for r in report.rows if r.ok is not None]
    assert checked
    for r in checked:
        # one stencil side always sits on a single polynomial piece
        assert min(abs(r.slope_left - r.beta), abs(r.slope_right - r.beta)) <= 1e-4
    # rows more than four steps from the curvature junctions stay smooth
    for r in checked:
        if abs(abs(r.tau) - 2.0 / 3.0) > 0.21:
            assert r.kind == "smooth", r


def test_beta_inside_kink_interval():
    tr = trace_family(ZERO_ONE, T, np.linspace(-0.95, 0.95, 39))
    report = beta_derivative_check(tr)
    assert report.all_ok
    kinks = {round(r.tau, 2): r for r in report.rows if r.kind == "kink"}
    # rows sitting exactly on a kink see both clean one-sided slopes
    assert {-0.5, 0.0, 0.5} <= set(kinks)
    assert abs(kinks[0.5].slope_left + 1.0 / 3.0) <= 1e-4
    assert abs(kinks[0.5].slope_right + 1.0) <= 1e-4
    assert abs(kinks[0.0].slope_left - 1.0 / 3.0) <= 1e-4
    assert abs(kinks[0.0].slope_right + 1.0 / 3.0) <= 1e-4
    smooth = {round(r.tau, 2): r for r in report.rows if r.kind == "smooth"}
    assert {-0.75, -0.25, 0.25, 0.75} <= set(smooth)


def test_derivative_check_input_validation():
    with pytest.raises(ValueError):
        beta_derivative_check(trace_family(BRIER, T, np.linspace(-0.4, 0.4, 5)))
    t2 = Statistic(np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    tr2 = trace_family(LOG, t2, [np.array([s, 0.35]) for s in np.linspace(-0.3, 0.3, 9)])
    with pytest.raises(ValueError):
        beta_derivative_check(tr2)


def test_support_scan_frozen_values():
    tr = trace_family(BRIER, T, np.linspace(-0.95, 0.95, 39))
    scan = support_scan(BRIER, tr, Distribution(np.array([0.9, 0.0, 0.1])))
    i_08 = 3   # tau = -0.8
    assert abs(scan.values[i_08] + 0.240000) <= 1e-9
    assert scan.best_index == 0
    assert abs(float(scan.best_tau[0]) + 0.95) <= 1e-12
    assert abs(scan.values[0] + 0.195000) <= 1e-9
    best_row = tr.rows[scan.best_index]
    assert np.max(np.abs(best_row.p_star.w - [0.95, 0.05, 0.0])) <= 1e-9


def test_conjugacy_grids():
    betas = np.linspace(-2.0, 2.0, 401)
    rep = conjugacy_check(BRIER, T, np.linspace(-0.9, 0.9, 19), betas)
    assert rep.max_grid_residual <= 1e-3
    assert rep.max_matched_residual <= 1e-8
    assert rep.fenchel_min >= -1e-5
    rep = conjugacy_check(ZERO_ONE, T, np.linspace(-0.75, 0.75, 7), betas)
    assert rep.max_grid_residual <= 1e-3
    assert rep.max_matched_residual <= 1e-8
    assert rep.fenchel_min >= -1e-6
    rep = conjugacy_check(LOG, T, np.linspace(-0.8, 0.8, 17),
                          np.linspace(-3.0, 3.0, 401))
    assert rep.max_grid_residual <= 1e-3
    assert rep.max_matched_residual <= 1e-8


# ---------------------------------------------------------------------------
# additive tilted families around a reference distribution


def test_lafferty_zero_beta_recovers_reference():
    p0 = Distribution(np.array([0.5, 0.25, 0.25]))
    tr = lafferty_family(LOG, p0, T, [-1.0, 0.0, 1.0])
    mid = min(tr.rows, key=lambda r: abs(float(r.beta[0])))
    assert abs(float(mid.beta[0])) == 0.0
    assert np.max(np.abs(mid.p_star.w - p0.w)) <= 1e-8
    assert abs(mid.h_star) <= 1e-10          # zero divergence from itself


def test_lafferty_log_rows_are_tilted_references():
    p0 = Distribution(np.array([0.5, 0.25, 0.25]))
    tr = lafferty_family(LOG, p0, T, [-1.0, -0.5, 0.5, 1.0])
    for row in tr.rows:
        b = float(row.beta[0])
        q = p0.w * np.exp(-b * T.matrix[0])
        q /= q.sum()
        assert np.max(np.abs(row.p_star.w - q)) <= 1e-7
    assert np.all(np.diff(tr.taus.ravel()) > 0.0)   # sorted by tau


def test_lafferty_brier_uniform_reduces_to_plain_family():
    tr = lafferty_family(BRIER, Distribution.uniform(3), T,
                         np.linspace(-0.6, 0.6, 7))
    for row in tr.rows:
        plain = solve_brier(BRIER, GammaTau(T, row.tau))
        assert np.max(np.abs(row.p_star.w - plain.p_star.w)) <= 1e-4
        # relative entropy differs from plain entropy by the reference level
        assert abs(row.h_star - (plain.h_star - 2.0 / 3.0)) <= 1e-7


def test_slope_root_from_an_infinite_rise():
    # an unbounded loss at an emptied outcome makes slope(0) = +inf; the
    # first probe (at hi) is already past the root, so lo keeps that slope
    root = _slope_root(lambda t: 0.1 - t, np.inf, np.float64(0.5))
    assert abs(root - 0.1) <= 1e-8 * 0.1
