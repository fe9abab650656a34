"""Saddle-point solvers and family diagnostics on the three-point space.

The closed forms frozen here were derived by hand for the statistic
t = (-1, 0, 1): quadratic-score and hit-or-miss games admit piecewise
polynomial solutions, the log game reduces to a softmax tilt.
"""

import os
import subprocess
import sys
from collections import Counter
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from maxentgames import (
    Act,
    BrierModel,
    CombinatorialBlowup,
    Distribution,
    GammaTau,
    Infeasible,
    MaxIterExceeded,
    SampleSpace,
    StatModel,
    Statistic,
    beta_derivative_check,
    bregman_model,
    brier_model,
    capacity_solve,
    conjugacy_check,
    lafferty_family,
    log_model,
    natural_tilt,
    power_generator,
    quadratic_model,
    relative_model,
    solve,
    solve_generic,
    specific_entropy,
    square_generator,
    support_scan,
    trace_family,
    verify_saddle,
    vertices,
    xlogx_generator,
    zero_one_model,
)
from maxentgames import maxent
from maxentgames.cli import vertex_columns
from maxentgames.maxent import TiltResult, _fw_maximize, _mixture_max, _slope_root, _tilts
from test_losses import _MinimalBrier
from test_zero_one_lp import mean_value_problem

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
        sp = solve(BRIER, gamma(tau))
        p, h, b0, b1 = brier_closed_form(tau)
        assert np.max(np.abs(sp.p_star.w - p)) <= TOL, tau
        assert abs(sp.h_star - h) <= TOL
        assert abs(sp.beta0 - b0) <= TOL
        assert abs(float(sp.beta[0]) - b1) <= TOL


def test_brier_random_taus_match_closed_form():
    rng = np.random.default_rng(11)
    for tau in rng.uniform(-0.999, 0.999, size=60):
        sp = solve(BRIER, gamma(tau))
        p, h, b0, b1 = brier_closed_form(float(tau))
        assert np.max(np.abs(sp.p_star.w - p)) <= 1e-8
        assert abs(sp.h_star - h) <= 1e-9
        assert abs(float(sp.beta[0]) - b1) <= 1e-8


def test_brier_flags_inner_vs_outer():
    inner = solve(BRIER, gamma(0.25))
    assert inner.is_linear and inner.is_regular
    assert vertex_columns(BRIER, vertices(gamma(0.25)), inner)[0]
    assert inner.tau_interior
    outer = solve(BRIER, gamma(0.9))
    assert not outer.is_linear    # loss off the support breaks the affine fit
    assert outer.is_regular       # still affine where P* lives
    assert not vertex_columns(BRIER, vertices(gamma(0.9)), outer)[0]
    assert outer.tau_interior


def test_brier_hull_endpoints_one_sided_slope():
    left = solve(BRIER, gamma(-1.0))
    assert left.h_star == 0.0 and not left.tau_interior
    assert abs(float(left.beta[0]) - 2.0) <= TOL
    assert abs(left.beta0 - 2.0) <= TOL
    right = solve(BRIER, gamma(1.0))
    assert abs(float(right.beta[0]) + 2.0) <= TOL
    assert abs(right.beta0 - 2.0) <= TOL


def test_brier_act_is_maximizer():
    sp = solve(BRIER, gamma(0.3))
    assert np.max(np.abs(sp.zeta_star.payload - sp.p_star.w)) <= TOL
    assert sp.bayes_margin <= 1e-9
    assert vertex_columns(BRIER, vertices(gamma(0.3)), sp)[1] <= 1e-7


# ---------------------------------------------------------------------------
# hit-or-miss score


def test_zero_one_closed_form_grid():
    for tau in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0):
        sp = solve(ZERO_ONE, gamma(tau))
        p, h = zero_one_closed_form(tau)
        assert np.max(np.abs(sp.p_star.w - p)) <= TOL, tau
        assert abs(sp.h_star - h) <= TOL


def test_zero_one_inner_act_and_coefficients():
    for tau in (0.1, 0.25, 0.4):
        sp = solve(ZERO_ONE, gamma(tau))
        assert np.max(np.abs(sp.zeta_star.payload - [0.0, 1 / 3, 2 / 3])) <= TOL
        assert abs(sp.beta0 - 2.0 / 3.0) <= TOL
        assert abs(float(sp.beta[0]) + 1.0 / 3.0) <= TOL
        assert sp.act_family is None    # unique optimal act strictly inside
    mirrored = solve(ZERO_ONE, gamma(-0.25))
    assert np.max(np.abs(mirrored.zeta_star.payload - [2 / 3, 1 / 3, 0.0])) <= TOL
    assert abs(float(mirrored.beta[0]) - 1.0 / 3.0) <= TOL


def test_zero_one_half_tau_act_family():
    sp = solve(ZERO_ONE, gamma(0.5))
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
    sp = solve(ZERO_ONE, gamma(0.0))
    assert np.max(np.abs(sp.zeta_star.payload - 1.0 / 3.0)) <= TOL
    fam = sp.act_family
    assert fam is not None
    ends = sorted(fam.act(c).payload[0] for c in (fam.lo, fam.hi))
    assert abs(ends[0] - 0.0) <= 1e-8 and abs(ends[1] - 2.0 / 3.0) <= 1e-8
    for c in np.linspace(fam.lo, fam.hi, 7):
        z = fam.act(c).payload
        assert abs(z[1] - 1.0 / 3.0) <= 1e-8   # middle weight is pinned


def test_zero_one_act_family_rejects_out_of_range():
    fam = solve(ZERO_ONE, gamma(0.5)).act_family
    with pytest.raises(ValueError):
        fam.act(fam.hi + 1.0)


def test_zero_one_outer_and_boundary():
    outer = solve(ZERO_ONE, gamma(0.75))
    assert np.max(np.abs(outer.zeta_star.payload - [0.0, 0.0, 1.0])) <= TOL
    assert abs(outer.beta0 - 1.0) <= TOL
    assert abs(float(outer.beta[0]) + 1.0) <= TOL
    assert not vertex_columns(ZERO_ONE, vertices(gamma(0.75)), outer)[0]
    for tau, target in ((-1.0, 1.0), (1.0, -1.0)):
        sp = solve(ZERO_ONE, gamma(tau))
        assert abs(sp.h_star) <= 1e-12 and not sp.tau_interior
        assert abs(float(sp.beta[0]) - target) <= 1e-6


# ---------------------------------------------------------------------------
# log score


def test_log_uniform_is_max_entropy():
    sp = solve(LOG, gamma(0.0))
    assert abs(sp.h_star - np.log(3.0)) <= 1e-12
    assert np.max(np.abs(sp.p_star.w - 1.0 / 3.0)) <= 1e-10


def test_log_grid_moment_and_gradient():
    for tau in np.linspace(-0.9, 0.9, 19):
        sp = solve(LOG, gamma(tau))
        assert abs(float((T.matrix @ sp.p_star.w)[0]) - tau) <= 1e-8
        assert sp.gap <= 1e-10
        assert sp.is_regular and sp.method == "log-newton"
        assert abs(sp.beta0 + float(sp.beta[0]) * tau - sp.h_star) <= 1e-9


def test_log_frozen_row():
    sp = solve(LOG, gamma(0.5))
    assert np.max(np.abs(sp.p_star.w - [0.116204060378, 0.267591879244,
                                        0.616204060378])) <= 1e-10
    assert abs(sp.h_star - 0.901234700635) <= 1e-10
    assert abs(sp.beta0 - 1.31829229781) <= 1e-9
    assert abs(float(sp.beta[0]) + 0.834115194351) <= 1e-9


def test_log_boundary_restricts_to_face():
    for tau, idx in ((-1.0, 0), (1.0, 2)):
        sp = solve(LOG, gamma(tau))
        assert sp.h_star == 0.0
        assert sp.beta is None and sp.beta0 is None
        assert not sp.is_regular
        assert sp.method == "log-face"
        assert sp.p_star.w[idx] == 1.0


def test_log_two_dimensional_statistic():
    t2 = Statistic(np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    sp = solve(LOG, GammaTau(t2, np.array([0.2, 0.4])))
    assert np.max(np.abs(t2.matrix @ sp.p_star.w - [0.2, 0.4])) <= 1e-8
    assert np.max(np.abs(sp.p_star.w - [0.2, 0.4, 0.4])) <= 1e-8
    # the two tilt coefficients coincide by symmetry of the solution
    assert abs(float(sp.beta[0]) - float(sp.beta[1])) <= 1e-8


def test_log_face_of_rank_deficient_statistic():
    # k + 2 outcomes share the minimum of the first row and tau sits on that
    # face, where the first row is constant: the separable dual solves it on
    # the face's outcomes, in either memory layout of the statistic
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
                sp = solve(model, g)
                assert sp.method == "log-face" and sp.beta is None
                assert np.array_equal(sp.p_star.support(1e-12), on)
                assert np.max(np.abs(mat @ sp.p_star.w - tau)) <= 1e-8
                assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


def test_log_affinely_dependent_rows():
    # a first row constant at -1 over every outcome: tau is interior, but the
    # covariance is singular everywhere, so the separable dual solves it;
    # the law is the one the remaining rows alone give
    rng = np.random.default_rng(0)
    t = np.vstack([-np.ones(5), rng.uniform(-1.0, 1.0, 5)])
    tau = t @ rng.dirichlet(np.ones(5))
    model = log_model(SampleSpace.of(range(5)))
    g = GammaTau(Statistic(t), tau)
    sp = solve(model, g)
    assert sp.method == "log-face" and sp.beta is None
    assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle
    rng = np.random.default_rng(17)
    for case in range(60):
        n, k = 4 + case % 2, 2 + (case // 2) % 2
        t = np.vstack([-np.ones(n), rng.uniform(-1.0, 1.0, size=(k - 1, n))])
        tau = t @ rng.dirichlet(np.ones(n))
        model = log_model(SampleSpace.of(range(n)))
        g = GammaTau(Statistic(t), tau)
        sp = solve(model, g)
        assert sp.method == "log-face" and sp.beta is None, case
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, case
        ref = solve(model, GammaTau(Statistic(t[1:]), tau[1:]))
        assert np.max(np.abs(sp.p_star.w - ref.p_star.w)) <= 1e-9, case


def test_log_faces_take_the_separable_dual():
    # a log face is the Bregman game of psi(s) = s log s on the same face,
    # so both solvers return the same bits
    rng = np.random.default_rng(5)
    faces = 0
    for case in range(72):
        n, k = int(rng.integers(3, 13)), int(rng.integers(1, 4))
        t, tau = mean_value_problem(rng, n, k, case % 4)
        g = GammaTau(t, tau)
        space = SampleSpace.of(range(n))
        sp = solve(log_model(space), g)
        if sp.method != "log-face":
            continue
        faces += 1
        ref = solve(bregman_model(space, xlogx_generator()), g)
        assert ref.method == "bregman-dual" and sp.beta is None and ref.beta is None, case
        assert np.array_equal(sp.p_star.w, ref.p_star.w), case
    assert faces >= 20


def test_log_tau_just_inside_a_hull_end():
    # hull_interior calls tau within 1e-9 of the end a boundary, yet every
    # outcome still carries mass, so the face does not shrink
    rng = np.random.default_rng(3)
    model = log_model(SampleSpace.of(range(6)))
    for _ in range(60):
        t = rng.uniform(-1.0, 1.0, size=(1, 6))
        tau = np.array([t.max() - rng.uniform(0.5, 1.5) * 7.5e-10])
        g = GammaTau(Statistic(t), tau)
        sp = solve(model, g)
        assert np.max(np.abs(t @ sp.p_star.w - tau)) <= 1e-9
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


# ---------------------------------------------------------------------------
# dispatch, generic solver, infeasibility


def test_solve_routes_by_model_kind():
    assert solve(BRIER, gamma(0.3)).method == "brier-enum"
    assert solve(LOG, gamma(0.3)).method == "log-newton"
    assert solve(ZERO_ONE, gamma(0.3)).method == "zero-one-enum"
    # a relative game over a separable base takes the separable dual with
    # the reference losses as offset, as a Bregman game does
    bregman = bregman_model(SPACE, power_generator(1.5))
    for model in (bregman, relative_model(BRIER, Act("distribution", np.array([0.2, 0.3, 0.5]))),
                  relative_model(LOG, Act("density", np.array([0.2, 0.3, 0.5]))),
                  relative_model(bregman, Act("density", np.array([0.5, 0.3, 0.2])))):
        sp = solve(model, gamma(0.3))
        assert sp.method == "bregman-dual", model.kind
        assert verify_saddle(model, gamma(0.3), sp.p_star, sp.zeta_star).is_saddle, model.kind


def test_solve_routes_other_losses_to_the_generic_solver():
    # quadratic runs the active-set QP over the vertices; relative zero-one,
    # a loss affine in a distribution act, the point-act game over Gamma_tau
    relative = relative_model(ZERO_ONE, Act("distribution", np.array([0.2, 0.3, 0.5])))
    for model, method in ((quadratic_model(SPACE), "active-set"),
                          (relative, "matrix-game")):
        sp = solve(model, gamma(0.3))
        assert sp.method == method
        assert verify_saddle(model, gamma(0.3), sp.p_star, sp.zeta_star).is_saddle, method


def test_relative_separable_saddles_agree_with_frank_wolfe():
    # the separable dual against Frank-Wolfe over the vertices, on seeded
    # relative Brier, log and Bregman games with random references: uniform
    # and integer statistics, faces and laws on k + 1 outcomes
    rng = np.random.default_rng(16)
    for i in range(40):
        n, k = int(rng.integers(3, 9)), int(rng.integers(1, 3))
        stat, tau = mean_value_problem(rng, n, k, i % 4)
        g = GammaTau(stat, tau)
        space = SampleSpace.of(range(n))
        for base in (brier_model(space), log_model(space),
                     bregman_model(space, power_generator(1.5))):
            model = relative_model(base, base.random_act(rng))
            sp = solve(model, g)
            fw = solve_generic(model, g)
            # relative Brier's entropy is a concave quadratic: the exact QP
            oracle = "active-set" if isinstance(base, BrierModel) else "frank-wolfe"
            assert (sp.method, fw.method) == ("bregman-dual", oracle)
            # the certified gap, plus the entropy's change over the dual's
            # residual in tau (below 1e-13; the gap is 0 where Gamma_tau is a point)
            assert abs(sp.h_star - fw.h_star) <= fw.gap + 1e-12, (i, model.kind)
            assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, (i, model.kind)


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
    for model in (BRIER, LOG, ZERO_ONE):
        with pytest.raises(Infeasible):
            solve(model, gamma(1.5))
    assert specific_entropy(BRIER, T, np.array([-1.2])) == float("-inf")


@pytest.mark.parametrize("tau", [[1.5], [-1.0 - 1e-8], [0.2, 1e-8]])
def test_every_solver_refuses_tau_outside_the_hull_alike(tau):
    # one rule and one message, whichever solver the model takes; a zero
    # statistic row with a target beyond the hull tolerance is outside too
    stat = T if len(tau) == 1 else Statistic(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    relative = relative_model(ZERO_ONE, Act("distribution", np.array([0.2, 0.3, 0.5])))
    for model in (BRIER, LOG, ZERO_ONE, quadratic_model(SPACE), relative,
                  bregman_model(SPACE, power_generator(3.0))):
        with pytest.raises(Infeasible, match="outside the statistic hull"):
            solve(model, GammaTau(stat, np.array(tau)))


def test_enumeration_cap(monkeypatch):
    # solve and verify_saddle build no vertex list, so the vertex cap (20)
    # does not bind them; the record's vertex columns read the list, which meets it
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    model = brier_model(SampleSpace.of(range(21)))
    g = GammaTau(Statistic(np.linspace(-1.0, 1.0, 21)[None, :]), np.array([0.0]))
    sp = solve(model, g)
    assert abs(sp.h_star - (1.0 - 1.0 / 21.0)) <= 1e-12
    assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle
    with pytest.raises(CombinatorialBlowup, match="MAXENT_MAX_N"):
        vertex_columns(model, vertices(g), sp)


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


def _game_tilt(model, t, beta):
    """Oracle: the matrix game over the point-mass acts."""
    return _mixture_max(model, np.eye(t.shape[1]), t.T @ beta, 1e-12)


@pytest.mark.parametrize("relative", [False, True])
def test_zero_one_tilt_closed_form_matches_the_game(relative):
    # half the problems have integer T and half-integer beta, so many tilts
    # have several maximizers
    rng = np.random.default_rng(12)
    for case in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        model = zero_one_model(SampleSpace.of(range(n)))
        if relative:
            model = relative_model(model, Act("distribution", rng.dirichlet(np.ones(n))))
        betas = rng.uniform(-2.0, 2.0, size=(8, k))
        if case % 2:
            t = rng.integers(-2, 3, size=(k, n)).astype(float)
            betas = np.round(2.0 * betas) / 2.0
        else:
            t = rng.uniform(-1.0, 1.0, size=(k, n))
        for beta, res in zip(betas, _tilts(model, Statistic(t), betas, 1e-12)):
            assert res.method == "closed-form"
            assert abs(res.chi - _game_tilt(model, t, beta).value) <= 1e-12, (case, beta)
            assert res.gap <= 1e-12, (case, beta)
            tilted = model.entropy(res.q) - float(beta @ (t @ res.q.w))
            assert abs(res.chi - tilted) <= 1e-12, (case, beta)


def test_zero_one_tilt_ties_take_the_largest_prefix():
    # q is uniform on the largest maximizing prefix of the sorted T' beta - u,
    # the max-entropy member of the optimal face
    third = np.full(3, 1.0 / 3.0)
    # the uniform laws on {0, 1} and on all three outcomes tie at chi = 1/2
    res = natural_tilt(ZERO_ONE, Statistic(np.array([[0.0, 0.0, 1.0]])), np.array([0.5]))
    assert abs(res.chi - 0.5) <= 1e-15
    assert np.max(np.abs(res.q.w - third)) <= 1e-15
    # relative to the Bayes act of P0 all three prefix sizes tie at chi = 0;
    # the matrix game's row strategy is (1/2, 0, 1/2), another maximizer
    p0 = Distribution(np.array([0.5, 0.3, 0.2]))
    rel = relative_model(ZERO_ONE, ZERO_ONE.bayes_act(p0))
    res = natural_tilt(rel, T, np.array([-1.0]))
    assert abs(res.chi) <= 1e-15
    assert np.max(np.abs(res.q.w - third)) <= 1e-15


def test_zero_one_tilt_gap_is_certified(monkeypatch):
    # with no room to raise the dual bound it falls back to max(-d), where
    # the bound holds trivially; the gap that leaves is reported, not zeroed
    monkeypatch.setattr(maxent, "ROOT_MAX_ITER", 0)
    with pytest.raises(MaxIterExceeded) as err:
        natural_tilt(ZERO_ONE, T, np.array([0.3]))
    res = err.value.result
    assert abs(res.chi - 2.0 / 3.0) <= 1e-15
    assert abs(res.gap - (1.3 - 2.0 / 3.0)) <= 1e-15


def _fw_tilt(model, t, beta, tol):
    """Oracle: pairwise Frank-Wolfe over the point masses, as non-separable
    models tilt."""
    return _fw_maximize(model, np.eye(t.shape[1]), t.T @ beta, tol)


def test_tilt_reaches_the_default_tolerance_on_smooth_models():
    # the separable dual against Frank-Wolfe run to a 1e-10 gap; for these
    # strongly concave entropies that leaves its value within a few ulps of
    # the maximum.  Each model's relative form, against a random reference
    # act, takes the same dual with the reference losses added to the shift
    rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(6)   # keeps rng's draws those of the plain models
    for case in range(40):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        t = rng.uniform(-1.0, 1.0, size=(k, n))
        beta = rng.uniform(-2.0, 2.0, size=k)
        space = SampleSpace.of(range(n))
        bases = (brier_model(space), log_model(space),
                 bregman_model(space, xlogx_generator()),
                 bregman_model(space, square_generator(n)),
                 bregman_model(space, power_generator(3.0)))
        models = bases + tuple(relative_model(m, m.random_act(ref_rng)) for m in bases)
        for model in models:
            res = natural_tilt(model, Statistic(t), beta)
            oracle = _fw_tilt(model, t, beta, 1e-10)
            assert oracle.gap <= 1e-10, (case, model.name)
            assert res.method == "separable-dual"
            assert res.gap <= 1e-12, (case, model.name)
            assert abs(res.chi - oracle.value) <= 1e-12, (case, model.name)
            assert res.chi >= oracle.value - 1e-15, (case, model.name)
            tilted = model.entropy(res.q) - float(beta @ (t @ res.q.w))
            assert abs(res.chi - tilted) <= 1e-12
            if model.kind == "log":
                expected = np.exp(-beta @ t)
                assert np.max(np.abs(res.q.w - expected / expected.sum())) <= 1e-6
            if model.kind == "relative:log":
                expected = model.reference_act.as_array() * np.exp(-beta @ t)
                assert np.max(np.abs(res.q.w - expected / expected.sum())) <= 1e-6


@pytest.mark.parametrize("beta", [-1000.0, -50.0, 50.0, 1000.0])
def test_log_tilt_at_a_steep_beta(beta):
    # q underflows to 0 at some outcome; the supergradient there is +inf,
    # but the Fenchel gap of the dual stays finite and chi is the cumulant
    t = np.array([[-1.0, -0.3, 0.2, 0.7, 1.0]])
    expo = -beta * t[0]
    kappa = float(expo.max() + np.log(np.exp(expo - expo.max()).sum()))
    softmax = np.exp(expo - expo.max())
    softmax /= softmax.sum()
    space = SampleSpace.of(range(5))
    for model in (log_model(space), bregman_model(space, xlogx_generator())):
        res = natural_tilt(model, Statistic(t), np.array([beta]))
        assert res.gap <= 1e-12 * abs(beta), model.name
        assert abs(res.chi - kappa) <= 1e-12 * abs(beta), model.name
        assert np.max(np.abs(res.q.w - softmax)) <= 1e-12, model.name


def test_tilt_iteration_budget_carries_best_iterate(monkeypatch):
    # a Brier loss written as a plain LossModel has no separable dual and
    # no quadratic form, so its tilt runs Frank-Wolfe; one step leaves the
    # gap far above the ask.  The maximum is the Brier model's own tilt
    model = _MinimalBrier(SPACE)
    assert model.separable() is None
    best = natural_tilt(BRIER, T, np.array([0.1])).chi
    with monkeypatch.context() as patch, pytest.raises(MaxIterExceeded) as err:
        patch.setattr(maxent, "FW_MAX_ITER", 1)
        natural_tilt(model, T, np.array([0.1]))
    res = err.value.result
    assert res is not None
    assert res.gap > 0.0
    assert res.chi <= best + 1e-12   # never above the true maximum
    assert natural_tilt(model, T, np.array([0.1])).method == "frank-wolfe"


def test_frank_wolfe_tilt_budget_carries_a_tilt_result(monkeypatch):
    # the search route raises as the batched routes do: with the first row
    # whose gap is above tol, as a TiltResult
    model = _MinimalBrier(SPACE)
    betas = np.array([[0.1], [-0.3]])
    with monkeypatch.context() as patch, pytest.raises(MaxIterExceeded) as err:
        patch.setattr(maxent, "FW_MAX_ITER", 1)
        _tilts(model, T, betas, 1e-8)
    res = err.value.result
    assert isinstance(res, TiltResult)
    assert res.method == "frank-wolfe" and res.gap > 1e-8
    np.testing.assert_array_equal(res.beta, betas[0])
    assert abs(res.q.w.sum() - 1.0) <= 1e-12 and res.q.w.min() >= 0.0


def test_generic_solve_budget_carries_the_halted_mixture(monkeypatch):
    # a custom loss solves by Frank-Wolfe over the vertices of Gamma_tau; one
    # step leaves the gap above tol, and the error carries that iterate
    model = _MinimalBrier(SPACE)
    g = gamma(0.2)
    with monkeypatch.context() as patch, pytest.raises(MaxIterExceeded) as err:
        patch.setattr(maxent, "FW_MAX_ITER", 1)
        solve_generic(model, g)
    res = err.value.result
    assert isinstance(res, maxent._MixtureMax)
    assert res.method == "frank-wolfe" and res.iterations == 1 and not res.stalled
    assert res.gap > maxent.GENERIC_TOL
    assert str(err.value) == f"frank-wolfe after 1 iterations with gap {res.gap:.3e}"
    assert res.value <= solve(BRIER, g).h_star + 1e-12   # never above the maximum


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


def trace_row(tau, h, beta=None):
    """The fields of a solved row that the trace invariants read."""
    return SimpleNamespace(tau=np.array([tau]), h_star=h, is_regular=beta is not None,
                           beta=None if beta is None else np.array([beta]))


def test_trace_invariants_reject_fabricated_rows():
    taus = np.array([[-0.5], [0.0], [0.5]])
    concave = [trace_row(-0.5, 0.5, 1.0), trace_row(0.0, 0.75, 0.0), trace_row(0.5, 0.5, -1.0)]
    maxent._check_trace_invariants(T, taus, concave)
    # h below its chord at tau = 0
    dip = [trace_row(-0.5, 0.5), trace_row(0.0, 0.25), trace_row(0.5, 0.5)]
    with pytest.raises(maxent.TraceInvariantViolation, match="h not concave at tau=0.0"):
        maxent._check_trace_invariants(T, taus, dip)
    # h concave, but the slopes of two regular rows increase along tau
    rising = [trace_row(-0.5, 0.5, -1.0), trace_row(0.0, 0.75, 1.0), trace_row(0.5, 0.5)]
    with pytest.raises(maxent.TraceInvariantViolation, match="conjugate slope increased"):
        maxent._check_trace_invariants(T, taus, rising)


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
    # the batched grid agrees with one natural_tilt per beta
    chi = np.array([natural_tilt(LOG, T, np.array([b])).chi
                    for b in np.linspace(-3.0, 3.0, 401)])
    per_beta = np.min(chi + np.outer(rep.sigmas, np.linspace(-3.0, 3.0, 401)), axis=1)
    assert np.max(np.abs(rep.grid_estimates - per_beta)) <= 1e-14


@pytest.mark.parametrize("model", [BRIER, LOG, ZERO_ONE, quadratic_model(SPACE)],
                         ids=["brier", "log", "zero_one", "quadratic"])
def test_tilt_arrays_are_the_per_beta_tilts_bitwise(model):
    # conjugacy_check reads chi off the batched arrays, with no TiltResult
    # per beta; every row is the single-beta natural tilt to the bit, on
    # each route (separable dual, closed form, Frank-Wolfe search)
    betas = np.linspace(-2.0, 2.0, 9)
    q, chi, gaps, methods = maxent._tilt_arrays(model, T, betas[:, None], maxent.TILT_TOL)
    assert not q.flags.writeable
    for i, b in enumerate(betas):
        one = natural_tilt(model, T, np.array([b]))
        np.testing.assert_array_equal(q[i], one.q.w)
        assert (chi[i], gaps[i], methods[i]) == (one.chi, one.gap, one.method), b


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


def test_lafferty_zero_one_rows_are_closed_form_tilts():
    p0 = Distribution(np.array([0.5, 0.3, 0.2]))
    betas = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    tr = lafferty_family(ZERO_ONE, p0, T, betas)
    rel = relative_model(ZERO_ONE, ZERO_ONE.bayes_act(p0))
    assert sorted(float(row.beta[0]) for row in tr.rows) == betas
    for row in tr.rows:
        q = natural_tilt(rel, T, row.beta).q
        assert np.array_equal(row.tau, T.matrix @ q.w)
        assert abs(row.beta0 - _game_tilt(rel, T.matrix, row.beta).value) <= 1e-12


@pytest.mark.parametrize("kind", ["zero_one", "brier", "log", "power3"])
def test_lafferty_grid_tilts_equal_per_beta_tilts_bitwise(kind, monkeypatch):
    # the family tilts its whole beta grid in one call; each row is the
    # single-beta natural tilt to the bit.  A relative game is its base game
    # plus a linear term, so every tilt takes the base model's separable
    # dual or closed form, never a search
    def refuse(*args, **kwargs):
        raise AssertionError("the tilt left the base model's route")

    monkeypatch.setattr(maxent, "_mixture_max", refuse)
    monkeypatch.setattr(maxent, "_fw_maximize", refuse)
    space = SampleSpace.of(["a", "b", "c", "d"])
    model = {"zero_one": zero_one_model, "brier": brier_model, "log": log_model,
             "power3": lambda s: bregman_model(s, power_generator(3.0))}[kind](space)
    t4 = Statistic(np.array([[-1.5, -0.2, 0.7, 2.0]]))
    p0 = Distribution(np.array([0.4, 0.3, 0.2, 0.1]))
    rel = relative_model(model, model.bayes_act(p0))
    betas = np.linspace(-2.0, 2.0, 101)
    grid = _tilts(rel, t4, betas[:, None], 1e-8)
    single = {float(b): natural_tilt(rel, t4, [b]) for b in betas}
    for b, row in zip(betas, grid):
        one = single[float(b)]
        np.testing.assert_array_equal(row.q.w, one.q.w)
        assert (row.chi, row.gap, row.method) == (one.chi, one.gap, one.method)
        if kind != "zero_one":
            assert row.method == "separable-dual" and row.gap <= 1e-12, b
    tr = lafferty_family(model, p0, t4, betas)
    assert len(tr.rows) == betas.size
    for row in tr.rows:
        one = single[float(row.beta[0])]
        np.testing.assert_array_equal(row.p_star.w, one.q.w)
        assert row.beta0 == one.chi and row.gap == one.gap


def test_lafferty_brier_uniform_reduces_to_plain_family():
    tr = lafferty_family(BRIER, Distribution.uniform(3), T,
                         np.linspace(-0.6, 0.6, 7))
    for row in tr.rows:
        plain = solve(BRIER, GammaTau(T, row.tau))
        assert np.max(np.abs(row.p_star.w - plain.p_star.w)) <= 1e-4
        # relative entropy differs from plain entropy by the reference level
        assert abs(row.h_star - (plain.h_star - 2.0 / 3.0)) <= 1e-7


def test_slope_root_from_an_infinite_rise():
    # an unbounded loss at an emptied outcome makes slope(0) = +inf; the
    # first probe (at hi) is already past the root, so lo keeps that slope
    root = _slope_root(lambda t: 0.1 - t, np.inf, np.float64(0.5))
    assert abs(root - 0.1) <= 1e-8 * 0.1


# ---------------------------------------------------------------------------
# the Frank-Wolfe inner loop


def test_frank_wolfe_builds_no_act_per_step(monkeypatch):
    # supergradients and line-search slopes are rows of `bayes_losses`; the
    # loop builds one act, the one it returns, and no loss vector.  The
    # active-set QP's certificate reads the same rows: one act, no loss vector.
    # Frank-Wolfe runs a log, a Bregman square and a relative log capacity;
    # the QP a Brier capacity and a relative-quadratic and a quadratic solve
    counts = Counter()
    in_loop = {"_fw_maximize": Counter(), "_qp_maximize": Counter()}

    def watch(name):
        route = getattr(maxent, name)

        def watched(*args):
            before = counts.copy()
            res = route(*args)
            in_loop[name].update(counts - before)
            return res
        monkeypatch.setattr(maxent, name, watched)

    watch("_fw_maximize")
    watch("_qp_maximize")

    def counted(model):
        for name in ("loss_vector", "bayes_act"):
            def call(*args, _method=getattr(model, name), _name=name):
                counts[_name] += 1
                return _method(*args)
            monkeypatch.setattr(model, name, call)
        return model

    rng = np.random.default_rng(37)
    space = SampleSpace.of([str(i) for i in range(6)])
    members = [tuple(rng.dirichlet(np.ones(6), 4)) for _ in range(3)]
    square = partial(bregman_model, generator=square_generator(6))
    runs = [capacity_solve(StatModel(counted(make(space)), family))
            for make, family in zip((log_model, square, brier_model), members)]
    g = GammaTau(Statistic(rng.uniform(-1.0, 1.0, (1, 6))), np.array([0.1]))
    values = rng.uniform(-1.0, 1.0, 6)
    reference = Act("scalar", 0.3)
    runs += [solve(counted(relative_model(quadratic_model(space, values), reference)), g),
             solve(counted(quadratic_model(space, values)), g)]
    log = log_model(space)
    relative_log = relative_model(log, log.random_act(rng))
    runs.append(capacity_solve(StatModel(counted(relative_log),
                                         tuple(rng.dirichlet(np.ones(6), 4)))))
    assert [r.method for r in runs] == ["frank-wolfe", "frank-wolfe", "active-set",
                                        "active-set", "active-set", "frank-wolfe"]
    assert in_loop == {"_fw_maximize": Counter(bayes_act=3),
                       "_qp_maximize": Counter(bayes_act=3)}


def test_zero_one_solve_leaves_numpy_ma_unloaded():
    # np.intersect1d and np.setdiff1d import numpy.ma (about 19 ms) on first use
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from maxentgames import GammaTau, SampleSpace, Statistic, solve, zero_one_model",
        "g = GammaTau(Statistic(np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])), np.array([1.5]))",
        "sp = solve(zero_one_model(SampleSpace.of(list('abcde'))), g)",
        "assert sp.method == 'zero-one-enum', sp.method",
        "assert 'numpy.ma' not in sys.modules",
    ])
    src = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
