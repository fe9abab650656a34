"""Discrepancy, divergence, mixture identities, neutral acts, relative games,
and the equalizer / Pythagorean verifiers."""

import numpy as np
import pytest

from maxentgames import (
    Act,
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    BaseMeasure,
    DimensionMismatch,
    Distribution,
    GammaTau,
    InfiniteReferenceLoss,
    SampleSpace,
    StatModel,
    Statistic,
    bregman_model,
    brier_model,
    capacity_solve,
    discrepancy,
    div,
    equalizer_check,
    ext_dot,
    find_neutral,
    log_model,
    mixture_identities,
    power_generator,
    pythagorean_check,
    quadratic_model,
    relative_model,
    value_of_information,
    vertices,
    zero_one_model,
)
from maxentgames.maxent import solve

SPACE3 = SampleSpace.of(["a", "b", "c"])
T3 = Statistic(np.array([[-1.0, 0.0, 1.0]]))
TOL = 1e-9


def _dist(*w):
    return Distribution(np.array(w, dtype=float))


def test_discrepancy_zero_at_bayes_act():
    m = brier_model(SPACE3)
    u = Distribution.uniform(3)
    assert abs(discrepancy(m, u, m.bayes_act(u))) <= TOL


def test_discrepancy_brier_is_squared_distance():
    m = brier_model(SPACE3)
    u = Distribution.uniform(3)
    point = Act(ACT_DISTRIBUTION, [1.0, 0.0, 0.0])
    assert abs(discrepancy(m, u, point) - 2.0 / 3.0) <= TOL


def test_discrepancy_zero_one_bayes_act_example():
    m = zero_one_model(SPACE3)
    p = _dist(1 / 6, 5 / 12, 5 / 12)
    zeta = Act(ACT_DISTRIBUTION, [0.0, 1 / 3, 2 / 3])
    assert abs(discrepancy(m, p, zeta)) <= TOL  # L = H = 7/12 here


def test_div_log_is_kullback_leibler():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    p = _dist(0.9, 0.1, 0.0)
    q = _dist(0.5, 0.5, 0.0)
    expected = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
    assert abs(div(m, p, q) - expected) <= TOL
    assert abs(div(m, p, p)) <= TOL


def test_div_brier_disjoint_point_masses():
    m = brier_model(SPACE3)
    assert abs(div(m, _dist(1, 0, 0), _dist(0, 1, 0)) - 2.0) <= TOL


def test_div_infinite_when_support_escapes():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    assert div(m, _dist(0.5, 0.5, 0.0), _dist(1.0, 0.0, 0.0)) == np.inf


def test_discrepancy_nonnegative_random(seed=21):
    rng = np.random.default_rng(seed)
    models = (brier_model(SPACE3), log_model(SPACE3, BaseMeasure.counting(3)),
              zero_one_model(SPACE3))
    for _ in range(300):
        p = Distribution(rng.dirichlet(np.ones(3)))
        for m in models:
            act = m.random_act(rng)
            assert discrepancy(m, p, act) >= -TOL
            assert discrepancy(m, p, m.bayes_act(p)) <= TOL


def test_act_difference_is_linear_in_p():
    # for fixed acts a, a': P -> D(P,a) - D(P,a') is linear (entropies cancel)
    m = brier_model(SPACE3)
    rng = np.random.default_rng(22)
    a = m.random_act(rng)
    b = m.random_act(rng)
    for _ in range(100):
        p0 = Distribution(rng.dirichlet(np.ones(3)))
        p1 = Distribution(rng.dirichlet(np.ones(3)))
        lam = rng.uniform()
        mix = Distribution((1 - lam) * p0.w + lam * p1.w)
        lhs = discrepancy(m, mix, a) - discrepancy(m, mix, b)
        rhs = (1 - lam) * (discrepancy(m, p0, a) - discrepancy(m, p0, b)) \
            + lam * (discrepancy(m, p1, a) - discrepancy(m, p1, b))
        assert abs(lhs - rhs) <= TOL


def test_discrepancy_convex_in_p():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    rng = np.random.default_rng(23)
    act = Act(ACT_DENSITY, rng.dirichlet(np.ones(3)))
    for _ in range(100):
        p0 = Distribution(rng.dirichlet(np.ones(3)))
        p1 = Distribution(rng.dirichlet(np.ones(3)))
        lam = rng.uniform()
        mix = Distribution((1 - lam) * p0.w + lam * p1.w)
        bound = (1 - lam) * discrepancy(m, p0, act) + lam * discrepancy(m, p1, act)
        assert discrepancy(m, mix, act) <= bound + TOL


# ---------------------------------------------------------------------------
# mixture identities


def test_mixture_identity_brier_half_half_oracle():
    m = brier_model(SPACE3)
    parts = [_dist(1, 0, 0), _dist(0, 0, 1)]
    rep = mixture_identities(m, parts, [0.5, 0.5], Distribution.uniform(3))
    assert abs(rep.entropy_lhs - 0.5) <= TOL
    assert rep.entropy_residual <= TOL and rep.div_residual <= TOL


def test_mixture_identity_degenerate_single_part():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    rep = mixture_identities(m, [_dist(0.2, 0.3, 0.5)], [1.0], Distribution.uniform(3))
    assert rep.entropy_residual <= TOL and rep.div_residual <= TOL


def test_mixture_identities_random_sweep():
    rng = np.random.default_rng(31)
    models = (brier_model(SPACE3), log_model(SPACE3, BaseMeasure.counting(3)))
    for m in models:
        for _ in range(250):
            parts = [Distribution(rng.dirichlet(np.ones(3))) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            q = Distribution(rng.dirichlet(np.ones(3)))
            rep = mixture_identities(m, parts, w, q)
            assert rep.entropy_residual <= TOL
            assert rep.div_residual <= TOL


# ---------------------------------------------------------------------------
# neutral acts


def test_neutral_acts_for_bundled_models():
    zo = find_neutral(zero_one_model(SPACE3))
    np.testing.assert_allclose(zo.as_array(), [1 / 3] * 3, atol=TOL)
    lv = zero_one_model(SPACE3).loss_vector(zo)
    np.testing.assert_allclose(lv, 2 / 3, atol=TOL)

    m = log_model(SPACE3, BaseMeasure.uniform_probability(3))
    neutral = find_neutral(m)
    np.testing.assert_allclose(m.loss_vector(neutral), 0.0, atol=TOL)

    assert find_neutral(quadratic_model(SPACE3, values=[-1.0, 0.0, 1.0])) is None

    # the Bayes act of mu / sum mu: the density 1 / sum mu, of constant loss
    space4 = SampleSpace.of(["a", "b", "c", "d"])
    base = BaseMeasure(np.array([0.5, 1.5, 2.0, 0.7]))
    for m, total in ((brier_model(SPACE3), 3.0),
                     (bregman_model(space4, power_generator(3.0), base), base.total),
                     (log_model(space4, base), base.total)):
        neutral = find_neutral(m)
        np.testing.assert_array_max_ulp(neutral.as_array(), np.full(m.space.n, 1.0 / total), 1)
        lv = m.loss_vector(neutral)
        assert np.isfinite(lv).all() and float(lv.max() - lv.min()) <= 1e-12, m.name
    # quadratic loss has one only where its values take two levels equally often
    assert find_neutral(quadratic_model(space4, values=[-1.0, -1.0, 1.0, 1.0])).payload == 0.0


# ---------------------------------------------------------------------------
# relative models


def test_relative_model_entropy_is_negative_discrepancy():
    m = brier_model(SPACE3)
    ref = Act(ACT_DISTRIBUTION, [1 / 3, 1 / 3, 1 / 3])
    rel = relative_model(m, ref)
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = Distribution(rng.dirichlet(np.ones(3)))
        # with a uniform Brier reference: H0(P) = -||p - u||^2
        assert abs(rel.entropy(p) + np.sum((p.w - 1 / 3) ** 2)) <= TOL
        assert rel.entropy(p) <= TOL
        # Bayes acts are shared with the base game
        bayes = rel.bayes_act(p)
        assert abs(rel.expected_loss(p, bayes) - rel.entropy(p)) <= TOL


def test_relative_model_with_own_bayes_reference_has_zero_entropy():
    m = brier_model(SPACE3)
    p = _dist(0.2, 0.5, 0.3)
    rel = relative_model(m, m.bayes_act(p))
    assert abs(rel.entropy(p)) <= TOL


def test_relative_log_probability_base_is_negative_kl():
    m = log_model(SPACE3, BaseMeasure.uniform_probability(3))
    rel = relative_model(m, Act(ACT_DENSITY, [1.0, 1.0, 1.0]))
    p = _dist(0.6, 0.3, 0.1)
    kl = float(np.sum(p.w * np.log(p.w / (1 / 3))))
    assert abs(rel.entropy(p) + kl) <= TOL


def test_relative_model_rejects_infinite_reference():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    with pytest.raises(InfiniteReferenceLoss):
        relative_model(m, m.bayes_act(_dist(1.0, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# equalizer / Pythagorean verifiers


def test_equalizer_brier_interior_act():
    m = brier_model(SPACE3)
    g = GammaTau(T3, np.array([0.5]))
    sp = solve(m, g)
    rep = equalizer_check(m, vertices(g).distributions(), sp.zeta_star)
    assert rep.is_equalizer and rep.spread <= 1e-8
    np.testing.assert_allclose(rep.values, 13 / 24, atol=TOL)


def test_equalizer_zero_one_table_act():
    m = zero_one_model(SPACE3)
    g = GammaTau(T3, np.array([0.25]))
    zeta = Act(ACT_DISTRIBUTION, [0.0, 1 / 3, 2 / 3])
    rep = equalizer_check(m, vertices(g).distributions(), zeta)
    assert rep.is_equalizer
    np.testing.assert_allclose(rep.values, 7 / 12, atol=TOL)


def test_equalizer_fails_outside_linearity_region():
    m = brier_model(SPACE3)
    g = GammaTau(T3, np.array([0.9]))
    sp = solve(m, g)
    rep = equalizer_check(m, vertices(g).distributions(), sp.zeta_star)
    assert not rep.is_equalizer and rep.spread > 1e-6


def test_pythagorean_equality_inside_brier_linearity_region():
    m = brier_model(SPACE3)
    ref = find_neutral(m)
    g = GammaTau(T3, np.array([0.25]))
    sp = solve(m, g)
    rep = pythagorean_check(m, vertices(g).distributions(), sp.p_star, sp.zeta_star, ref)
    assert rep.equality and abs(rep.min_slack) <= 1e-8 and abs(rep.max_slack) <= 1e-8


def test_pythagorean_strict_slack_outside_region():
    m = brier_model(SPACE3)
    ref = find_neutral(m)
    g = GammaTau(T3, np.array([0.75]))
    sp = solve(m, g)
    rep = pythagorean_check(m, vertices(g).distributions(), sp.p_star, sp.zeta_star, ref)
    assert rep.min_slack >= -1e-8
    assert rep.max_slack >= 1e-3
    assert not rep.equality


def test_pythagorean_slack_at_p_star_is_zero():
    m = brier_model(SPACE3)
    ref = find_neutral(m)
    g = GammaTau(T3, np.array([0.4]))
    sp = solve(m, g)
    rep = pythagorean_check(m, [sp.p_star], sp.p_star, sp.zeta_star, ref)
    assert abs(rep.slacks[0]) <= 1e-8


def test_pythagorean_equality_iff_equalizer_along_grid():
    # bidirectional link between equality of the three-point identity and
    # the equalizer property of the solved act, vertex-tested
    models = (brier_model(SPACE3), zero_one_model(SPACE3),
              log_model(SPACE3, BaseMeasure.counting(3)))
    for m in models:
        ref = find_neutral(m)
        for tau in np.linspace(-0.9, 0.9, 19):
            g = GammaTau(T3, np.array([tau]))
            sp = solve(m, g)
            pts = vertices(g).distributions()
            eq = equalizer_check(m, pts, sp.zeta_star)
            py = pythagorean_check(m, pts, sp.p_star, sp.zeta_star, ref)
            assert py.equality == eq.is_equalizer, (m.kind, tau)


# ---------------------------------------------------------------------------
# the batched checks against a per-law oracle: one Distribution and one
# ext_dot per test point


def _oracle_values(model, points, act):
    lv = model.loss_vector(act)
    return np.array([ext_dot(Distribution(p).w, lv) for p in points])


def _oracle_slacks(model, points, p_star, zeta_star, zeta0):
    def d(p, act):
        return ext_dot(p.w, model.loss_vector(act)) - model.entropy(p)
    pivot = d(p_star, zeta0)
    return np.array([d(p, zeta0) - d(p, zeta_star) - pivot
                     for p in map(Distribution, points)])


def _oracle_identity_terms(model, parts, w, q):
    parts = [Distribution(p) for p in parts]
    mixed = Distribution(sum(wi * p.w for wi, p in zip(w, parts)))
    d_mix = np.array([div(model, p, mixed) for p in parts])
    h = np.array([model.entropy(p) for p in parts])
    d_q = np.array([div(model, p, q) for p in parts])
    return np.array([model.entropy(mixed), w @ h + w @ d_mix,
                     div(model, mixed, q), w @ d_q - w @ d_mix])


def _assert_same(batched, oracle):
    batched = np.asarray(batched, dtype=float)
    assert batched.shape == oracle.shape
    np.testing.assert_array_equal(np.isinf(batched), np.isinf(oracle))
    np.testing.assert_array_equal(np.sign(batched[np.isinf(batched)]),
                                  np.sign(oracle[np.isinf(oracle)]))
    finite = np.isfinite(oracle)
    assert np.max(np.abs(batched[finite] - oracle[finite]), initial=0.0) <= 1e-12


def _oracle_models(space):
    n = space.n
    return (brier_model(space), log_model(space), zero_one_model(space),
            quadratic_model(space, values=np.linspace(-1.0, 2.0, n)),
            bregman_model(space, power_generator(3.0)),
            relative_model(brier_model(space), Act(ACT_DISTRIBUTION, np.full(n, 1.0 / n))))


def _oracle_points(rng, n, m):
    points = rng.dirichlet(np.ones(n), size=m)
    points[::3, 0] = 0.0           # some laws leave the first outcome empty
    return points / points.sum(axis=1)[:, None]


def test_batched_checks_match_the_per_law_oracle():
    rng = np.random.default_rng(61)
    space = SampleSpace.of(["a", "b", "c", "d"])
    for model in _oracle_models(space):
        for _ in range(20):
            points = _oracle_points(rng, 4, 9)
            act, zeta0 = model.random_act(rng), model.random_act(rng)
            p_star = Distribution(rng.dirichlet(np.ones(4)))
            for pts in (points, list(points), [Distribution(p) for p in points]):
                _assert_same(equalizer_check(model, pts, act).values,
                             _oracle_values(model, points, act))
                _assert_same(pythagorean_check(model, pts, p_star, act, zeta0).slacks,
                             _oracle_slacks(model, points, p_star, act, zeta0))
            w = rng.dirichlet(np.ones(3))
            q = Distribution(rng.dirichlet(np.ones(4)))
            rep = mixture_identities(model, points[:3], w, q)
            _assert_same([rep.entropy_lhs, rep.entropy_rhs, rep.div_lhs, rep.div_rhs],
                         _oracle_identity_terms(model, points[:3], w, q))


def test_batched_checks_keep_the_infinite_pattern():
    # a log act with zero density at the first outcome: every law charging
    # that outcome has an infinite expected loss
    rng = np.random.default_rng(62)
    space = SampleSpace.of(["a", "b", "c", "d"])
    model = log_model(space)
    act = Act(ACT_DENSITY, [0.0, 0.2, 0.3, 0.5])
    for _ in range(20):
        points = _oracle_points(rng, 4, 9)
        zeta0 = model.random_act(rng)
        p_star = Distribution(np.array([0.0, 0.3, 0.3, 0.4]))
        vals = _oracle_values(model, points, act)
        assert np.isinf(vals).any() and np.isfinite(vals).any()
        rep = equalizer_check(model, points, act)
        _assert_same(rep.values, vals)
        assert rep.spread == np.inf and not rep.is_equalizer
        _assert_same(pythagorean_check(model, points, p_star, act, zeta0).slacks,
                     _oracle_slacks(model, points, p_star, act, zeta0))
        w = rng.dirichlet(np.ones(3))
        q = Distribution(np.array([0.0, 0.2, 0.3, 0.5]))
        rep = mixture_identities(model, points[:3], w, q)
        _assert_same([rep.entropy_lhs, rep.entropy_rhs, rep.div_lhs, rep.div_rhs],
                     _oracle_identity_terms(model, points[:3], w, q))


def test_batched_checks_on_an_empty_point_list():
    m = brier_model(SPACE3)
    act = Act(ACT_DISTRIBUTION, [0.2, 0.3, 0.5])
    for empty in ([], np.zeros((0, 3))):
        eq = equalizer_check(m, empty, act)
        assert eq.spread == 0.0 and eq.values.shape == (0,)
        py = pythagorean_check(m, empty, Distribution.uniform(3), act, act)
        assert py.slacks.shape == (0,) and py.min_slack == py.max_slack == 0.0


def _distribution_error(row, n):
    """The exception class the per-law path raises on a row."""
    try:
        ext_dot(Distribution(np.asarray(row, dtype=float)).w, np.zeros(n))
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    return None


def test_batched_checks_reject_malformed_rows_like_distribution():
    m = brier_model(SPACE3)
    act = Act(ACT_DISTRIBUTION, [0.2, 0.3, 0.5])
    good = [0.2, 0.3, 0.5]
    bad_rows = ([np.nan, 0.5, 0.5], [0.6, 0.5, -1e-11], [0.3, 0.3, 0.3],
                [0.25, 0.25, 0.25, 0.25])
    for bad in bad_rows:
        cls = _distribution_error(bad, 3)
        assert cls is not None, bad
        blocks = [[good, bad]]
        if len(bad) == 3:
            blocks.append(np.array([good, bad]))
        else:
            blocks.append(np.array([bad, bad]))
            assert cls is DimensionMismatch
        for block in blocks:
            for check in (lambda: equalizer_check(m, block, act),
                          lambda: pythagorean_check(m, block, Distribution(np.array(good)),
                                                    act, act),
                          lambda: mixture_identities(m, block, [0.5, 0.5],
                                                     Distribution.uniform(3))):
                with pytest.raises(cls) as err:
                    check()
                assert type(err.value) is cls, (bad, type(err.value))


def test_priors_and_mixture_weights_reject_malformed_vectors_like_distribution():
    # a prior over the members and a mixture's weights are Distributions:
    # each malformed vector raises the class Distribution raises on it
    m = brier_model(SPACE3)
    members = [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.1, 0.8, 0.1]]
    sm = StatModel(m, tuple(members))
    bad_vectors = ([np.nan, 0.5, 0.5], [0.5, 0.5 + 1e-11, -1e-11], [0.3, 0.3, 0.3],
                   [0.25, 0.25, 0.25, 0.25])
    for bad in bad_vectors:
        cls = _distribution_error(bad, 3) if len(bad) == 3 else DimensionMismatch
        assert cls is not None, bad
        for check in (lambda: value_of_information(sm, bad),
                      lambda: sm.mixture(bad),
                      lambda: mixture_identities(m, members, bad, Distribution.uniform(3))):
            with pytest.raises(cls) as err:
                check()
            assert type(err.value) is cls, (bad, type(err.value))
    assert isinstance(capacity_solve(sm).pi_star, Distribution)
