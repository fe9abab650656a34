"""Loss zoo: pointwise losses, Bayes acts, entropies, propriety, and the
separable Bregman construction with its log/Brier specializations."""

import numpy as np
import pytest

from maxentgames import (
    Act,
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    ACT_SCALAR,
    BaseMeasure,
    Distribution,
    InvalidGenerator,
    LossModel,
    ProprietyViolation,
    SampleSpace,
    bregman_model,
    brier_model,
    check_proper,
    log_model,
    power_generator,
    quadratic_model,
    relative_model,
    square_generator,
    xlogx_generator,
    zero_one_model,
)
from maxentgames.losses import BrierModel, ConvexGenerator

SPACE3 = SampleSpace.of(["a", "b", "c"])
TOL = 1e-9


def _dist(*w):
    return Distribution(np.array(w, dtype=float))


# ---------------------------------------------------------------------------
# Brier


def test_brier_loss_vector_closed_form():
    m = brier_model(SPACE3)
    q = Act(ACT_DISTRIBUTION, [0.5, 0.3, 0.2])
    # S(x, q) = sum q^2 - 2 q(x) + 1
    sq = 0.25 + 0.09 + 0.04
    np.testing.assert_allclose(
        m.loss_vector(q), [sq - 1.0 + 1, sq - 0.6 + 1, sq - 0.4 + 1], atol=TOL
    )


def test_brier_entropy_and_bayes():
    m = brier_model(SPACE3)
    p = _dist(0.5, 0.3, 0.2)
    assert abs(m.entropy(p) - (1 - 0.25 - 0.09 - 0.04)) <= TOL
    np.testing.assert_allclose(m.bayes_act(p).as_array(), p.w, atol=TOL)
    assert abs(m.expected_loss(p, m.bayes_act(p)) - m.entropy(p)) <= TOL


def test_brier_uniform_entropy():
    m = brier_model(SPACE3)
    assert abs(m.entropy(Distribution.uniform(3)) - 2.0 / 3.0) <= TOL


# ---------------------------------------------------------------------------
# log


def test_log_loss_is_negative_log_density():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    act = Act(ACT_DENSITY, [0.9, 0.05, 0.05])
    np.testing.assert_allclose(
        m.loss_vector(act), -np.log([0.9, 0.05, 0.05]), atol=TOL
    )


def test_log_entropy_counting_base_is_shannon():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    p = _dist(0.5, 0.25, 0.25)
    shannon = -(0.5 * np.log(0.5) + 2 * 0.25 * np.log(0.25))
    assert abs(m.entropy(p) - shannon) <= TOL
    assert abs(m.entropy(Distribution.uniform(3)) - np.log(3)) <= 1e-12


def test_log_entropy_probability_base_is_negative_kl():
    mu = BaseMeasure.uniform_probability(3)
    m = log_model(SPACE3, mu)
    p = _dist(0.6, 0.3, 0.1)
    kl = float(np.sum(p.w * np.log(p.w / mu.weights)))
    assert abs(m.entropy(p) + kl) <= TOL
    assert m.entropy(p) <= TOL  # relative entropy is nonpositive


def test_log_loss_infinite_off_support():
    m = log_model(SPACE3, BaseMeasure.counting(3))
    act = m.bayes_act(_dist(1.0, 0.0, 0.0))
    lv = m.loss_vector(act)
    assert lv[0] == 0.0 and np.isinf(lv[1]) and np.isinf(lv[2])
    # 0 * inf = 0: the supporting distribution still has finite expected loss
    assert m.expected_loss(_dist(1.0, 0.0, 0.0), act) == 0.0


# ---------------------------------------------------------------------------
# zero-one


def test_zero_one_randomized_loss():
    m = zero_one_model(SPACE3)
    zeta = Act(ACT_DISTRIBUTION, [0.0, 1.0 / 3.0, 2.0 / 3.0])
    np.testing.assert_allclose(m.loss_vector(zeta), [1.0, 2.0 / 3.0, 1.0 / 3.0], atol=TOL)
    p = _dist(1.0 / 6.0, 5.0 / 12.0, 5.0 / 12.0)
    # L(P, zeta) = 1 - sum p(x) zeta(x)
    assert abs(m.expected_loss(p, zeta) - 7.0 / 12.0) <= TOL


def test_zero_one_entropy_is_one_minus_pmax():
    m = zero_one_model(SPACE3)
    assert abs(m.entropy(_dist(0.5, 0.3, 0.2)) - 0.5) <= TOL
    assert abs(m.entropy(Distribution.uniform(3)) - 2.0 / 3.0) <= TOL


def test_zero_one_bayes_set_is_mode_uniform():
    m = zero_one_model(SPACE3)
    act = m.bayes_act(_dist(0.4, 0.4, 0.2))
    np.testing.assert_allclose(act.as_array(), [0.5, 0.5, 0.0], atol=TOL)
    modes = m.bayes_act_set(_dist(0.4, 0.4, 0.2))
    assert list(modes) == [0, 1]
    # ties within 1e-9 count as joint modes
    modes = m.bayes_act_set(_dist(0.4, 0.4 - 1e-12, 0.2 + 1e-12))
    assert list(modes) == [0, 1]


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_bayes_is_mean_entropy_is_variance():
    m = quadratic_model(SPACE3, values=[-1.0, 0.0, 1.0])
    p = _dist(0.25, 0.25, 0.5)
    mean = -0.25 + 0.5
    var = 0.25 * (-1 - mean) ** 2 + 0.25 * mean**2 + 0.5 * (1 - mean) ** 2
    act = m.bayes_act(p)
    assert act.kind == ACT_SCALAR and abs(act.payload - mean) <= TOL
    assert abs(m.entropy(p) - var) <= TOL


# ---------------------------------------------------------------------------
# Bregman generators and specializations


def test_bregman_square_binary_divergence_oracle():
    space2 = SampleSpace.of(["0", "1"])
    m = bregman_model(space2, ConvexGenerator("square", lambda s: s * s, lambda s: 2 * s,
                                           lambda v: 0.5 * v))
    p = Distribution(np.array([0.5, 0.5]))
    q = Act(ACT_DENSITY, [0.75, 0.25])
    d = m.expected_loss(p, q) - m.entropy(p)
    assert abs(d - 2 * 0.25**2) <= TOL


def test_bregman_xlogx_counting_reproduces_log_model():
    gen = xlogx_generator()
    mb = bregman_model(SPACE3, gen, BaseMeasure.counting(3))
    ml = log_model(SPACE3, BaseMeasure.counting(3))
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = Distribution(rng.dirichlet(np.ones(3)))
        q = rng.dirichlet(np.ones(3))
        act = Act(ACT_DENSITY, q)
        assert abs(mb.entropy(p) - ml.entropy(p)) <= TOL
        np.testing.assert_allclose(
            mb.loss_vector(act), ml.loss_vector(act), atol=TOL
        )


def test_bregman_shifted_square_counting_reproduces_brier():
    gen = square_generator(3)  # psi(s) = s^2 - 1/N
    mb = bregman_model(SPACE3, gen, BaseMeasure.counting(3))
    m = brier_model(SPACE3)
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = Distribution(rng.dirichlet(np.ones(3)))
        q = rng.dirichlet(np.ones(3))
        assert abs(mb.entropy(p) - m.entropy(p)) <= TOL
        np.testing.assert_allclose(
            mb.loss_vector(Act(ACT_DENSITY, q)),
            m.loss_vector(Act(ACT_DISTRIBUTION, q)),
            atol=TOL,
        )


def test_power_generator_is_strictly_convex_for_exponent_above_one():
    gen = power_generator(1.5)
    assert gen.strictly_convex
    with pytest.raises(InvalidGenerator):
        power_generator(1.0)


def test_invalid_generator_detected():
    concave = ConvexGenerator("neg-square", lambda s: -s * s, lambda s: -2 * s,
                              lambda v: -0.5 * v)
    with pytest.raises(InvalidGenerator):
        bregman_model(SPACE3, concave)
    wrong_inverse = ConvexGenerator("square", lambda s: s * s, lambda s: 2 * s,
                                    lambda v: v)
    with pytest.raises(InvalidGenerator, match="psi_prime_inv"):
        bregman_model(SPACE3, wrong_inverse)


def test_generator_inverses_invert_the_derivative():
    s = np.array([1e-3, 0.4, 1.0, 7.5])
    for gen in (xlogx_generator(), square_generator(3), power_generator(3.0)):
        back = gen.psi_prime_inv(gen.psi_prime(s))
        assert np.max(np.abs(back - s) / np.maximum(1.0, s)) <= 1e-12, gen.name


def test_bregman_loss_at_a_zero_density_is_the_limit_without_warnings():
    # psi'(0) = -inf for xlogx: the loss there is +inf, and 0 * psi'(0) is
    # never formed (warnings are errors in this suite)
    mb = bregman_model(SPACE3, xlogx_generator(), BaseMeasure.counting(3))
    lv = mb.loss_vector(Act(ACT_DENSITY, [0.5, 0.5, 0.0]))
    assert lv[2] == np.inf
    np.testing.assert_allclose(lv[:2], [np.log(2.0)] * 2, atol=TOL)


# ---------------------------------------------------------------------------
# propriety harness


def test_check_proper_passes_for_bundled_scoring_rules():
    for model in (brier_model(SPACE3), log_model(SPACE3, BaseMeasure.counting(3)),
                  zero_one_model(SPACE3)):
        report = check_proper(model, trials=1000, seed=0)
        assert report.min_margin >= -TOL


def test_check_proper_catches_negated_score():
    class NegatedBrier(BrierModel):
        def loss_vector(self, act):
            return -super().loss_vector(act)

        def entropy(self, dist):
            # keep H = inf_a L(P, a) consistent with the negated loss
            return float(-super().loss_vector(super().bayes_act(dist)) @ dist.w)

    with pytest.raises(ProprietyViolation) as err:
        check_proper(NegatedBrier(SPACE3), trials=200, seed=1)
    assert err.value.witness is not None


def test_propriety_equality_only_at_p_for_strict_models():
    m = brier_model(SPACE3)
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = Distribution(rng.dirichlet(np.ones(3)))
        q = Distribution(rng.dirichlet(np.ones(3)))
        gap = m.expected_loss(p, m.bayes_act(q)) - m.entropy(p)
        if np.max(np.abs(p.w - q.w)) > 1e-4:
            assert gap > 0.0
        assert gap >= -TOL


def test_entropy_concavity_random_mixtures():
    rng = np.random.default_rng(12)
    models = (brier_model(SPACE3), log_model(SPACE3, BaseMeasure.counting(3)),
              zero_one_model(SPACE3), quadratic_model(SPACE3, values=[-1.0, 0.0, 1.0]))
    for _ in range(250):
        p0 = Distribution(rng.dirichlet(np.ones(3)))
        p1 = Distribution(rng.dirichlet(np.ones(3)))
        lam = rng.uniform()
        mix = Distribution((1 - lam) * p0.w + lam * p1.w)
        for m in models:
            bound = (1 - lam) * m.entropy(p0) + lam * m.entropy(p1)
            assert m.entropy(mix) >= bound - TOL


# ---------------------------------------------------------------------------
# batch entropies


class _MinimalBrier(LossModel):
    """A subclass that defines only the loss and its Bayes act."""

    def __init__(self, space):
        self.space = space
        self.name = self.kind = "minimal"
        self.act_kind = ACT_DISTRIBUTION
        self.strictness = "strict"

    def loss_vector(self, act):
        q = self._dist_payload(act)
        return float(q @ q) - 2.0 * q + 1.0

    def bayes_act(self, dist):
        return Act(ACT_DISTRIBUTION, dist.w)


def test_entropy_batch_matches_scalar_entropy():
    rng = np.random.default_rng(21)
    space = SampleSpace.of([str(i) for i in range(5)])
    base = BaseMeasure(np.array([0.5, 1.0, 2.0, 0.25, 1.5]))
    rows = rng.dirichlet(np.ones(5), size=40)
    rows[:8, 0] = 0.0          # rows off the full support
    rows /= rows.sum(axis=1, keepdims=True)
    models = [
        brier_model(space),
        log_model(space, base),
        zero_one_model(space),
        quadratic_model(space, values=[-1.0, 0.0, 0.5, 2.0, 3.0]),
        bregman_model(space, xlogx_generator()),
        bregman_model(space, square_generator(5)),
        bregman_model(space, power_generator(3.0)),
        relative_model(log_model(space, base), Act(ACT_DENSITY, np.full(5, 1.0 / 5.25))),
        _MinimalBrier(space),
    ]
    for m in models:
        batch = m.entropy_batch(rows)
        scalar = np.array([m.entropy(Distribution(r)) for r in rows])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12, err_msg=m.name)
