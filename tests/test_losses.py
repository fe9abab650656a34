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
    DimensionMismatch,
    Distribution,
    InvalidGenerator,
    LossModel,
    NotNormalized,
    ProprietyViolation,
    SampleSpace,
    bregman_model,
    brier_model,
    check_proper,
    ext_dots,
    log_model,
    power_generator,
    quadratic_model,
    relative_model,
    square_generator,
    xlogx_generator,
    zero_one_model,
)
from maxentgames.core import WEIGHT_CLAMP
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadratic_rejects_non_finite_acts_and_values(bad):
    m = quadratic_model(SPACE3, values=[-1.0, 0.0, 1.0])
    with pytest.raises(DimensionMismatch, match="finite"):
        m.loss_vector(Act(ACT_SCALAR, bad))
    with pytest.raises(DimensionMismatch, match="finite"):
        quadratic_model(SPACE3, values=[-1.0, bad, 1.0])


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
    power_generator(1.5)
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


@pytest.mark.parametrize("model, kind", [
    (brier_model(SPACE3), ACT_DISTRIBUTION),
    (zero_one_model(SPACE3), ACT_DISTRIBUTION),
    (log_model(SPACE3), ACT_DENSITY),
    (bregman_model(SPACE3, xlogx_generator()), ACT_DENSITY),
], ids=["brier", "zero_one", "log", "bregman"])
def test_act_payload_with_a_nan_entry_is_rejected(model, kind):
    with pytest.raises(DimensionMismatch, match="finite and nonnegative"):
        model.loss_vector(Act(kind, [np.nan, 0.5, 0.5]))


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

        def entropy_batch(self, rows):
            return np.array([self.entropy(Distribution(row)) for row in rows])

    class ConfidentBrier(BrierModel):
        # a discount for confident forecasts: only some trials fail
        def loss_vector(self, act):
            return super().loss_vector(act) - 0.5 * float(act.payload.max() > 0.8)

    for model in (NegatedBrier(SPACE3), ConfidentBrier(SPACE3)):
        first = _first_failing_pair(model, trials=200, seed=1)
        assert first is not None
        with pytest.raises(ProprietyViolation) as err:
            check_proper(model, trials=200, seed=1)
        p, act = err.value.witness
        np.testing.assert_array_equal(p.w, first[1].w)
        np.testing.assert_array_equal(act.payload, first[2].payload)
    # the discount spares unconfident acts, so the first trials pass
    assert _first_failing_pair(ConfidentBrier(SPACE3), trials=200, seed=1)[0] > 0


def _first_failing_pair(model, trials, seed):
    """Oracle: the per-trial loop, one Distribution and one act at a time."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        p = Distribution(rng.dirichlet(np.ones(model.space.n)))
        act = model.random_act(rng)
        if model.expected_loss(p, act) - model.entropy(p) < -1e-9:
            return i, p, act
    return None


def test_check_proper_min_margin_matches_the_per_trial_loop():
    # check_proper draws its trials as one block and scores them with one
    # loss matrix; the per-trial loop draws a law and an act in turn and
    # scores each act with loss_vector.  Its margins, from the same row-paired
    # expectations, must be check_proper's bit for bit, and within 1e-15 of
    # the scalar margins E_P L(X, act) - H(P)
    base = BaseMeasure([0.5, 1.0, 2.0])
    models = (brier_model(SPACE3), log_model(SPACE3, base), zero_one_model(SPACE3),
              quadratic_model(SPACE3, values=[-1.0, 0.0, 2.0]),
              bregman_model(SPACE3, xlogx_generator()),
              bregman_model(SPACE3, square_generator(3)),
              bregman_model(SPACE3, power_generator(3.0), base),
              relative_model(brier_model(SPACE3), Act(ACT_DISTRIBUTION, [0.2, 0.3, 0.5])),
              relative_model(log_model(SPACE3, base), Act(ACT_DENSITY, np.full(3, 1 / 3.5))))
    for model in models:
        for seed in range(10):
            rng = np.random.default_rng(seed)
            laws, losses, scalar = [], [], []
            for _ in range(300):
                p = Distribution(rng.dirichlet(np.ones(3)))
                act = model.random_act(rng)
                laws.append(p.w)
                losses.append(model.loss_vector(act))
                scalar.append(model.expected_loss(p, act) - model.entropy(p))
            laws = np.array(laws)
            margins = ext_dots(laws, np.array(losses)) - model.entropy_batch(laws)
            rep = check_proper(model, trials=300, seed=seed)
            assert rep.trials == 300
            assert rep.min_margin == margins.min(), (model.name, seed)
            assert abs(rep.min_margin - min(scalar)) <= 1e-15, (model.name, seed)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
def test_random_acts_block_is_the_per_trial_stream(n):
    space = SampleSpace.of(range(n))
    base = BaseMeasure(np.resize([0.5, 1.0, 2.0], n))
    models = (brier_model(space), log_model(space, base), zero_one_model(space),
              quadratic_model(space, values=np.linspace(-1.0, 2.0, n)),
              bregman_model(space, power_generator(3.0), base),
              relative_model(log_model(space, base), Act(ACT_DENSITY, 1.0 / base.weights / n)))
    for model in models:
        for seed in range(10):
            laws, acts = model.random_acts(np.random.default_rng(seed), 50)
            rng = np.random.default_rng(seed)
            for i in range(50):
                assert laws[i].tobytes() == rng.dirichlet(np.ones(n)).tobytes()
                assert np.asarray(acts[i]).tobytes() == np.asarray(
                    model.random_act(rng).payload).tobytes(), (model.name, seed, i)


def test_a_per_act_override_is_scored_and_drawn_by_itself():
    class Shifted(BrierModel):
        def loss_vector(self, act):
            return super().loss_vector(act) + 1.0

    class Fixed(BrierModel):
        def random_act(self, rng):
            return Act(ACT_DISTRIBUTION, [0.2, 0.3, 0.5])

    block = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(Shifted(SPACE3).loss_matrix(block),
                                  brier_model(SPACE3).loss_matrix(block) + 1.0)
    laws, acts = Fixed(SPACE3).random_acts(np.random.default_rng(0), 4)
    assert laws.shape == acts.shape == (4, 3)
    np.testing.assert_array_equal(acts, np.tile([0.2, 0.3, 0.5], (4, 1)))
    assert check_proper(Fixed(SPACE3), trials=0).min_margin == np.inf
    # an instance's own loss_vector wins too
    model = brier_model(SPACE3)
    model.loss_vector = lambda act: np.zeros(3)
    np.testing.assert_array_equal(model.loss_matrix(block), np.zeros((2, 3)))


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
# loss matrices of payload blocks


def _loss_matrix_models(n):
    """(model, base weights of its density acts, else ones) pairs."""
    space = SampleSpace.of(range(n))
    base = BaseMeasure(np.resize([0.5, 1.0, 2.0], n))
    ones = np.ones(n)
    return [
        (brier_model(space), ones),
        (log_model(space, base), base.weights),
        (zero_one_model(space), ones),
        (quadratic_model(space, values=np.linspace(-1.0, 2.0, n)), ones),
        (bregman_model(space, xlogx_generator()), ones),
        (bregman_model(space, square_generator(n)), ones),
        (bregman_model(space, power_generator(3.0)), ones),
        (relative_model(brier_model(space), Act(ACT_DISTRIBUTION, np.full(n, 1.0 / n))), ones),
        (relative_model(log_model(space, base), Act(ACT_DENSITY, 1.0 / base.weights / n)),
         base.weights),
    ]


def _payload_block(model, mu, rng, m):
    """m payloads of the model's act kind: random acts, and for vector acts
    some off the full support and some with an entry just below zero that
    the check clamps."""
    laws, block = model.random_acts(rng, m)
    if model.act_kind == ACT_SCALAR:
        return block
    off, low = slice(0, m // 4), slice(m // 4, m // 2)
    laws[off, -1] += laws[off, 0]
    laws[off, 0] = 0.0
    laws[low, 0] += laws[low, -1]
    laws[low, -1] = -0.25 * WEIGHT_CLAMP
    return laws / mu


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_loss_matrix_rows_are_loss_vectors_bitwise(n):
    rng = np.random.default_rng(30 + n)
    for model, mu in _loss_matrix_models(n):
        block = _payload_block(model, mu, rng, 40)
        matrix = model.loss_matrix(block)
        rows = np.array([model.loss_vector(Act(model.act_kind, b)) for b in block])
        assert matrix.shape == rows.shape == (40, n), model.name
        assert matrix.tobytes() == rows.tobytes(), model.name


@pytest.mark.parametrize("fault", ["nan", "below clamp", "mass"])
def test_loss_matrix_refuses_a_block_as_loss_vector_refuses_its_act(fault):
    rng = np.random.default_rng(7)
    for model, _ in _loss_matrix_models(5):
        block = model.random_acts(rng, 6)[1].copy()
        if model.act_kind == ACT_SCALAR:
            if fault != "nan":
                continue
            block[3] = np.nan
        elif fault == "nan":
            block[3, 1] = np.nan
        elif fault == "below clamp":
            block[3, 1] = -10 * WEIGHT_CLAMP
        else:
            block[3] *= 1.01
        with pytest.raises(Exception) as per_act:
            model.loss_vector(Act(model.act_kind, block[3]))
        assert type(per_act.value) in (DimensionMismatch, NotNormalized)
        with pytest.raises(type(per_act.value)):
            model.loss_matrix(block)
        model.loss_matrix(np.delete(block, 3, axis=0))


# ---------------------------------------------------------------------------
# batch entropies


class _MinimalBrier(LossModel):
    """A subclass that defines only the loss and its Bayes act."""

    def __init__(self, space):
        self.space = space
        self.name = self.kind = "minimal"
        self.act_kind = ACT_DISTRIBUTION

    def loss_vector(self, act):
        q = self._act_payload(act, ACT_DISTRIBUTION)
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


# ---------------------------------------------------------------------------
# Bayes losses of a block of laws


def _bayes_loss_rows(model, rows):
    """Oracle: one Distribution, one Bayes act and one loss vector per law."""
    return np.array([model.loss_vector(model.bayes_act(Distribution(r))) for r in rows])


def test_bayes_losses_match_the_row_loop():
    rng = np.random.default_rng(23)
    space = SampleSpace.of([str(i) for i in range(5)])
    base = BaseMeasure(np.array([0.5, 1.0, 2.0, 0.25, 1.5]))
    rows = rng.dirichlet(np.ones(5), size=40)
    rows[:8, 0] = 0.0          # laws off the full support: infinite log losses
    rows /= rows.sum(axis=1, keepdims=True)
    # modes tied within MODE_TOL, and a near tie just outside it
    rows[8] = [0.3, 0.3 - 5e-10, 0.2, 0.1, 0.1 + 5e-10]
    rows[9] = [0.3, 0.3 - 2e-9, 0.2, 0.1, 0.1 + 2e-9]
    rows[10] = [0.2, 0.2, 0.2, 0.2, 0.2]
    models = [
        brier_model(space),
        log_model(space, base),
        zero_one_model(space),
        quadratic_model(space, values=[-1.0, 0.0, 0.5, 2.0, 3.0]),
        bregman_model(space, power_generator(3.0)),
        bregman_model(space, xlogx_generator(), base),
        relative_model(brier_model(space), Act(ACT_DISTRIBUTION, [0.1, 0.2, 0.3, 0.2, 0.2])),
        relative_model(log_model(space, base), Act(ACT_DENSITY, np.full(5, 1.0 / 5.25))),
        _MinimalBrier(space),
    ]
    for m in models:
        batch, oracle = m.bayes_losses(rows), _bayes_loss_rows(m, rows)
        assert batch.shape == oracle.shape == rows.shape, m.name
        np.testing.assert_array_equal(np.isinf(batch), np.isinf(oracle), err_msg=m.name)
        finite = np.isfinite(oracle)
        assert np.max(np.abs(batch[finite] - oracle[finite])) <= 1e-15, m.name
    zero_one = zero_one_model(space).bayes_losses(rows)
    np.testing.assert_array_equal(zero_one[8], [0.5, 0.5, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(zero_one[9], [0.0, 1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(zero_one[10], np.full(5, 0.8))


def test_bayes_losses_of_a_custom_model_run_its_own_methods():
    calls = []

    class Counted(_MinimalBrier):
        def bayes_act(self, dist):
            calls.append(dist.w.copy())
            return super().bayes_act(dist)

    rows = np.random.default_rng(24).dirichlet(np.ones(3), size=4)
    out = Counted(SPACE3).bayes_losses(rows)
    np.testing.assert_array_equal(np.array(calls), rows)
    np.testing.assert_array_equal(out, _bayes_loss_rows(_MinimalBrier(SPACE3), rows))
