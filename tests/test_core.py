"""Domain-type behavior: spaces, measures, distributions, statistics, acts,
and the extended-real dot product that everything else leans on."""

import numpy as np
import pytest

from maxentgames import (
    Act,
    ACT_DISTRIBUTION,
    ACT_SCALAR,
    BaseMeasure,
    DimensionMismatch,
    Distribution,
    NegativeWeight,
    NotNormalized,
    SampleSpace,
    Statistic,
    UndefinedExpectation,
    ZeroBaseMass,
    ext_dot,
    ext_dots,
    mixture,
    moment,
    validate_distribution,
)

TOL = 1e-12


def test_sample_space_labels_are_ordered_strings():
    space = SampleSpace.of([-1, 0, 1])
    assert space.n == 3
    assert space.labels == ("-1", "0", "1")
    assert space.index(0) == 1


def test_sample_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        SampleSpace.of(["a", "a"])
    with pytest.raises(DimensionMismatch):
        SampleSpace.of([])


def test_base_measure_positivity():
    with pytest.raises(ZeroBaseMass):
        BaseMeasure(np.array([1.0, 0.0]))
    with pytest.raises(ZeroBaseMass):
        BaseMeasure(np.array([1.0, -0.5]))
    bm = BaseMeasure.counting(4)
    assert bm.total == 4.0 and not bm.is_probability
    assert BaseMeasure.uniform_probability(4).is_probability


def test_distribution_normalization_and_clamp():
    d = Distribution(np.array([0.5, 0.5, -1e-13]))  # tiny negative is squashed
    assert d.w[2] == 0.0
    with pytest.raises(NegativeWeight):
        Distribution(np.array([0.7, 0.4, -0.1]))
    with pytest.raises(NotNormalized):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(NegativeWeight):
        Distribution(np.array([np.nan, 1.0]))


def test_distribution_support_and_constructors():
    d = Distribution(np.array([0.25, 0.0, 0.75]))
    assert list(d.support()) == [0, 2]
    u = Distribution.uniform(5)
    np.testing.assert_allclose(u.w, 0.2)
    pm = Distribution.point_mass(1, 3)
    assert pm.w[1] == 1.0 and pm.w.sum() == 1.0


def test_distribution_weights_are_frozen():
    d = Distribution.uniform(3)
    with pytest.raises(ValueError):
        d.w[0] = 0.9


def test_validate_distribution_length_check():
    with pytest.raises(DimensionMismatch):
        validate_distribution([0.5, 0.5], n=3)
    d = validate_distribution([0.5, 0.5])
    assert isinstance(d, Distribution)


def test_statistic_shape_and_accessors():
    t = Statistic(np.array([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]))
    assert t.k == 2 and t.n == 3
    row = Statistic(np.array([1.0, 2.0]))  # vectors promote to one row
    assert row.k == 1 and row.n == 2
    with pytest.raises(DimensionMismatch):
        Statistic(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        Statistic(np.array([[np.inf, 0.0]]))


def test_moment_is_matrix_vector_product():
    t = Statistic(np.array([[-1.0, 0.0, 1.0]]))
    d = Distribution(np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(moment(d, t), [0.3], atol=TOL)


def test_mixture_endpoints_and_midpoint():
    a = Distribution(np.array([1.0, 0.0]))
    b = Distribution(np.array([0.0, 1.0]))
    np.testing.assert_allclose(mixture(0.0, a, b).w, a.w, atol=TOL)
    np.testing.assert_allclose(mixture(1.0, a, b).w, b.w, atol=TOL)
    np.testing.assert_allclose(mixture(0.25, a, b).w, [0.75, 0.25], atol=TOL)
    with pytest.raises(ValueError):
        mixture(1.5, a, b)


def test_act_payload_coercion():
    act = Act(ACT_DISTRIBUTION, [0.5, 0.5])
    np.testing.assert_allclose(act.as_array(), [0.5, 0.5])
    s = Act(ACT_SCALAR, 2.5)
    assert s.payload == 2.5
    with pytest.raises(ValueError):
        Act("mystery", [1.0])


# extended-real convention: 0 * inf = 0; opposite infinities never meet.
# ext_dots takes each case as one row of a block, next to a finite row


def test_ext_dot_zero_times_infinity_is_zero():
    w = np.array([0.0, 1.0])
    v = np.array([np.inf, 2.0])
    assert ext_dot(w, v) == 2.0
    assert list(ext_dots(np.array([w, [0.5, 0.5]]), v)) == [2.0, np.inf]


def test_ext_dot_positive_mass_on_infinity():
    w = np.array([0.5, 0.5])
    v = np.array([np.inf, 1.0])
    assert ext_dot(w, v) == np.inf
    assert list(ext_dots(np.array([[0.0, 1.0], w]), v)) == [1.0, np.inf]


def test_ext_dot_mixed_infinities_raise():
    w = np.array([0.5, 0.5])
    v = np.array([np.inf, -np.inf])
    with pytest.raises(UndefinedExpectation):
        ext_dot(w, v)
    with pytest.raises(UndefinedExpectation):
        ext_dot(w, np.array([np.nan, 1.0]))
    # a loss is never -inf, so ext_dots refuses one even at zero weight
    for values in (v, np.array([np.nan, 1.0]), np.array([1.0, -np.inf])):
        with pytest.raises(UndefinedExpectation):
            ext_dots(np.array([[1.0, 0.0], w]), values)


def test_ext_dots_pairs_value_rows_with_laws():
    # one value row per law: 0 * inf = 0 row by row, +inf where a law
    # charges an infinite value
    rows = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
    values = np.array([[np.inf, 2.0], [np.inf, 1.0], [3.0, np.inf], [1.0, 2.0]])
    assert list(ext_dots(rows, values)) == [2.0, np.inf, 3.0, 1.75]
    assert list(ext_dots(rows[:1], values[:1])) == [2.0]
    for i in range(len(rows)):
        assert ext_dots(rows, values)[i] == ext_dot(rows[i], values[i])
    rng = np.random.default_rng(8)
    w = rng.dirichlet(np.ones(5), size=30)
    v = rng.normal(size=(30, 5))
    np.testing.assert_allclose(ext_dots(w, v), [ext_dot(a, b) for a, b in zip(w, v)],
                               rtol=0, atol=TOL)


def test_ext_dots_refuses_nan_and_minus_infinity_in_a_value_block():
    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    for bad in (np.nan, -np.inf):
        for i in range(2):
            # even at zero weight, and in either row
            values = np.array([[1.0, 2.0], [3.0, 4.0]])
            values[i, 1] = bad
            with pytest.raises(UndefinedExpectation):
                ext_dots(rows, values)
    with pytest.raises(UndefinedExpectation):
        ext_dots(np.array([[np.nan, 1.0], [0.5, 0.5]]), np.ones((2, 2)))
    for shape in ((3, 2), (2, 3), (1, 2)):
        with pytest.raises(DimensionMismatch):
            ext_dots(rows, np.ones(shape))


def test_ext_dot_finite_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        v = rng.normal(size=4)
        assert abs(ext_dot(w, v) - w @ v) <= TOL
        assert abs(ext_dots(np.array([w, w[::-1]]), v)[0] - w @ v) <= TOL
