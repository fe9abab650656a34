"""Mean-value constraint polytopes: feasibility, vertex enumeration,
hull classification, and the conditioning-closure predicate."""

import numpy as np
import pytest

from maxentgames import (
    CombinatorialBlowup,
    DimensionMismatch,
    Distribution,
    GammaTau,
    Infeasible,
    SampleSpace,
    Statistic,
    bregman_model,
    brier_model,
    closed_under_conditioning,
    constraints,
    contains,
    feasible,
    hull_interior,
    log_model,
    moment,
    quadratic_model,
    solve,
    verify_saddle,
    vertices,
    xlogx_generator,
    zero_one_model,
)
from maxentgames.cli import vertex_columns

T3 = Statistic(np.array([[-1.0, 0.0, 1.0]]))
TOL = 1e-9


def test_feasibility_is_hull_membership(monkeypatch):
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    for n in (3, 24):   # 24 is past the vertex enumeration cap
        t = Statistic(np.linspace(-1.0, 1.0, n)[None, :])
        assert feasible(GammaTau(t, np.array([0.5])))
        assert not feasible(GammaTau(t, np.array([1.5])))
        assert feasible(GammaTau(t, np.array([-1.0])))  # hull endpoint


ZERO_ROW = Statistic(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))


def bregman_xlogx(space):
    return bregman_model(space, xlogx_generator())


ZERO_ROW_MODELS = [brier_model, log_model, zero_one_model,
                   lambda s: quadratic_model(s, values=[0.0, 1.0, 3.0]), bregman_xlogx]


@pytest.mark.parametrize("make", ZERO_ROW_MODELS)
def test_zero_row_target_within_the_consistency_tolerance(make):
    # 0 = 5e-10 is read within CONSISTENCY_TOL, as the enumeration,
    # union_support and every solver read [1; T] p = [1; tau]: the set is
    # feasible and has vertices, and its saddle solves and verifies (the
    # separable dual aims at tau's projection onto the span of the rows)
    model = make(SampleSpace.of(["-1", "0", "1"]))
    g = GammaTau(ZERO_ROW, np.array([0.2, 5e-10]))
    assert feasible(g)
    assert vertices(g).m >= 1
    sp = solve(model, g)
    assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


@pytest.mark.parametrize("make", ZERO_ROW_MODELS)
def test_zero_row_target_past_the_consistency_tolerance(make):
    # every reader refuses 0 = 2e-9 alike, the saddle check included
    model = make(SampleSpace.of(["-1", "0", "1"]))
    g = GammaTau(ZERO_ROW, np.array([0.2, 2e-9]))
    assert not feasible(g)
    assert hull_interior(ZERO_ROW, g.tau) == "outside"
    with pytest.raises(Infeasible):
        vertices(g)
    with pytest.raises(Infeasible):
        solve(model, g)
    with pytest.raises(Infeasible):
        verify_saddle(model, g, Distribution.uniform(3),
                      model.random_act(np.random.default_rng(0)))


def test_vertices_tau_zero():
    vs = vertices(GammaTau(T3, np.array([0.0])))
    got = sorted(tuple(np.round(p, 12)) for p in vs.points)
    assert got == [(0.0, 1.0, 0.0), (0.5, 0.0, 0.5)]


def test_vertices_satisfy_constraints_and_support_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tau = rng.uniform(-1.0, 1.0)
        g = GammaTau(T3, np.array([tau]))
        vs = vertices(g)
        assert vs.m >= 1
        for p in vs.points:
            assert p.min() >= -1e-12
            assert abs(p.sum() - 1.0) <= TOL
            assert abs(T3.matrix @ p - tau) <= TOL
            assert np.count_nonzero(p > 1e-12) <= g.k + 1


def test_vertices_deduplicated():
    vs = vertices(GammaTau(T3, np.array([1.0])))  # single point (0,0,1)
    assert vs.m == 1
    np.testing.assert_allclose(vs.points[0], [0.0, 0.0, 1.0], atol=TOL)


def test_vertices_infeasible_raises():
    from maxentgames import Infeasible
    with pytest.raises(Infeasible):
        vertices(GammaTau(T3, np.array([2.0])))


def test_two_dimensional_statistic_vertices():
    t = Statistic(np.array([[-1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]))
    g = GammaTau(t, np.array([0.25, 0.1]))
    vs = vertices(g)
    for p in vs.points:
        np.testing.assert_allclose(t.matrix @ p, [0.25, 0.1], atol=TOL)
        assert np.count_nonzero(p > 1e-12) <= 3
    # the polytope here is a segment: exactly two vertices
    assert vs.m == 2


def test_every_member_is_vertex_mixture():
    g = GammaTau(T3, np.array([0.3]))
    vs = vertices(g)
    rng = np.random.default_rng(6)
    for _ in range(100):
        lam = rng.dirichlet(np.ones(vs.m))
        p = Distribution(lam @ vs.points)
        assert contains(g, p)
        assert abs(moment(p, T3)[0] - 0.3) <= TOL


def test_contains_rejects_off_constraint_points():
    g = GammaTau(T3, np.array([0.3]))
    assert not contains(g, Distribution.uniform(3))


def test_hull_interior_classification():
    assert hull_interior(T3, np.array([0.0])) == "interior"
    assert hull_interior(T3, np.array([1.0])) == "boundary"
    assert hull_interior(T3, np.array([-1.0])) == "boundary"
    assert hull_interior(T3, np.array([1.2])) == "outside"
    t2 = Statistic(np.array([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]))
    assert hull_interior(t2, np.array([0.0, 0.5])) == "interior"
    assert hull_interior(t2, np.array([0.0, 1.0])) == "boundary"
    assert hull_interior(t2, np.array([0.0, -0.5])) == "outside"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tau_is_a_shape_error(bad):
    t2 = Statistic(np.array([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]))
    for statistic, tau in ((T3, [bad]), (t2, [0.0, bad])):
        with pytest.raises(DimensionMismatch, match="finite"):
            GammaTau(statistic, np.array(tau))
        with pytest.raises(DimensionMismatch, match="finite"):
            hull_interior(statistic, np.array(tau))


def test_closed_under_conditioning_cases():
    # a face game {p : E T = tau} where every supported outcome hits tau
    face = Statistic(np.array([[0.0, 1.0, 0.0]]))
    assert closed_under_conditioning(GammaTau(face, np.array([0.0])))
    # plain mean constraints are not closed under conditioning
    assert not closed_under_conditioning(GammaTau(T3, np.array([0.5])))
    # trivial constant statistic: the constraint set is the whole simplex
    const = Statistic(np.array([[1.0, 1.0, 1.0]]))
    assert closed_under_conditioning(GammaTau(const, np.array([1.0])))


def test_enumeration_cap_guard(monkeypatch):
    space = 25
    t = Statistic(np.ones((1, space)))
    monkeypatch.setenv("MAXENT_MAX_N", "20")
    with pytest.raises(CombinatorialBlowup, match="MAXENT_MAX_N"):
        vertices(GammaTau(t, np.array([1.0])))
    # raising the cap lets it through
    monkeypatch.setenv("MAXENT_MAX_N", "30")
    vs = vertices(GammaTau(t, np.array([1.0])))
    assert vs.m == space


def test_env_cap_override(monkeypatch):
    t = Statistic(np.ones((1, 22)))
    g = GammaTau(t, np.array([1.0]))
    monkeypatch.setenv("MAXENT_MAX_N", "22")
    assert vertices(g).m == 22
    monkeypatch.setenv("MAXENT_MAX_N", "10")
    with pytest.raises(CombinatorialBlowup):
        vertices(g)


def test_env_cap_applies_to_a_memoized_set(monkeypatch):
    # the cap is read on every call, also for a set enumerated before
    g = GammaTau(Statistic(np.ones((1, 22))), np.array([1.0]))
    monkeypatch.setenv("MAXENT_MAX_N", "22")
    first = vertices(g)
    monkeypatch.setenv("MAXENT_MAX_N", "10")
    with pytest.raises(CombinatorialBlowup):
        vertices(g)
    monkeypatch.setenv("MAXENT_MAX_N", "21")
    with pytest.raises(CombinatorialBlowup):
        vertices(g)
    monkeypatch.setenv("MAXENT_MAX_N", "22")
    np.testing.assert_array_equal(vertices(g).points, first.points)


def test_vertices_kept_on_the_constraint_set():
    g = GammaTau(T3, np.array([0.25]))
    assert not vertices(g).points.flags.writeable


def test_solve_then_verify_never_enumerates(monkeypatch):
    calls = []
    enumerate_vertices = constraints._vertex_lists

    def counted(statistic, taus):
        calls.append((statistic, np.asarray(taus, dtype=float)))
        return enumerate_vertices(statistic, taus)

    monkeypatch.setattr(constraints, "_vertex_lists", counted)
    space = SampleSpace.of(["-1", "0", "1"])
    for model in (brier_model(space), log_model(space),
                  bregman_model(space, xlogx_generator())):
        g = GammaTau(T3, np.array([0.3]))
        sp = solve(model, g)
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle
        assert calls == [], model.kind
        # one record's two vertex columns read one enumeration
        is_equalizer, vertex_margin = vertex_columns(model, vertices(g), sp)
        assert vertex_margin <= 1e-7 and is_equalizer
        assert [(s is g.statistic, t.tolist()) for s, t in calls] == [(True, [[0.3]])], model.kind
        calls.clear()


CERTIFICATE_SIZES = list(range(3, 21)) + [40, 80, 160]


def certificate_problems(seed, count):
    """(T, tau) with N 3-20, 40, 80 and 160 and k 1-3, in six kinds that
    take turns: uniform T with a Dirichlet(1) tau, then a Dirichlet(0.2)
    one; integer T in {-2..2}; tau between 1e-11 and 1e-6 off the face
    {t_1 = -1}; a constant row 0.3 with its target off by 0, 5e-13, 5e-10
    or 2e-9; a zero row with the target 5e-13, 5e-10, 2e-9 or 1e-8."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = CERTIFICATE_SIZES[i % len(CERTIFICATE_SIZES)]
        kind = (i // len(CERTIFICATE_SIZES)) % 6
        k = int(rng.integers(1, 4 if kind < 4 else 3))
        if kind == 2:
            t = rng.integers(-2, 3, (k, n)).astype(float)
        else:
            t = rng.uniform(-1.0, 1.0, (k, n))
        p = rng.dirichlet(np.full(n, 0.2 if kind == 1 or kind == 2 and i % 2 else 1.0))
        if kind == 3:
            on = rng.random(n) < 0.5
            on[0], on[-1] = True, False
            t[0, on] = -1.0
            face = np.where(on, rng.random(n), 0.0)
            off = np.where(on, 0.0, rng.random(n))
            face, off = face / face.sum(), off / off.sum()
            w = 10.0 ** rng.uniform(-11.0, -6.0) / (t[0] @ off + 1.0)
            p = (1.0 - w) * face + w * off
        tau = t @ p
        if kind == 4:
            t = np.vstack([t, np.full(n, 0.3)])
            tau = np.append(tau, 0.3 + [0.0, 5e-13, 5e-10, 2e-9][i % 4])
        elif kind == 5:
            t = np.vstack([t, np.zeros(n)])
            tau = np.append(tau, [5e-13, 5e-10, 2e-9, 1e-8][i % 4])
        yield t, tau


def test_certificate_gives_the_face_reduction_answer(monkeypatch):
    # a certified tau skips _face's LP rounds; its class and support must be
    # what the rounds give, near faces and on zero and constant rows too
    certify = constraints._certified
    problems = list(certificate_problems(20261020, 1260))
    with_certificate = [(constraints._face(t, tau), constraints._face(t, tau, support=True))
                        for t, tau in problems]
    certified = sum(certify(t, tau) for t, tau in problems)
    monkeypatch.setattr(constraints, "_certified", lambda tmat, tau: False)
    for case, ((t, tau), got) in enumerate(zip(problems, with_certificate)):
        for (hull, supp), (lp_hull, lp_supp) in zip(got, (constraints._face(t, tau),
                                                          constraints._face(t, tau, support=True))):
            assert hull == lp_hull, case
            assert (supp is None and lp_supp is None) or np.array_equal(supp, lp_supp), case
    assert 0.3 * len(problems) < certified < 0.7 * len(problems)


def count_lps(monkeypatch):
    """A list that grows by one at each `_simplex.solve_lp` call."""
    calls = []
    inner = constraints._simplex.solve_lp

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(constraints._simplex, "solve_lp", counted)
    return calls


@pytest.mark.parametrize("face, lps", [
    (False, {"brier": 0, "log": 0, "zero_one": 1}),
    (True, {"brier": 1, "log": 3, "zero_one": 4}),
])
def test_lp_count_of_one_solve(face, lps, monkeypatch):
    # N = 12, k = 3: an interior tau is classified by the certificate alone,
    # so only zero-one phase 1 runs an LP; a tau on the face {t_1 = -1} of
    # outcomes 0-4 runs _face's LP rounds, as many as before the certificate.
    # The saddle check is one LP either way
    rng = np.random.default_rng(5)
    t = rng.uniform(-1.0, 1.0, (3, 12))
    tau = t @ rng.dirichlet(np.ones(12))
    if face:
        t[0, :5] = -1.0
        tau = t[:, :5] @ rng.dirichlet(np.ones(5))
        tau[0] = -1.0
    space = SampleSpace.of([str(i) for i in range(12)])
    calls = count_lps(monkeypatch)
    for kind, make in (("brier", brier_model), ("log", log_model), ("zero_one", zero_one_model)):
        model = make(space)
        g = GammaTau(Statistic(t), tau)   # a new set: none keeps its support
        calls.clear()
        sp = solve(model, g)
        assert len(calls) == lps[kind], kind
        calls.clear()
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle
        assert len(calls) == 1, kind
