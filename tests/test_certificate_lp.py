"""Solving and certifying without the vertex list of Gamma_tau.

`verify_saddle` reads sup over Gamma_tau of E_P L(X, zeta*) from one LP
(`max_expectation`), and `union_support` from face reduction on the
max-min-weight LP, a few small LPs.  Both are checked here against the
vertex list they replace, on seeded problems: tau inside the hull, on a
hull face, from integer-valued statistics (ties), on a log face (zeta* has
infinite losses off the face), and within 1e-9 of a hull vertex.  The scale
tests check `union_support` against one LP per outcome, and solve and
certify, at sizes the vertex list cannot reach.
"""

import numpy as np
import pytest

from maxentgames import (
    GammaTau,
    Infeasible,
    SampleSpace,
    Statistic,
    bregman_model,
    brier_model,
    constraints,
    log_model,
    power_generator,
    relative_model,
    solve,
    verify_saddle,
    vertices,
    zero_one_model,
)
from maxentgames import _simplex, maxent
from maxentgames.cli import vertex_columns
from maxentgames.constraints import DEDUP_TOL, max_expectation, union_support
from maxentgames.core import ext_dots
from maxentgames.maxent import point_act_losses, point_act_saddle

KINDS = ("interior", "face", "tied", "hull_end")


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fails the test on any vertex enumeration; the default size cap holds."""
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)

    def refuse(statistic, taus):
        raise AssertionError(f"vertex enumeration at N={statistic.n}")

    monkeypatch.setattr(constraints, "_vertex_lists", refuse)


def mean_value_problem(rng, n, k, kind):
    """(T, tau) of one kind; a face puts k + 2 outcomes at the minimum -1
    of the first row, a hull end moves tau from the hull vertex of the
    largest first coordinate towards a random member by 1e-10 to 1e-9."""
    if kind == "tied":
        t = rng.integers(-2, 3, size=(k, n)).astype(float)
        return t, t @ rng.dirichlet(np.ones(n))
    t = rng.uniform(-1.0, 1.0, size=(k, n))
    if kind == "interior":
        return t, t @ rng.dirichlet(np.ones(n))
    if kind == "face":
        on = rng.choice(n, size=min(k + 2, n), replace=False)
        t[0, on] = -1.0
        p = np.zeros(n)
        p[on] = rng.dirichlet(np.ones(on.size))
        tau = t @ p
        tau[0] = -1.0
        return t, tau
    j = int(np.argmax(t[0]))
    step = t[:, j] - t @ rng.dirichlet(np.ones(n))
    return t, t[:, j] - rng.uniform(0.1, 1.0) * 1e-9 * step / np.abs(step).max()


def problems(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, k = int(rng.integers(3, 21)), int(rng.integers(1, 4))
        kind = KINDS[i % len(KINDS)]
        t, tau = mean_value_problem(rng, n, k, kind)
        yield kind, GammaTau(Statistic(t), tau)


def largest_charges(g):
    """max over Gamma_tau of p_x for every outcome x, one exact LP each."""
    rows = np.vstack([np.ones(g.n), g.statistic.matrix])
    target = np.concatenate([[1.0], g.tau])
    out = np.zeros(g.n)
    for x in range(g.n):
        c = np.zeros(g.n)
        c[x] = -1.0
        out[x] = -_simplex.solve_lp(c, rows, target)[1]
    return out


def relative_to_random(model):
    """The game of model relative to a seeded random act."""
    return relative_model(model, model.random_act(np.random.default_rng(81)))


def models(n):
    space = SampleSpace.of(range(n))
    return (brier_model(space), log_model(space), zero_one_model(space),
            bregman_model(space, power_generator(1.5)))


def test_lp_margin_matches_the_vertex_maximum():
    log_faces = 0
    for kind, g in problems(seed=81, count=160):
        charge = largest_charges(g) if kind == "hull_end" else None
        for model in models(g.n):
            if model.kind == "zero_one" and g.n > 12:
                continue   # zero-one phase 1 alone takes seconds there
            if kind == "hull_end" and model.kind == "zero_one" and g.k >= 2:
                continue   # see test_zero_one_at_hull_vertices
            sp = solve(model, g)
            lv = model.loss_vector(sp.zeta_star)
            chk = verify_saddle(model, g, sp.p_star, sp.zeta_star)
            assert chk.is_saddle, (kind, model.kind)
            vertex_max = float(ext_dots(vertices(g).points, lv).max())
            lp_max = max_expectation(g, lv)
            finite = np.isfinite(lv)
            log_faces += not finite.all()
            if kind == "hull_end":
                # tau within 1e-9 of a hull vertex e_j: members charge the
                # other outcomes with about 1e-9.  The vertex list holds e_j,
                # which misses tau by up to CONSISTENCY_TOL, and of the
                # vertices within DEDUP_TOL of it only those found first;
                # the LP reads Gamma_tau itself, and a charge below DEDUP_TOL
                # on an infinite loss as none (as `union_support` does)
                if np.isinf(vertex_max) or np.isinf(lp_max):
                    assert (np.isinf(vertex_max) == np.isinf(lp_max)
                            or charge[~finite].max() < g.n * DEDUP_TOL), model.kind
                    continue
                spread = float(np.ptp(lv[finite]))
                bound = max(1e-12, g.n * DEDUP_TOL * spread)
                assert abs(lp_max - vertex_max) <= bound, (model.kind, lp_max, vertex_max)
                continue
            if np.isinf(vertex_max):
                assert lp_max == vertex_max, (kind, model.kind)
                continue
            assert abs(lp_max - vertex_max) <= 1e-12, (kind, model.kind, lp_max, vertex_max)
            record_margin = vertex_columns(model, vertices(g), sp)[1]
            assert abs(chk.vertex_margin - record_margin) <= 1e-12, (kind, model.kind)
    # log faces, whose infinite losses drop columns, are among the cases
    assert log_faces >= 20


def test_union_lp_matches_the_vertex_list():
    banded = 0
    for kind, g in problems(seed=82, count=240):
        try:
            expected = vertices(g).union_support()
        except Infeasible:
            with pytest.raises(Infeasible):
                union_support(g)
            continue
        got = union_support(g)
        if kind != "hull_end":
            assert np.array_equal(got, expected), (kind, got, expected)
            continue
        # tau within 1e-9 of a hull vertex: members charge the other outcomes
        # with about 1e-9.  The vertex list drops a vertex within DEDUP_TOL of
        # an earlier one; the LP lifts an outcome when one member charges it
        # with DEDUP_TOL or more, so with several such outcomes the two may
        # read the band [DEDUP_TOL, n DEDUP_TOL) differently.
        charge = largest_charges(g)
        band = (charge >= (1.0 - 1e-6) * DEDUP_TOL) & (charge < g.n * DEDUP_TOL)
        if not band.any():
            assert np.array_equal(got, expected), (kind, got, expected)
            continue
        banded += 1
        assert set(np.flatnonzero(charge >= g.n * DEDUP_TOL)) <= set(got)
        assert set(got) <= set(np.flatnonzero(charge >= (1.0 - 1e-6) * DEDUP_TOL))
    assert banded <= 20


def test_lp_certificate_reads_tau_within_the_consistency_tolerance():
    # a log face p* = e_j that misses tau by up to 1e-9: with the infinite
    # columns dropped only e_j is left, and the exact rows are infeasible
    rng = np.random.default_rng(3)
    model = log_model(SampleSpace.of(range(6)))
    for _ in range(30):
        t = rng.uniform(-1.0, 1.0, size=(1, 6))
        g = GammaTau(Statistic(t), np.array([t.max() - rng.uniform(0.1, 1.0) * 1e-9]))
        sp = solve(model, g)
        lv = model.loss_vector(sp.zeta_star)
        vertex_max = float(ext_dots(vertices(g).points, lv).max())
        assert abs(max_expectation(g, lv) - vertex_max) <= 1e-12
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


def test_infinite_loss_where_members_charge_fails_the_certificate():
    # zeta* with an infinite loss on an outcome that Gamma_tau charges
    model = log_model(SampleSpace.of(range(3)))
    g = GammaTau(Statistic(np.array([[-1.0, 0.0, 1.0]])), np.array([0.2]))
    sp = solve(model, GammaTau(Statistic(np.array([[-1.0, 0.0, 1.0]])), np.array([1.0])))
    chk = verify_saddle(model, g, sp.p_star, sp.zeta_star)
    assert chk.vertex_margin == np.inf and not chk.is_saddle
    with pytest.raises(Infeasible):
        max_expectation(GammaTau(g.statistic, np.array([1.5])), np.zeros(3))


@pytest.mark.parametrize("make", [
    # the zero-one act system is near-singular (|beta| ~ 1e16), and the act
    # the rule returns does not sum to one; the point-act game's act stands in
    zero_one_model,
    # the separable dual runs on the outcomes members charge, which reach
    # tau only within 1e-9; it aims at tau's projection onto their span
    pytest.param(lambda space: bregman_model(space, power_generator(1.5)), id="bregman"),
    pytest.param(log_model, id="log"),
    pytest.param(lambda space: relative_to_random(brier_model(space)), id="relative-brier"),
    pytest.param(lambda space: relative_to_random(log_model(space)), id="relative-log"),
])
def test_solvers_at_a_hull_vertex(make):
    # tau within 1e-9 of a hull vertex, k = 2
    kind, g = next((kind, g) for kind, g in problems(seed=81, count=160)
                   if kind == "hull_end" and g.k == 2)
    model = make(SampleSpace.of(range(g.n)))
    sp = solve(model, g)
    assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle
    miss = np.max(np.abs(g.statistic.matrix @ sp.p_star.w - g.tau))
    if model.kind == "zero_one":
        # zero-one phase 1 solves for tau itself and reports no gap
        assert miss <= 1e-9 and sp.gap == 0.0 and sp.beta is None
        return
    # the gap is how far P* misses tau itself, about 1e-10 here
    assert 1e-11 <= miss <= 1e-9 and abs(sp.gap - miss) <= 1e-15


@pytest.mark.parametrize("make", [
    pytest.param(lambda space: relative_to_random(brier_model(space)), id="relative-brier"),
    pytest.param(lambda space: relative_to_random(log_model(space)), id="relative-log"),
])
def test_relative_games_at_every_hull_end(make):
    # the separable dual runs on the outcomes `union_support` keeps, which
    # reach tau within CONSISTENCY_TOL, on all 40 hull ends
    ends = 0
    for kind, g in problems(seed=81, count=160):
        if kind == "hull_end":
            model = make(SampleSpace.of(range(g.n)))
            sp = solve(model, g)
            assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, (g.n, g.k)
            ends += 1
    assert ends == 40


def zero_one_hull_ends():
    """(model, g) for every seed-81 hull end with k >= 2, the ones the
    vertex-maximum test skips."""
    for kind, g in problems(seed=81, count=160):
        if kind == "hull_end" and g.k >= 2:
            yield zero_one_model(SampleSpace.of(range(g.n))), g


def test_zero_one_at_hull_vertices():
    # on 17 of them the act system pins no act that sums to one, and the
    # point-act game's act, with no beta, stands in
    stand_ins = 0
    for model, g in zero_one_hull_ends():
        sp = solve(model, g)
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, (g.n, g.k)
        assert np.max(np.abs(g.statistic.matrix @ sp.p_star.w - g.tau)) <= 1e-9
        assert abs(float(sp.zeta_star.payload.sum()) - 1.0) <= 1e-12
        stand_ins += sp.beta is None
    assert stand_ins == 17


def test_zero_one_stand_in_is_read_off_phase_one(monkeypatch):
    # the stand-in is phase 1's LP dual: a stand-in solve runs that one
    # min_max_expectation LP and builds no union_support LP
    calls = dict.fromkeys(("min_max_expectation", "union_support"), 0)
    # the point-act game and phase 1 both read maxent's binding of the LP
    for module, name in ((maxent, "min_max_expectation"), (maxent, "union_support"),
                         (constraints, "union_support")):
        def counted(*args, inner=getattr(module, name), name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)
    stand_ins = 0
    for model, g in zero_one_hull_ends():
        calls.update(min_max_expectation=0, union_support=0)
        if solve(model, g).beta is None:
            assert calls == {"min_max_expectation": 1, "union_support": 0}, (g.n, g.k)
            stand_ins += 1
    assert stand_ins == 17


def test_zero_one_stand_in_is_the_point_act_game():
    # phase 1's columns are the identity, top - L of the point-act game bit
    # for bit, so the two LPs give the same act
    stand_ins = 0
    for model, g in zero_one_hull_ends():
        sp = solve(model, g)
        if sp.beta is None:
            zeta = point_act_saddle(g, point_act_losses(model))[2]
            assert np.array_equal(sp.zeta_star.payload, zeta), (g.n, g.k)
            stand_ins += 1
    assert stand_ins == 17


@pytest.mark.parametrize("n", [40, 80])
def test_union_support_is_what_members_charge_at_scale(n, no_enumeration):
    # past the vertex cap: the outcomes some member charges with DEDUP_TOL
    # or more, one LP per outcome
    rng = np.random.default_rng(n + 2)
    for k in (1, 2, 3):
        for kind in ("interior", "face"):
            t, tau = mean_value_problem(rng, n, k, kind)
            g = GammaTau(Statistic(t), tau)
            expected = np.flatnonzero(largest_charges(g) >= DEDUP_TOL)
            assert np.array_equal(union_support(g), expected), (k, kind)


@pytest.mark.parametrize("n", [40, 80, 160])
def test_solve_and_verify_at_scale(n, no_enumeration):
    # relative games, each against a seeded random reference act, solve on
    # their base model's separable dual
    rng = np.random.default_rng(n)
    ref_rng = np.random.default_rng(n + 1)
    space = SampleSpace.of(range(n))
    for k in (1, 2, 3):
        for kind in ("interior", "face"):
            t, tau = mean_value_problem(rng, n, k, kind)
            g = GammaTau(Statistic(t), tau)
            bases = (brier_model(space), log_model(space),
                     bregman_model(space, power_generator(1.5)))
            relatives = tuple(relative_model(m, m.random_act(ref_rng)) for m in bases)
            for model in bases + relatives:
                sp = solve(model, g)
                chk = verify_saddle(model, g, sp.p_star, sp.zeta_star)
                assert chk.is_saddle, (n, k, kind, model.kind, chk)
                p = sp.p_star.w
                assert np.max(np.abs(t @ p - tau)) <= 1e-8
                assert abs(sp.h_star - model.entropy(sp.p_star)) <= 1e-9
                assert sp.tau_interior == (kind == "interior")
                if model.kind == "log":
                    assert sp.method == ("log-newton" if kind == "interior" else "log-face")
                if model in relatives:
                    assert sp.method == "bregman-dual"
                if kind == "face":
                    # no mass leaves the face {t_1 = -1}
                    assert p[t[0] > -1.0].sum() <= 1e-12
