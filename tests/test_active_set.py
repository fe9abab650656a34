"""The active-set QP route of `maxent._mixture_max` for quadratic entropies.

Brier capacities, quadratic solves over the vertex list and quadratic
tilts over the point masses maximize a concave quadratic over the weight
simplex, and so do their relative games, whose entropy subtracts the
linear term P . r of a reference act's losses.  The route is checked against pairwise Frank-Wolfe run to a gap
of 1e-13 on seeded inputs, degenerate ones included: more members than
outcomes, duplicated members, a member on the segment of two others, and
tied quadratic values, where the KKT block of the working set is singular.
"""

import numpy as np
import pytest

from maxentgames import (
    Act,
    GammaTau,
    MaxIterExceeded,
    SampleSpace,
    StatModel,
    Statistic,
    brier_model,
    capacity_solve,
    equalization_report,
    natural_tilt,
    quadratic_model,
    relative_model,
    solve,
    solve_generic,
    verify_saddle,
    vertices,
)
from maxentgames import _simplex
from maxentgames.maxent import TiltResult, _fw_maximize, _mixture_max

FW_GAP = 1e-13


def space(n):
    return SampleSpace.of([str(i) for i in range(n)])


def brier_families(rng):
    """(label, members): the iterative workload's capacity shapes, then
    families whose KKT blocks are singular."""
    for n, m in ((4, 3), (8, 6), (12, 10)):
        for _ in range(8):
            yield f"{n}x{m}", rng.dirichlet(np.ones(n), m)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        yield "m > N", rng.dirichlet(np.ones(n), int(rng.integers(n + 1, 3 * n + 2)))
    for _ in range(8):
        n, m = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        members = rng.dirichlet(np.ones(n), m)
        copies = rng.integers(0, m, int(rng.integers(1, 4)))
        yield "duplicated", np.vstack([members, members[copies]])
    for _ in range(8):
        n, m = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        members = rng.dirichlet(np.ones(n), m)
        lam = float(rng.uniform(0.1, 0.9))
        on_segment = lam * members[0] + (1.0 - lam) * members[-1]
        yield "on a segment", np.vstack([members, on_segment[None]])


def tied_values(rng, n):
    """Quadratic values in [-1, 1] with a tie: two or more outcomes share one."""
    v = rng.uniform(-1.0, 1.0, n)
    v[rng.choice(n, int(rng.integers(2, n)), replace=False)] = v[0]
    return v


def assert_matches_frank_wolfe(model, V, offset, label):
    res = _mixture_max(model, V, offset, FW_GAP)
    fw = _fw_maximize(model, V, offset, FW_GAP)
    assert (res.method, res.iterations) == ("active-set", 0), label
    assert res.value >= fw.value - 1e-15, (label, fw.value - res.value)
    assert res.gap <= 1e-12, (label, res.gap)
    assert res.weights.min() >= 0.0, label
    assert abs(res.weights.sum() - 1.0) <= 1e-12, label
    return res


def test_brier_capacities_match_frank_wolfe_and_equalize():
    rng = np.random.default_rng(4201)
    labels = set()
    for label, members in brier_families(rng):
        sm = StatModel(brier_model(space(members.shape[1])), tuple(members))
        assert_matches_frank_wolfe(sm.model, sm.member_matrix, sm.member_entropies, label)
        r = capacity_solve(sm)
        assert (r.method, r.iterations) == ("active-set", 0), label
        assert r.upsilon.size, label
        assert equalization_report(r, sm).upsilon_constant, label
        labels.add(label)
    assert labels == {"4x3", "8x6", "12x10", "m > N", "duplicated", "on a segment"}


def test_quadratic_solves_match_frank_wolfe_over_the_vertices():
    rng = np.random.default_rng(4202)
    for i in range(40):
        n = int(rng.integers(3, 9))
        k = 1 + i % 2
        t = rng.uniform(-1.0, 1.0, (k, n))
        tau = t @ rng.dirichlet(np.ones(n))
        g = GammaTau(Statistic(t), tau)
        model = quadratic_model(space(n), tied_values(rng, n) if i % 4 else
                                rng.uniform(-1.0, 1.0, n))
        vs = vertices(g)
        assert_matches_frank_wolfe(model, vs.points, np.zeros(vs.m), i)
        sp = solve(model, g)
        assert sp.method == "active-set" and sp.gap <= 1e-12, i
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, i


def test_quadratic_tilts_match_frank_wolfe_over_the_point_masses():
    rng = np.random.default_rng(4203)
    for i in range(40):
        n = int(rng.integers(3, 9))
        model = quadratic_model(space(n), tied_values(rng, n))
        t = rng.uniform(-1.0, 1.0, (1, n))
        beta = rng.uniform(-2.0, 2.0, 1)
        assert_matches_frank_wolfe(model, np.eye(n), beta @ t, i)
        res = natural_tilt(model, Statistic(t), beta)
        assert res.method == "active-set" and res.gap <= 1e-12, i


def numeric_space(rng, n):
    """n distinct numeric labels in [-1, 1], the quadratic loss's values."""
    return SampleSpace.of([f"{u:.6f}" for u in rng.permutation(np.linspace(-1.0, 1.0, 2 * n))[:n]])


def test_relative_quadratic_solves_match_frank_wolfe_over_the_vertices():
    # H(P) - P . r of a random scalar reference is the same concave quadratic
    # plus a linear term: `solve` and `solve_generic` take the exact QP
    rng = np.random.default_rng(4205)
    for i in range(40):
        n = int(rng.integers(3, 8))
        k = 1 + i % 2
        t = rng.uniform(-1.0, 1.0, (k, n))
        g = GammaTau(Statistic(t), t @ rng.dirichlet(np.ones(n)))
        model = relative_model(quadratic_model(numeric_space(rng, n)),
                               Act("scalar", float(rng.uniform(-1.0, 1.0))))
        vs = vertices(g)
        res = assert_matches_frank_wolfe(model, vs.points, np.zeros(vs.m), i)
        for sp in (solve(model, g), solve_generic(model, g)):
            assert sp.method == "active-set" and sp.gap <= 1e-12, i
            assert abs(sp.h_star - res.value) <= 1e-12, i
            assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, i


def test_relative_capacities_match_frank_wolfe_and_equalize():
    # relative Brier families of 2-7 members with random references, and
    # relative quadratic ones with random scalar references
    rng = np.random.default_rng(4206)
    for i in range(40):
        n, m = int(rng.integers(3, 9)), int(rng.integers(2, 8))
        if i % 4:
            base = brier_model(space(n))
            reference = base.random_act(rng)
        else:
            base = quadratic_model(numeric_space(rng, n))
            reference = Act("scalar", float(rng.uniform(-1.0, 1.0)))
        sm = StatModel(relative_model(base, reference), tuple(rng.dirichlet(np.ones(n), m)))
        assert_matches_frank_wolfe(sm.model, sm.member_matrix, sm.member_entropies, i)
        r = capacity_solve(sm)
        assert (r.method, r.iterations) == ("active-set", 0), i
        assert r.upsilon.size, i
        assert equalization_report(r, sm).upsilon_constant, i


def test_working_set_cap_raises_with_the_result(monkeypatch):
    rng = np.random.default_rng(4204)
    sm = StatModel(brier_model(space(4)), tuple(rng.dirichlet(np.ones(4), 3)))
    quadratic = quadratic_model(space(4), [0.0, 1.0, 3.0, -1.0])
    t = Statistic(np.array([[-1.0, 0.0, 1.0, 2.0]]))
    monkeypatch.setattr(_simplex, "QP_MAX_CHANGES", 1)
    with pytest.raises(MaxIterExceeded, match="working-set cap") as err:
        capacity_solve(sm)
    res = err.value.result
    assert res.method == "active-set" and res.stalled and res.gap > 1e-6
    assert abs(res.weights.sum() - 1.0) <= 1e-12 and res.weights.min() >= 0.0
    with pytest.raises(MaxIterExceeded) as err:
        natural_tilt(quadratic, t, np.array([0.1]))
    assert isinstance(err.value.result, TiltResult)
    assert err.value.result.method == "active-set" and err.value.result.gap > 1e-8
