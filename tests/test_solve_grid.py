"""Solves over a tau grid against `solve` at each tau alone.

`maxent.solve_grid` runs zero-one phase 1 for a whole grid: one LP per tau,
then, for the taus whose LP screen gives the same (zero, mode) masks, one
exact test per block of pattern systems against all their targets.  Brier
grids run one stacked dual Newton, then the support scan in rounds of one
exact test per support size; log grids run one stacked Newton for their
interior taus.  Every SaddlePoint must be the one `solve(model,
GammaTau(T, tau))` gives, field for field and bit for bit, and every
exception the one it raises, type and message.  The grids (from
test_vertex_lists) hold hull vertices, points on faces, sparse laws, points
just inside and just outside the consistency band of a hull end and points
far outside, on uniform and integer (tied) statistics with N 3-12 and k 1-3.
They run through `cli._grid_chunks` with a small GRID_CHUNK, so they cross
chunk boundaries, and once more with a small SYSTEM_BLOCK, which splits the
taus of one screen into several calls.

`solve` is the same route at one Gamma_tau: on every model class it routes,
it must give what `solve_grid` gives at that tau.  `trace_family` and
`conjugacy_check` solve their grids with `solve_grid`, and must give what a
loop of `solve` gives, the first exception of the grid included.

A Brier record reads its dual only through the support it picks, so a
drifted iterate could hide behind equal records: the stacked iterates of
`_separable_dual` and `_newton_tilt` are checked against one-row stacks
directly.
"""

import dataclasses
import os

import numpy as np
import pytest

from maxentgames import (
    Distribution,
    GammaTau,
    Infeasible,
    NewtonDivergence,
    SampleSpace,
    SaddlePoint,
    Statistic,
    brier_model,
    cli,
    conjugacy_check,
    log_model,
    maxent,
    quadratic_model,
    relative_model,
    solve,
    solve_grid,
    trace_family,
    zero_one_model,
)
from maxentgames import _newton
from maxentgames.constraints import SYSTEM_BLOCK
from maxentgames.core import BaseMeasure
from maxentgames.losses import (bregman_model, power_generator, square_generator,
                                xlogx_generator)
from test_vertex_lists import grid, statistic
from test_zero_one_lp import tied_statistic

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "specs")


def assert_same(a, b, where):
    """a and b are equal bit for bit: arrays by dtype, shape and bytes,
    floats by their bytes, dataclasses field by field."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), (where, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, (where, i))
    else:
        assert a == b, where


def alone(model, t, tau, tol=None):
    """`solve` at one tau, or the exception it raises."""
    return alone_call(lambda: solve(model, GammaTau(Statistic(t), tau), tol))


def alone_call(fn, *args):
    """fn(*args), or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def assert_same_outcome(found, ref, where):
    """Both the same record bit for bit, or exceptions of one type and message."""
    if isinstance(ref, Exception):
        assert type(found) is type(ref), (where, found)
        assert str(found) == str(ref), where
    else:
        assert_same(found, ref, where)


def assert_matches_each_tau_alone(model, t, taus, found, tol=None):
    assert len(found) == len(taus)
    for tau, sp in zip(taus, found):
        assert_same_outcome(sp, alone(model, t, tau, tol), tuple(np.ravel(tau)))


def cases():
    """(n, k, tied, grid size): N 3-12 with k 1-3, ties on every other."""
    for n in range(3, 13):
        for k in (1, 2, 3):
            yield n, k, (n + k) % 2 == 0, 14 if n <= 8 else 8


@pytest.mark.parametrize("block", [SYSTEM_BLOCK, 24])
def test_zero_one_grid_matches_each_tau_alone_bitwise(monkeypatch, block):
    calls = []
    inner = maxent.support_solutions

    def counted(a, target):
        calls.append((a.shape[0], target.shape[0] if target.ndim > 1 else 1))
        return inner(a, target)

    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    monkeypatch.setattr(maxent, "SYSTEM_BLOCK", block)
    rng = np.random.default_rng(20261020)
    kinds = set()
    for n, k, tied, count in cases():
        t = statistic(rng, n, k, tied)
        taus = grid(rng, t, count)
        model = zero_one_model(SampleSpace.of(range(n)))
        monkeypatch.setattr(maxent, "support_solutions", counted)
        found = [sp for chunk in cli._grid_chunks(model, Statistic(t), taus, None, False)
                 for _, sp, _ in chunk]
        monkeypatch.setattr(maxent, "support_solutions", inner)
        assert_matches_each_tau_alone(model, t, taus, found)
        kinds.update(type(sp).__name__ for sp in found)
    assert {"SaddlePoint", "Infeasible"} <= kinds
    # a call holds at most `block` systems, or one tau against one block
    assert all(systems * count <= block or count == 1 for systems, count in calls)
    assert max(count for _, count in calls) > 1


def test_refusal_past_the_pattern_cap_takes_its_turn():
    # 18 outcomes at -1: at tau = -0.6 the LP leaves all 18 open, past
    # ZERO_ONE_PATTERN_CAP; near the hull end -1 they are all modes, and 2
    # is outside the hull; every tau keeps its own outcome, in grid order
    t = tied_statistic(20).matrix
    model = zero_one_model(SampleSpace.of(range(20)))
    taus = np.array([[-0.6], [-0.9], [2.0], [-0.6], [-0.9]])
    found = solve_grid(model, Statistic(t), taus)
    assert_matches_each_tau_alone(model, t, taus, found)
    assert [type(sp).__name__ for sp in found] == [
        "CombinatorialBlowup", "SaddlePoint", "Infeasible", "CombinatorialBlowup",
        "SaddlePoint"]
    assert found[0] is not found[3]
    assert "18 outcomes left open" in str(found[0])


def test_a_bad_tau_is_its_own_exception():
    t = np.array([[-1.0, 0.0, 1.0]])
    model = zero_one_model(SampleSpace.of(range(3)))
    found = solve_grid(model, Statistic(t), [[0.2], [np.nan], [0.2, 0.1], [0.5]])
    assert isinstance(found[0], SaddlePoint) and isinstance(found[3], SaddlePoint)
    assert [type(sp).__name__ for sp in found[1:3]] == ["DimensionMismatch"] * 2
    assert_same(found[3], solve(model, GammaTau(Statistic(t), [0.5])), "0.5")


def test_other_models_are_solved_tau_by_tau(monkeypatch):
    # a Bregman model on the statistic of the Brier spec: the separable dual
    # of psi(s) = s log s, solved tau by tau
    spec = cli.parse_spec(os.path.join(SPECS, "brier_mean.json"))
    model = bregman_model(spec.space, xlogx_generator())
    taus = np.array([[-0.5], [0.25], [1.5]])
    hulls = []
    inner = maxent._hull_class

    def counted(g):
        hulls.append(g.tau)
        return inner(g)

    monkeypatch.setattr(maxent, "_hull_class", counted)
    found = solve_grid(model, spec.statistic, taus)
    assert len(hulls) == 3
    monkeypatch.setattr(maxent, "_hull_class", inner)
    assert_matches_each_tau_alone(model, spec.statistic.matrix, taus, found)
    assert isinstance(found[2], Infeasible)


def route_models(space):
    """One model of each class `solve` routes: the Brier, log and zero-one
    grids, the separable dual (Bregman models and relative games over a
    separable base) and `solve_generic` (quadratic, relative zero-one)."""
    w = np.arange(1.0, space.n + 1.0)
    ref = Distribution(w / w.sum())
    plain = {"brier": brier_model(space), "log": log_model(space),
             "zero_one": zero_one_model(space)}
    models = dict(plain)
    models.update({
        "bregman-xlogx": bregman_model(space, xlogx_generator()),
        "bregman-square": bregman_model(space, square_generator(space.n)),
        "bregman-power3": bregman_model(space, power_generator(3.0)),
        "quadratic": quadratic_model(space, np.linspace(-0.5, 0.8, space.n)),
    })
    models.update({f"relative-{name}": relative_model(model, model.bayes_act(ref))
                   for name, model in plain.items()})
    return models


@pytest.mark.parametrize("tol", [None, 1e-7])
def test_solve_is_solve_grid_at_one_tau(tol):
    # every route: solve on the caller's Gamma_tau and solve_grid on the
    # one it builds give one record, or one exception, bit for bit; the
    # taus hold interior points, hull vertices and points outside the hull
    t1 = np.array([[-1.0, -0.2, 0.5, 1.0]])
    t2 = np.vstack([t1, [[0.3, -0.5, 0.9, 0.1]]])
    problems = [(t1, [[-0.3], [0.2], [-1.0], [1.0], [1.5]]),
                (t2, [t2 @ np.full(4, 0.25), t2[:, 0], t2 @ np.array([0.7, 0.1, 0.1, 0.1]),
                      [5.0, 0.0]])]
    kinds = set()
    for name, model in route_models(SampleSpace.of(range(4))).items():
        for t, taus in problems:
            for tau in taus:
                stat = Statistic(t)
                found = solve_grid(model, stat, [tau], tol)[0]
                assert_same_outcome(found, alone(model, t, tau, tol), (name, tuple(tau)))
                kinds.add(found.method if isinstance(found, SaddlePoint)
                          else type(found).__name__)
    assert {"brier-enum", "log-newton", "log-face", "zero-one-enum", "bregman-dual",
            "frank-wolfe", "matrix-game", "Infeasible"} <= kinds


def solve_each_tau_alone(model, statistic, taus, tol=None):
    """`solve_grid` as a loop of `solve`, one tau at a time."""
    return [alone(model, statistic.matrix, tau, tol) for tau in taus]


@pytest.mark.parametrize("name", ["brier", "log", "zero_one", "bregman-power3", "quadratic"])
def test_trace_and_conjugacy_match_a_loop_of_solves(monkeypatch, name):
    # both solve their grid with one solve_grid call; with a tau outside the
    # hull, both raise the first exception of the grid, as the loop does
    model = route_models(SampleSpace.of(range(3)))[name]
    stat = Statistic(np.array([[-1.0, 0.0, 1.0]]))
    betas = np.linspace(-2.0, 2.0, 41)
    for grid in (np.linspace(-0.9, 0.9, 13), np.array([-0.5, 0.0, 1.5, 2.0])):
        for check, args in ((trace_family, (grid,)), (conjugacy_check, (grid, betas))):
            found = alone_call(check, model, stat, *args)
            with monkeypatch.context() as patched:
                patched.setattr(maxent, "solve_grid", solve_each_tau_alone)
                ref = alone_call(check, model, stat, *args)
            assert_same_outcome(found, ref, (name, check.__name__, grid.size))
            assert isinstance(ref, Infeasible) == (grid.size == 4), ref
            if grid.size == 4:
                assert "tau=[1.5]" in str(ref)


def with_bad_taus(rng, taus):
    """taus with a NaN tau and a tau of the wrong length put in at random
    places, as a list."""
    k = taus.shape[1]
    out = list(taus)
    for bad in (np.full(k, np.nan), np.zeros(k + 1)):
        out.insert(int(rng.integers(len(out) + 1)), bad)
    return out


@pytest.mark.parametrize("block", [SYSTEM_BLOCK, 24])
@pytest.mark.parametrize("kind", ["brier", "log"])
def test_separable_grids_match_each_tau_alone_bitwise(monkeypatch, kind, block):
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    monkeypatch.setattr(maxent, "SYSTEM_BLOCK", block)
    rng = np.random.default_rng(20261022)
    kinds = set()
    for n, k, tied, count in cases():
        t = statistic(rng, n, k, tied)
        taus = with_bad_taus(rng, grid(rng, t, count))
        space = SampleSpace.of(range(n))
        model = brier_model(space) if kind == "brier" else log_model(space)
        found = [sp for chunk in cli._grid_chunks(model, Statistic(t), taus, None, False)
                 for _, sp, _ in chunk]
        assert_matches_each_tau_alone(model, t, taus, found)
        kinds.update(sp.method if isinstance(sp, SaddlePoint) else type(sp).__name__
                     for sp in found)
    expected = {"brier-enum"} if kind == "brier" else {"log-newton", "log-face"}
    assert expected | {"Infeasible", "DimensionMismatch"} <= kinds


def test_a_log_newton_divergence_takes_its_turn():
    # a gradient tolerance below float resolution: Newton stops above it at
    # two interior taus, while tau = T u reaches it and the hull end, an
    # outside point and a bad tau keep their own outcomes, in grid order
    t = np.array([[-1.0, -0.2, 0.4, 1.0], [0.3, -0.5, 0.9, 0.1]])
    model = log_model(SampleSpace.of(range(4)))
    taus = [t @ np.full(4, 0.25), t @ np.array([0.1, 0.2, 0.3, 0.4]), [5.0, 0.0],
            t[:, 0], [np.nan, 0.0], t @ np.array([0.7, 0.1, 0.1, 0.1])]
    found = solve_grid(model, Statistic(t), taus, 1e-17)
    assert_matches_each_tau_alone(model, t, taus, found, 1e-17)
    assert [sp.method if isinstance(sp, SaddlePoint) else type(sp).__name__
            for sp in found] == ["NewtonDivergence", "NewtonDivergence", "Infeasible",
                                 "log-face", "DimensionMismatch", "log-newton"]
    assert found[0] is not found[1]
    assert "gradient norm above 1e-17" in str(found[0])


def inner_points(rng, t, count):
    """Hull vertices, face points and interior laws of the statistic t."""
    k, n = t.shape
    face = np.flatnonzero(t[0] == -1.0)
    kinds = [lambda: t[:, rng.integers(n)],
             lambda: t[:, face] @ rng.dirichlet(np.ones(face.size)),
             lambda: t @ rng.dirichlet(np.full(n, 0.3)),
             lambda: t @ rng.dirichlet(np.ones(n))]
    return np.array([kinds[i % len(kinds)]() for i in range(count)])


def assert_rows_match(stacked, alone, row):
    """Row `row` of a stacked result (arrays, {row: exception}) is the
    one-row result of that row, bit for bit."""
    *arrays, failed = stacked
    *ones, one_failed = alone
    if 0 in one_failed:
        assert type(failed[row]) is type(one_failed[0])
        assert str(failed[row]) == str(one_failed[0])
    else:
        assert row not in failed
        for whole, one in zip(arrays, ones):
            assert_same(whole[row], one[0], row)


def test_stacked_duals_match_one_row_stacks_bitwise(monkeypatch):
    cuts, halvings, diverged = [], [], []
    slope_root, log_kappa = _newton._slope_root, _newton._log_kappa

    def counted_root(*args, **kwargs):
        cuts.append(1)
        return slope_root(*args, **kwargs)

    def counted_kappa(mu, neg, beta):
        halvings.append(beta.ndim == 3)   # the line search's block of step lengths
        return log_kappa(mu, neg, beta)

    monkeypatch.setattr(_newton, "_slope_root", counted_root)
    monkeypatch.setattr(_newton, "_log_kappa", counted_kappa)
    rng = np.random.default_rng(20261023)
    for n, k, tied, count in cases():
        t = statistic(rng, n, k, tied)
        taus = inner_points(rng, t, count)
        rows = np.vstack([np.ones(n), t])
        targets = np.hstack([np.ones((count, 1)), taus])
        targets[2 + 4 * rng.integers(count // 4)] = np.nan   # its step raises LinAlgError
        mu, offset = rng.uniform(0.5, 2.0, n), rng.uniform(-0.5, 0.5, n)
        # s log s over every outcome has no dual maximum at a vertex or on a
        # face, so it takes the interior laws alone
        for gen, weights, r, b in ((square_generator(n), np.ones(n), 0.0, targets),
                                   (xlogx_generator(), mu, offset, targets[2::4])):
            stacked = _newton._separable_dual(rows, b, weights, gen, r)
            for j in range(len(b)):
                assert_rows_match(stacked, _newton._separable_dual(
                    rows, b[j:j + 1], weights, gen, r), j)
            assert list(stacked[-1]) == np.flatnonzero(np.isnan(b[:, 0])).tolist()
        tmat, inner = t[:, np.arange(n)], taus[np.arange(count) % 4 >= 2]
        for tol in (1e-10, 1e-17) if n <= 4 else (1e-10,):   # 1e-17: rows that diverge
            stacked = _newton._newton_tilt(mu, tmat, inner, tol)
            diverged.extend(type(exc) is NewtonDivergence for exc in stacked[-1].values())
            for j in range(len(inner)):
                assert_rows_match(stacked, _newton._newton_tilt(mu, tmat, inner[j:j + 1], tol), j)
    assert cuts, "no dual took a cut step"
    assert diverged and all(diverged), "no Newton row diverged"
    assert any(halvings), "no line search halved its step"


def test_a_singular_newton_step_is_its_own_rows():
    # np.linalg.solve per row, lstsq where the covariance is singular, and
    # the LinAlgError of a row whose lstsq raises too stays in that row
    cov = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
                    [[0.0, 0.0], [0.0, np.nan]], [[3.0, -1.0], [-1.0, 2.0]]])
    rhs = np.array([[1.0, -2.0], [0.5, 0.5], [1.0, 1.0], [0.25, 4.0]])
    step, failed = _newton._newton_solve(cov, rhs)
    assert list(failed) == [2]
    assert type(failed[2]) is np.linalg.LinAlgError
    assert_same(step[0], np.linalg.solve(cov[0], rhs[0]), 0)
    assert_same(step[1], np.linalg.lstsq(cov[1], rhs[1], rcond=None)[0], 1)
    assert_same(step[3], np.linalg.solve(cov[3], rhs[3]), 3)
