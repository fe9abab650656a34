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
from maxentgames.constraints import SYSTEM_BLOCK, lstsq_stack, union_support, vertices
from maxentgames.core import ext_dot
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
                 for _, _, sp, _ in chunk]
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


# ROADMAP item 21's power-3 reproducer: an interior tau of near-degenerate
# charges, where the separable dual stops short of its tolerance
POWER3_T = np.array([[0.214, 0.893, -0.77, -0.841], [-0.617, -0.559, -0.674, -0.848]])
POWER3_TAU = POWER3_T @ np.array([0.13726326334951117, 1.8147100696610506e-08,
                                  0.8627367146557937, 3.847594445429525e-09])


def test_other_models_are_solved_tau_by_tau(monkeypatch):
    # every route, on one grid of an interior tau, a tau on the hull edge of
    # outcomes 1 and 3, a tau outside the hull and one of the wrong width
    # (power 3 adds the reproducer): each entry is what solve gives at its
    # turn, the hull class runs once per Gamma_tau built, and a route sees
    # only (Gamma_tau, hull class) pairs
    t = POWER3_T
    stat = Statistic(t)
    taus = [t @ np.full(4, 0.25), 0.5 * (t[:, 1] + t[:, 3]), [5.0, 0.0], [0.0, 0.0, 0.0]]
    hulls, routes = [], set()
    inner = maxent._hull_class

    def counted(g):
        hulls.append(g.tau)
        return inner(g)

    def live_only(name, at):
        # the route's pairs, or its one (Gamma_tau, class), sit at args[at]
        route = getattr(maxent, name)

        def wrapped(*args):
            pairs = args[at] if isinstance(args[at], list) else [args[at:at + 2]]
            assert pairs, name
            for g, hull in pairs:
                assert isinstance(g, GammaTau) and isinstance(hull, str), (name, g, hull)
            routes.add(name)
            return route(*args)
        return wrapped

    kinds = set()
    for name, model in route_models(SampleSpace.of(range(4))).items():
        grid_taus = taus[:1] + [POWER3_TAU] + taus[1:] if name == "bregman-power3" else taus
        with monkeypatch.context() as patched:
            patched.setattr(maxent, "_hull_class", counted)
            for route, at in (("_brier_grid", 2), ("_log_grid", 2), ("_zero_one_grid", 1),
                              ("_separable_draft", 3), ("_generic_draft", 1)):
                patched.setattr(maxent, route, live_only(route, at))
            del hulls[:]
            found = solve_grid(model, stat, grid_taus)
            assert len(hulls) == len(grid_taus) - 1, (name, hulls)
        assert_matches_each_tau_alone(model, t, grid_taus, found)
        assert [type(sp).__name__ for sp in found[-2:]] == ["Infeasible", "DimensionMismatch"]
        kinds.update(sp.method if isinstance(sp, SaddlePoint) else type(sp).__name__
                     for sp in found)
    assert routes == {"_brier_grid", "_log_grid", "_zero_one_grid", "_separable_draft",
                      "_generic_draft"}
    assert {"brier-enum", "log-newton", "log-face", "zero-one-enum", "bregman-dual",
            "active-set", "matrix-game"} <= kinds


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
            "active-set", "matrix-game", "Infeasible"} <= kinds


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
                 for _, _, sp, _ in chunk]
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


# ---------------------------------------------------------------------------
# the record step of a chunk against the per-tau bodies it replaced
#
# `maxent._records` builds the SaddlePoint of every draft of a chunk, with one
# stacked affine fit, and `maxent._zero_one_acts` solves zero-one phase 2 for
# a chunk, one lstsq and one SVD per shape of act system.  The oracles below
# are the per-tau bodies they replaced, `_finalize` and `_zero_one_act`, kept
# here as they ran: each record, and each exception, must be theirs bit for bit.

ORACLE_KINDS = []   # zero-one act systems: "inconsistent", "d=0", "d=1", "d>=2", "none", "norm"


def oracle_affine_fit(tmat, y, cols=None):
    if cols is not None:
        tmat, y = tmat[:, cols], y[cols]
    design = np.vstack([np.ones(y.size), tmat]).T
    sol = lstsq_stack(design, y)[0][:, 0]
    resid = float(np.max(np.abs(design @ sol - y))) if y.size else 0.0
    return float(sol[0]), sol[1:], resid


def oracle_finalize(model, g, p_star, zeta, h, beta0, beta, gap, method, hull,
                    act_family=None):
    lv = model.loss_vector(zeta)
    tmat = g.statistic.matrix
    supp = p_star.support(1e-9)
    if np.all(np.isfinite(lv)):
        _, _, resid_all = oracle_affine_fit(tmat, lv)
        is_linear = resid_all <= maxent.LINEAR_FIT_TOL
    else:
        is_linear = False
    is_regular = False
    if beta is not None:
        fitted = beta0 + tmat[:, supp].T @ beta
        is_regular = bool(np.max(np.abs(fitted - lv[supp])) <= maxent.LINEAR_FIT_TOL)
    bayes_margin = abs(ext_dot(p_star.w, lv) - model.entropy(p_star))
    return SaddlePoint(
        tau=g.tau, p_star=p_star, zeta_star=zeta, h_star=float(h) + 0.0,
        beta0=None if beta is None else float(beta0) + 0.0,
        beta=None if beta is None else np.asarray(beta, float) + 0.0,
        is_linear=bool(is_linear), is_regular=is_regular, tau_interior=hull == "interior",
        bayes_margin=float(bayes_margin), gap=float(gap), method=method,
        act_family=act_family)


def oracle_records(model, statistic, drafts):
    return [d if isinstance(d, Exception) else alone_call(oracle_finalize, model, *d)
            for d in drafts]


def oracle_zero_one_act(g, p, m_star):
    act = oracle_zero_one_act_body(g, p, m_star)
    if act is None:
        ORACLE_KINDS.append("none")
    elif abs(float(act[0].sum()) - 1.0) > maxent.NORM_TOL:
        ORACLE_KINDS.append("norm")
    return act


def oracle_zero_one_act_body(g, p, m_star):
    n, k = g.n, g.k
    tmat = g.statistic.matrix
    charged = p > 1e-9
    supp = np.flatnonzero(charged)
    modes = np.flatnonzero(charged & (p >= m_star - 1e-9))
    n_unknown = modes.size + 1 + k
    a = np.zeros((supp.size + 1, n_unknown))
    b = np.ones(supp.size + 1)
    mode_col = {x: i for i, x in enumerate(modes)}
    for r, x in enumerate(supp):
        if x in mode_col:
            a[r, mode_col[x]] = 1.0
        a[r, modes.size] = 1.0
        a[r, modes.size + 1:] = tmat[:, x]
    a[-1, :modes.size] = 1.0
    v0, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(a @ v0 - b)) > 1e-8:
        ORACLE_KINDS.append("inconsistent")
        return None
    _, s, vt = np.linalg.svd(a)
    rank = int((s > 1e-10 * s[0]).sum())
    d = n_unknown - rank

    def unpack(vec):
        zeta = np.zeros(n)
        zeta[modes] = vec[:modes.size]
        return zeta, float(vec[modes.size]), vec[modes.size + 1:]

    if d == 0:
        ORACLE_KINDS.append("d=0")
        zeta, beta0, beta = unpack(v0)
        return np.maximum(zeta, 0.0), beta0, beta, None
    if d >= 2:
        ORACLE_KINDS.append("d>=2")
        return None
    ORACLE_KINDS.append("d=1")
    col = vt[rank]
    coefs, rhs = [], []
    for i in range(modes.size):
        coefs.append(col[i])
        rhs.append(-v0[i] - 1e-12)
    if k == 1:
        ts, sizes = np.sort(tmat[0]), np.arange(1.0, n + 1.0)
        sigmas = np.concatenate([np.cumsum(ts), np.cumsum(ts[::-1])]) / np.tile(sizes, 2)
        for sigma, h_sig in zip(sigmas, np.tile(1.0 - 1.0 / sizes, 2)):
            coefs.append(col[modes.size] + sigma * col[modes.size + 1])
            rhs.append(h_sig - (v0[modes.size] + sigma * v0[modes.size + 1]) - 1e-9)
    reachable = np.zeros(n, dtype=bool)
    reachable[union_support(g)] = True
    for x in np.flatnonzero(reachable & ~charged):
        coefs.append(col[modes.size] + tmat[:, x] @ col[modes.size + 1:])
        rhs.append(1.0 - float(v0[modes.size] + tmat[:, x] @ v0[modes.size + 1:]) - 1e-9)
    lo, hi = -np.inf, np.inf
    for coef, r0 in zip(coefs, rhs):
        if coef > 1e-12:
            lo = max(lo, r0 / coef)
        elif coef < -1e-12:
            hi = min(hi, r0 / coef)
        elif r0 > 1e-9:
            return None
    if lo > hi:
        return None
    c = oracle_pick_family_coefficient(g, v0, col, modes, unpack, lo, hi, n)
    zeta, beta0, beta = unpack(v0 + c * col)
    family = None
    if float(np.max(np.abs(col[:modes.size]))) > 1e-9:
        dir_zeta = np.zeros(n)
        dir_zeta[modes] = col[:modes.size]
        family = maxent.ActFamily(base=np.maximum(zeta, 0.0), direction=dir_zeta,
                                  lo=float(lo - c), hi=float(hi - c))
    return np.maximum(zeta, 0.0), beta0, beta, family


def oracle_pick_family_coefficient(g, v0, col, modes, unpack, lo, hi, n):
    vs = vertices(g)
    zeta0, _, _ = unpack(v0)
    zdir = np.zeros(n)
    zdir[modes] = col[:modes.size]
    vals0 = vs.points @ zeta0
    dirs = vs.points @ zdir
    dv = dirs - dirs[0]
    db = vals0 - vals0[0]
    mask = np.abs(dv) > 1e-12
    if mask.any():
        cands = -db[mask] / dv[mask]
        c_eq = float(cands[0])
        if np.max(np.abs(db + c_eq * dv)) <= 1e-9 and lo - 1e-12 <= c_eq <= hi + 1e-12:
            return min(max(c_eq, lo), hi)
    denom = float(zdir @ zdir)
    if denom <= 1e-18:
        c_ls = 0.0
    else:
        c_ls = float((np.full(n, 1.0 / n) - zeta0) @ zdir / denom)
    return min(max(c_ls, lo), hi)


def oracle_zero_one_acts(statistic, gammas, points, levels):
    return [alone_call(oracle_zero_one_act, g, p, m) for g, p, m in zip(gammas, points, levels)]


def picky_brier(space):
    """A Brier model whose loss vector raises at acts with a weight above
    0.6, so some records of a chunk raise in the record step itself."""
    model = brier_model(space)
    inner = model.loss_vector

    def loss_vector(act):
        if act.as_array().max() > 0.6:
            raise ArithmeticError(f"picky at {act.as_array().max()!r}")
        return inner(act)

    model.loss_vector = loss_vector
    return model


def chunked(model, t, taus):
    return [sp for chunk in cli._grid_chunks(model, Statistic(t), taus, None, False)
            for _, _, sp, _ in chunk]


@pytest.mark.parametrize("kind", ["zero_one", "zero_one-cap3", "zero_one-norm0", "brier",
                                  "picky-brier", "log"])
def test_records_match_the_per_tau_bodies_bitwise(monkeypatch, kind):
    # MAXENT_MAX_N = 3 makes every zero-one family pick at N >= 4 raise
    # CombinatorialBlowup at its turn, between records of its chunk; no act
    # on these grids misses the simplex by more than NORM_TOL, and with
    # NORM_TOL = 0 every act whose mass is not 1 to the last bit takes the
    # stand-in
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    if kind == "zero_one-cap3":
        monkeypatch.setenv("MAXENT_MAX_N", "3")
    if kind == "zero_one-norm0":
        monkeypatch.setattr(maxent, "NORM_TOL", 0.0)
    rng = np.random.default_rng(20261024)
    build = {"brier": brier_model, "picky-brier": picky_brier,
             "log": log_model}.get(kind, zero_one_model)
    del ORACLE_KINDS[:]
    seen = set()
    for n, k, tied, count in cases():
        t = statistic(rng, n, k, tied)
        taus = with_bad_taus(rng, grid(rng, t, count))
        model = build(SampleSpace.of(range(n)))
        found = chunked(model, t, taus)
        with monkeypatch.context() as patched:
            patched.setattr(maxent, "_records", oracle_records)
            patched.setattr(maxent, "_zero_one_acts", oracle_zero_one_acts)
            ref = chunked(model, t, taus)
        for tau, sp, want in zip(taus, found, ref):
            assert_same_outcome(sp, want, (n, k, tuple(np.ravel(tau))))
            if isinstance(sp, Exception):
                seen.add(type(sp).__name__)
                continue
            seen.add(sp.method)
            if sp.beta is None:
                seen.add("beta None")
            if np.isinf(model.loss_vector(sp.zeta_star)).any() and not sp.is_linear:
                seen.add("infinite losses")
    seen.update(ORACLE_KINDS)
    expected = {"Infeasible", "DimensionMismatch"} | {
        "zero_one": {"d=0", "d=1", "d>=2", "none"},
        "zero_one-cap3": {"d=1", "CombinatorialBlowup", "zero-one-enum"},
        "zero_one-norm0": {"d=0", "d=1", "norm"},
        "brier": {"brier-enum", "beta None"},
        "picky-brier": {"brier-enum", "ArithmeticError"},
        "log": {"log-newton", "log-face", "infinite losses"},
    }[kind]
    assert expected <= seen, expected - seen


def test_zero_one_acts_match_the_per_tau_body_bitwise():
    # phase 2 of a chunk on phase 1's P* and on laws that minimize nothing
    # (sparse Dirichlet draws, some with tied modes), shuffled together, so
    # the systems of one shape mix consistent ones with inconsistent ones
    rng = np.random.default_rng(20261025)
    del ORACLE_KINDS[:]
    for n, k, tied, count in cases():
        stat = Statistic(statistic(rng, n, k, tied))
        rows = []
        for tau in grid(rng, stat.matrix, count):
            g = GammaTau(stat, tau)
            phase1 = maxent._min_pmax(stat, [g.tau])[0]
            if isinstance(phase1, Exception):
                continue
            q = rng.dirichlet(np.full(n, 0.5)) * (rng.random(n) < 0.7)
            q[rng.integers(n)] += 0.1
            if rng.random() < 0.5:
                q[rng.integers(n)] = q.max()
            q /= q.sum()
            rows += [(g, phase1[1], phase1[0]), (g, q, q.max())]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        found = maxent._zero_one_acts(stat, *map(list, zip(*rows)))
        ref = oracle_zero_one_acts(stat, *map(list, zip(*rows)))
        for (g, p, _), act, want in zip(rows, found, ref):
            assert_same_outcome(act, want, (n, k, tuple(g.tau), tuple(p)))
    assert {"inconsistent", "d=0", "d=1", "d>=2", "none"} <= set(ORACLE_KINDS)


def test_a_chunk_takes_one_affine_fit_and_one_vertex_enumeration(monkeypatch):
    # the affine fits of a chunk's records are one lstsq_stack call on the
    # design [1; T]' (2-D, shared by the chunk), and the zero-one family
    # picks of a chunk take their vertex lists from one vertex_lists call
    fits, enumerations = [], []
    lstsq, enumerate_vertices = maxent.lstsq_stack, maxent.vertex_lists

    def counted_lstsq(a, b):
        if a.ndim == 2:
            fits.append(len(b))
        return lstsq(a, b)

    def counted_vertex_lists(statistic, taus):
        enumerations.append(len(taus))
        return enumerate_vertices(statistic, taus)

    monkeypatch.setattr(maxent, "lstsq_stack", counted_lstsq)
    monkeypatch.setattr(maxent, "vertex_lists", counted_vertex_lists)
    brier = cli.parse_spec(os.path.join(SPECS, "brier_mean.json"))
    taus = brier.tau_grid[:, None]
    assert len(taus) == 41
    chunked(brier.model, brier.statistic.matrix, taus)
    assert fits == [41]
    monkeypatch.setattr(cli, "GRID_CHUNK", 5)
    del fits[:]
    chunked(brier.model, brier.statistic.matrix, taus)
    assert fits == [5] * 8 + [1]
    zero_one = cli.parse_spec(os.path.join(SPECS, "zero_one_mean.json"))
    monkeypatch.setattr(cli, "GRID_CHUNK", 256)
    found = chunked(zero_one.model, zero_one.statistic.matrix, zero_one.tau_grid[:, None])
    assert len(enumerations) == 1 and enumerations[0] >= 2, enumerations
    assert sum(sp.act_family is not None for sp in found) >= 2
