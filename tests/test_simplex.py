"""The in-house simplex against scipy's HiGHS, the reduced costs it returns,
and the lockstep stack (`solve_lps`) against it, row by row.

scipy is a test dependency only (the `test` extra); the runtime stays
numpy-only, so the HiGHS comparisons skip where scipy is missing.  The LPs
are the two the solvers build on 7 outcomes: zero-one phase 1 (min over
Gamma_tau of max_x p(x)), which also gives zero-one upper values, and the
matrix game of the Gamma_tau vertices against point acts, their oracle.

Each row of a `solve_lps` stack must be what `solve_lp` gives that row
alone: x, value and reduced costs by their bytes, an exception by type and
message.  The stacks hold feasible, infeasible and unbounded rows, rows
whose constraints are rank deficient (an artificial stays basic), rows under
Bland's rule and rows that hit the pivot limit, on uniform and integer data
(ties in the ratio test).  `solve_lp` itself must give what the plain
transcription of its pivot rules below gives, by the same bytes.
"""

import numpy as np
import pytest

from maxentgames import (
    GammaTau,
    SampleSpace,
    Statistic,
    lp_game_value,
    restricted_upper_value,
    vertices,
    zero_one_model,
)
from maxentgames import _simplex, constraints
from maxentgames.core import Infeasible
from maxentgames.maxent import _pmax_lp

ZERO_ONE_7 = zero_one_model(SampleSpace.of(range(7)))


def seven_outcome_problems(seed, count):
    """(T, tau) on 7 outcomes: k = 1 + i % 3, T integer in [-2, 2] for even i
    and uniform on [-1, 1] for odd i, tau = T p with p ~ Dirichlet(0.5)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = 1 + i % 3
        if i % 2:
            t = rng.uniform(-1.0, 1.0, (k, 7))
        else:
            t = rng.integers(-2, 3, (k, 7)).astype(float)
        yield t, t @ rng.dirichlet(0.5 * np.ones(7))


def test_ratio_test_keeps_the_equality_rows():
    # trial 410 of seed 123: the exact-ratio tie rule pivoted on a tiny entry,
    # the column player's LP left its rows 1e-4 off, and lp_game_value's
    # duality check failed; HiGHS gives m* = 0.3106480428722476
    t, tau = list(seven_outcome_problems(123, 411))[-1]
    g = GammaTau(Statistic(t), tau)
    assert vertices(g).m == 8
    value = restricted_upper_value(ZERO_ONE_7, g).value
    assert value == pytest.approx(1.0 - 0.3106480428722476, abs=1e-12)


def test_reduced_costs_certify_the_optimum():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 12))
        a = rng.uniform(-1.0, 1.0, (m, n))
        b = a @ rng.dirichlet(np.ones(n))          # feasible
        c = rng.uniform(0.0, 1.0, n)               # bounded below on x >= 0
        x, value, reduced = _simplex.solve_lp(c, a, b)
        assert x.min() >= 0.0
        assert np.max(np.abs(a @ x - b)) <= 1e-9
        assert value == float(c @ x)
        assert reduced.shape == (n,)
        assert reduced.min() >= -1e-9
        # complementary slackness: positive reduced costs only off the support
        assert abs(float(reduced @ x)) <= 1e-9
        # reduced = c - a' y for one dual y, and b' y is the optimum
        y, *_ = np.linalg.lstsq(a.T, c - reduced, rcond=None)
        assert np.max(np.abs(a.T @ y + reduced - c)) <= 1e-9
        assert float(b @ y) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("bland_after", [_simplex.BLAND_AFTER, 0])
def test_beale_degenerate_lp(bland_after, monkeypatch):
    # Beale's example, on which most-negative pricing with lowest-index ties
    # cycles: the default rules and Bland's rule alone (the anti-cycling
    # fallback, here from the first pivot) reach -5/4 at x1 = 3/4, x4 = x6 = 1
    monkeypatch.setattr(_simplex, "BLAND_AFTER", bland_after)
    c = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
    a = [[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
         [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]]
    x, value, reduced = _simplex.solve_lp(c, a, [0.0, 0.0, 1.0])
    assert value == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert reduced.min() >= -1e-12


def test_phase_one_lp_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = 7
    for case, (t, tau) in enumerate(seven_outcome_problems(123, 600)):
        ((value, _, _),) = _pmax_lp(t, tau[None])
        # the same program in (p, m) with p <= m as inequalities
        res = linprog(
            np.r_[np.zeros(n), 1.0],
            A_ub=np.hstack([np.eye(n), -np.ones((n, 1))]), b_ub=np.zeros(n),
            A_eq=np.vstack([np.r_[np.ones(n), 0.0], np.hstack([t, np.zeros((len(t), 1))])]),
            b_eq=np.r_[1.0, tau],
            bounds=[(0.0, None)] * (n + 1), method="highs")
        assert res.status == 0, case
        assert value == pytest.approx(res.fun, abs=1e-9), case


def test_point_act_games_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = 7
    for case, (t, tau) in enumerate(seven_outcome_problems(123, 600)):
        points = vertices(GammaTau(Statistic(t), tau)).points
        # min over mixed point acts z of the worst vertex loss 1 - V z
        loss = 1.0 - points
        sol = lp_game_value(loss)
        res = linprog(
            np.r_[np.zeros(n), 1.0],
            A_ub=np.hstack([loss, -np.ones((len(points), 1))]),
            b_ub=np.zeros(len(points)),
            A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)], method="highs")
        assert res.status == 0, case
        assert sol.value == pytest.approx(res.fun, abs=1e-9), case
        # the row strategy, read off the reduced costs, guarantees the value
        assert sol.row_guarantee >= res.fun - 1e-9, case


def alone(c, a, b):
    """solve_lp on one row, or the exception it raises."""
    try:
        return _simplex.solve_lp(c, a, b)
    except Exception as exc:
        return exc


def assert_rows_alone(c, a, b):
    """Every row of solve_lps(c, a, b) is solve_lp's on that row, bit for
    bit; returns the names of the outcomes."""
    found = _simplex.solve_lps(c, a, b)
    assert len(found) == len(b)
    kinds = []
    for s, res in enumerate(found):
        ref = alone(c[s], a if a.ndim == 2 else a[s], b[s])
        kinds.append(type(ref).__name__)
        if isinstance(ref, Exception):
            assert type(res) is type(ref) and str(res) == str(ref), s
        else:
            x, value, reduced = res
            assert x.tobytes() == ref[0].tobytes(), s
            assert type(value) is float and np.float64(value).tobytes() == np.float64(ref[1]).tobytes(), s
            assert reduced.tobytes() == ref[2].tobytes(), s
    return kinds


def phase_one_stack(t, taus):
    """The zero-one phase-1 LPs (`min_max_expectation` with the identity as
    columns) of the statistic t at each row of taus: (c, a, b)."""
    k, n = t.shape
    a = np.zeros((n + k + 1, 2 * n + 1))
    a[:n, :n] = np.eye(n)
    a[:n, n] = -1.0
    a[:n, n + 1:] = np.eye(n)
    a[n, :n] = 1.0
    a[n + 1:, :n] = t
    b = np.zeros((len(taus), n + k + 1))
    b[:, n] = 1.0
    b[:, n + 1:] = taus
    c = np.zeros((len(taus), 2 * n + 1))
    c[:, n] = 1.0
    return c, a, b


def phase_one_problems(seed, count):
    """(t, taus) with N 3-12, k 1-3, uniform, integer and rounded
    statistics, taus at hull vertices, from sparse and dense laws, and
    outside the hull; every fifth statistic repeats its first row and every
    seventh has a zero row (rank-deficient [1; T])."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, k = int(rng.integers(3, 13)), int(rng.integers(1, 4))
        if i % 3 == 0:
            t = rng.uniform(-1.0, 1.0, (k, n))
        elif i % 3 == 1:
            t = rng.integers(-2, 3, (k, n)).astype(float)
        else:
            t = np.round(rng.uniform(-1.0, 1.0, (k, n)), 1)
        if i % 5 == 0:
            t = np.vstack([t, t[:1]])
        if i % 7 == 0:
            t = np.vstack([t, np.zeros(n)])
        taus = []
        for _ in range(int(rng.integers(2, 24))):
            u = rng.random()
            if u < 0.15:
                taus.append(t[:, rng.integers(n)])
            elif u < 0.25:
                taus.append(np.where(np.any(t, axis=1), rng.uniform(-2.0, 2.0, len(t)), 0.0))
            else:
                taus.append(t @ rng.dirichlet(np.full(n, rng.choice([0.3, 1.0]))))
        yield t, np.array(taus)


def general_stack(rng, shared):
    """A stack of LPs min c x, a x = b, x >= 0 on integer or uniform data:
    feasible rows, rows with b off the cone of a (infeasible), prices of
    both signs (unbounded rows), duplicated and zero rows of a."""
    m, n, count = int(rng.integers(2, 7)), int(rng.integers(3, 12)), int(rng.integers(2, 12))
    if rng.random() < 0.5:
        a = rng.integers(-2, 3, (m, n)).astype(float)
    else:
        a = rng.uniform(-1.0, 1.0, (m, n))
    u = rng.random()
    if u < 0.2:
        a[-1] = a[0]
    elif u < 0.3:
        a[-1] = 0.0
    if not shared:
        a = a + (rng.random((count, 1, 1)) < 0.5) * rng.uniform(-0.5, 0.5, (count, m, n))
    b = np.array([(a if shared else a[s]) @ rng.dirichlet(np.ones(n)) for s in range(count)])
    b *= rng.choice([1.0, 3.0], (count, 1))
    off = rng.random(count) < 0.2
    b[off] = rng.uniform(-1.0, 1.0, (int(off.sum()), m))
    c = rng.uniform(-1.0, 1.0, (count, n)) if rng.random() < 0.6 else rng.uniform(0.0, 1.0, (count, n))
    return c, a, b


def test_stacked_phase_one_lps_match_solve_lp_bitwise():
    kinds = set()
    for t, taus in phase_one_problems(20261020, 160):
        kinds.update(assert_rows_alone(*phase_one_stack(t, taus)))
    assert kinds == {"tuple", "Infeasible"}


@pytest.mark.parametrize("bland_after", [_simplex.BLAND_AFTER, 0, 1])
def test_stacked_lps_match_solve_lp_bitwise(bland_after, monkeypatch):
    monkeypatch.setattr(_simplex, "BLAND_AFTER", bland_after)
    rng = np.random.default_rng(20261021)
    kinds = set()
    for i in range(240):
        kinds.update(assert_rows_alone(*general_stack(rng, shared=i % 2 == 0)))
    assert kinds == {"tuple", "Infeasible", "Unbounded"}
    for t, taus in phase_one_problems(20261022, 40):
        assert_rows_alone(*phase_one_stack(t, taus))


def test_rank_deficient_rows_keep_an_artificial_basic():
    # [1; T] with T's one row twice: phase 1 can price at most m - 1 of the
    # original columns into the basis, so an artificial stays basic in every
    # feasible row; solve_lp deletes its row, the stack masks it
    t = np.array([[-1.0, 0.0, 1.0, 2.0], [-1.0, 0.0, 1.0, 2.0]])
    taus = np.array([[0.5, 0.5], [-1.0, -1.0], [2.0, 2.0], [0.5, 0.4], [3.0, 3.0]])
    c, a, b = phase_one_stack(t, taus)
    assert assert_rows_alone(c, a, b) == ["tuple", "tuple", "tuple", "Infeasible", "Infeasible"]
    a_eq = np.vstack([np.ones(4), t, np.zeros(4)])
    b_eq = np.hstack([np.ones((5, 1)), taus, np.zeros((5, 1))])
    prices = np.random.default_rng(3).uniform(0.0, 1.0, (5, 4))
    assert assert_rows_alone(prices, a_eq, b_eq)[:3] == ["tuple"] * 3


@pytest.mark.parametrize("max_iter", [1, 3, 6])
def test_stacked_pivot_limit_matches_solve_lp(max_iter, monkeypatch):
    monkeypatch.setattr(_simplex, "LP_MAX_ITER", max_iter)
    rng = np.random.default_rng(20261023)
    kinds = set()
    for i in range(120):
        kinds.update(assert_rows_alone(*general_stack(rng, shared=i % 2 == 0)))
    for t, taus in phase_one_problems(20261024, 30):
        kinds.update(assert_rows_alone(*phase_one_stack(t, taus)))
    assert "PivotLimit" in kinds and (max_iter == 1 or "tuple" in kinds)


def test_rows_end_in_different_phases(monkeypatch):
    # one stack: row 1 is infeasible after phase 1, row 0 unbounded in phase
    # 2, and with four pivots a phase, row 3 hits the limit in phase 2 while
    # row 2 reaches its optimum
    a = np.array([[2.0, -2.0, 1.0, 2.0, 0.0, 2.0, -1.0],
                  [2.0, -2.0, 1.0, 0.0, 2.0, -2.0, -2.0],
                  [-1.0, 1.0, 2.0, 1.0, 2.0, 0.0, 1.0]])
    b = np.array([[0.9, 0.32, 1.12], [-0.06, 0.95, -0.14], [0.14, -0.75, 0.58],
                  [0.35, 0.1, 1.3]])
    c = np.array([[0.0, -2.0, 0.0, 1.0, 2.0, -2.0, 3.0],
                  [0.0, 2.0, 1.0, -2.0, 2.0, 0.0, 1.0],
                  [1.0, 0.0, -3.0, -1.0, 2.0, 0.0, -2.0],
                  [-2.0, 3.0, 3.0, -2.0, -1.0, 3.0, 0.0]])
    assert assert_rows_alone(c, a, b) == ["Unbounded", "Infeasible", "tuple", "tuple"]
    monkeypatch.setattr(_simplex, "LP_MAX_ITER", 4)
    assert assert_rows_alone(c, a, b) == ["Unbounded", "Infeasible", "tuple", "PivotLimit"]


def test_one_row_is_solve_lp(monkeypatch):
    calls = []
    inner = _simplex.solve_lp

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(_simplex, "solve_lp", counted)
    c, a, b = phase_one_stack(np.array([[-1.0, 0.0, 1.0]]), np.array([[0.3]]))
    ((x, value, reduced),) = _simplex.solve_lps(c, a, b)
    assert len(calls) == 1
    assert np.array_equal(x, inner(c[0], a, b[0])[0])
    c, a, b = phase_one_stack(np.array([[-1.0, 0.0, 1.0]]), np.array([[3.0]]))
    (found,) = _simplex.solve_lps(c, a, b)
    assert isinstance(found, Infeasible)


def test_empty_stack_takes_no_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("an empty stack iterated")

    monkeypatch.setattr(_simplex, "_iterate_stack", no_step)
    monkeypatch.setattr(_simplex, "solve_lp", no_step)
    _, a, _ = phase_one_stack(np.array([[-1.0, 0.0, 1.0]]), np.array([[0.3]]))
    assert _simplex.solve_lps(np.zeros((0, 7)), a, np.zeros((0, 5))) == []


# The simplex written out plainly, each step one numpy call as its rules
# read: the oracle of `solve_lp`, whose loop does the same floating-point
# operations in the same order with less overhead around them.  The
# constants are read from `_simplex`, so the tests can patch them.


def plain_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


def plain_iterate(tableau, basis, n_cols):
    degenerate = 0
    for _ in range(_simplex.LP_MAX_ITER):
        cost = tableau[-1, :n_cols]
        bland = degenerate >= _simplex.BLAND_AFTER
        if bland:
            negative = np.flatnonzero(cost < -_simplex.PIVOT_TOL)
            if negative.size == 0:
                return
            entering = int(negative[0])
        else:
            entering = int(np.argmin(cost))
            if cost[entering] >= -_simplex.PIVOT_TOL:
                return
        col = tableau[:-1, entering]
        rows = np.flatnonzero(col > _simplex.PIVOT_TOL)
        if rows.size == 0:
            raise _simplex.Unbounded("no positive pivot entry in the entering column")
        rhs = tableau[rows, -1]
        if bland:
            ratios = np.maximum(rhs, 0.0) / col[rows]
            tie = rows[ratios <= ratios.min() + 1e-12]
            leaving = min(tie, key=lambda r: basis[r])
        else:
            bound = float(((rhs + _simplex.HARRIS_TOL) / col[rows]).min())
            within = rows[rhs / col[rows] <= bound]
            leaving = within[np.argmax(col[within])]
        tableau[leaving, -1] = max(tableau[leaving, -1], 0.0)
        gain = tableau[leaving, -1] / col[leaving] * -cost[entering]
        degenerate = degenerate + 1 if gain <= _simplex.PIVOT_TOL else 0
        plain_pivot(tableau, basis, int(leaving), entering)
    raise _simplex.PivotLimit(f"simplex phase exceeded {_simplex.LP_MAX_ITER} pivots")


def plain_solve_lp(c, a_eq, b_eq):
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    plain_iterate(tableau, basis, n + m)
    if tableau[-1, -1] < -_simplex.FEAS_TOL:
        raise Infeasible("phase-1 optimum positive: constraints unsatisfiable")
    for r in range(m):
        if basis[r] >= n:
            row = np.abs(tableau[r, :n])
            col = int(np.argmax(row))
            if row[col] > _simplex.PIVOT_TOL:
                plain_pivot(tableau, basis, r, col)
    keep_rows = [r for r in range(m) if basis[r] < n]
    drop = [r for r in range(m) if basis[r] >= n]
    if drop:
        tableau = np.delete(tableau, drop, axis=0)
        basis = [basis[r] for r in keep_rows]
    work = np.zeros((tableau.shape[0], n + 1))
    work[:-1, :n] = tableau[:-1, :n]
    work[:-1, -1] = tableau[:-1, -1]
    work[-1, :n] = c
    for r, bv in enumerate(basis):
        if abs(work[-1, bv]) > 0.0:
            work[-1] -= work[-1, bv] * work[r]
    plain_iterate(work, basis, n)
    x = np.zeros(n)
    for r, bv in enumerate(basis):
        x[bv] = max(float(work[r, -1]), 0.0)
    return x, float(c @ x), work[-1, :n].copy()


def assert_plain(c, a, b):
    """solve_lp(c, a, b) is plain_solve_lp's result by its bytes, or the same
    exception with the same message; returns the name of the outcome."""
    try:
        ref = plain_solve_lp(c, a, b)
    except Exception as exc:
        ref = exc
    res = alone(c, a, b)
    if isinstance(ref, Exception):
        assert type(res) is type(ref) and str(res) == str(ref)
        return type(ref).__name__
    x, value, reduced = res
    assert x.tobytes() == ref[0].tobytes()
    assert type(value) is float and np.float64(value).tobytes() == np.float64(ref[1]).tobytes()
    assert reduced.tobytes() == ref[2].tobytes()
    return "tuple"


def read_lps(seed, count):
    """The LPs of `constraints._lp_reads` at widths 0 and 1e-9 on the
    statistics and taus of `phase_one_problems`: _face's rounds (max delta,
    every outcome lifted or a random part of them) and max_expectation's
    (random values, nothing lifted)."""
    rng = np.random.default_rng(seed)
    for t, taus in phase_one_problems(seed, count):
        k, n = t.shape
        for tau in taus[:4]:
            if rng.random() < 0.5:
                lifted = np.ones(n, dtype=bool) if rng.random() < 0.5 else rng.random(n) < 0.6
                c = np.zeros(n + 1)
                c[n] = -1.0
            else:
                lifted, c = None, -rng.uniform(-1.0, 1.0, n)
            a, cost = constraints._read_lp(t, c, lifted)
            for width in (0.0, 1e-9):
                yield cost, a, np.concatenate([[1.0], tau + width, np.full(k, 2.0 * width)])


@pytest.mark.parametrize("bland_after", [_simplex.BLAND_AFTER, 0, 1])
def test_solve_lp_is_the_plain_simplex_bitwise(bland_after, monkeypatch):
    monkeypatch.setattr(_simplex, "BLAND_AFTER", bland_after)
    kinds = {assert_plain(*lp) for lp in read_lps(20261025, 60)}
    assert kinds == {"tuple", "Infeasible"}
    rng = np.random.default_rng(20261026)
    for i in range(120):
        c, a, b = general_stack(rng, shared=True)
        kinds.update(assert_plain(c[s], a, b[s]) for s in range(len(b)))
    for t, taus in phase_one_problems(20261027, 20):
        c, a, b = phase_one_stack(t, taus)
        kinds.update(assert_plain(c[s], a, b[s]) for s in range(len(b)))
    assert kinds == {"tuple", "Infeasible", "Unbounded"}


def test_degenerate_lp_is_the_plain_simplex_bitwise(monkeypatch):
    c = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
    a = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                  [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    for bland_after in (_simplex.BLAND_AFTER, 0, 1):
        monkeypatch.setattr(_simplex, "BLAND_AFTER", bland_after)
        assert assert_plain(c, a, [0.0, 0.0, 1.0]) == "tuple"
        # a redundant row: an artificial stays basic and its row is dropped
        assert assert_plain(c, np.vstack([a, a[2]]), [0.0, 0.0, 1.0, 1.0]) == "tuple"


@pytest.mark.parametrize("max_iter", [1, 3, 6])
def test_pivot_limit_is_the_plain_simplex(max_iter, monkeypatch):
    monkeypatch.setattr(_simplex, "LP_MAX_ITER", max_iter)
    kinds = {assert_plain(*lp) for lp in read_lps(20261028, 30)}
    rng = np.random.default_rng(20261029)
    for i in range(60):
        c, a, b = general_stack(rng, shared=True)
        kinds.update(assert_plain(c[s], a, b[s]) for s in range(len(b)))
    assert "PivotLimit" in kinds and (max_iter == 1 or "tuple" in kinds)


def test_nan_in_the_ratio_test_is_a_value_error(monkeypatch):
    # a nan right-hand side reaches the ratio test, under either pricing
    # rule; the plain simplex raised ValueError there too, with numpy's words
    a = np.array([[1.0, 2.0, 0.5], [0.5, 1.0, 2.0]])
    for bland_after in (_simplex.BLAND_AFTER, 0):
        monkeypatch.setattr(_simplex, "BLAND_AFTER", bland_after)
        with pytest.raises(ValueError):
            plain_solve_lp([1.0, 1.0, 1.0], a, [np.nan, 1.0])
        with pytest.raises(ValueError, match="the ratio test met a nan"):
            _simplex.solve_lp([1.0, 1.0, 1.0], a, [np.nan, 1.0])


def dipped_tableaus(seed, count):
    """(tableau, basis) pairs of (m + 1, n + 1) tableaus in canonical form
    whose basic variables sit at or just below zero, as a Harris step
    leaves them (-1e-11 to 5e-13), or above it, with a cost row that prices
    several columns in: Bland's ratio test then meets clamped rows and
    ties within 1e-12."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(2, 6)), int(rng.integers(5, 10))
        perm = rng.permutation(n)
        basis = perm[:m].tolist()
        t = np.zeros((m + 1, n + 1))
        t[:m, perm[m:]] = rng.choice([0.0, 0.5, 1.0, 2.0, -1.0], (m, n - m))
        t[np.arange(m), basis] = 1.0
        t[:m, -1] = rng.choice([-1e-11, -3e-12, 0.0, 5e-13, 0.3, 1.0], m)
        t[-1, perm[m:]] = rng.uniform(-1.0, 0.5, n - m)
        yield t, basis


@pytest.mark.parametrize("bland_after", [0, 1])
def test_dipped_tableaus_iterate_as_the_plain_loop(bland_after, monkeypatch):
    # _iterate and a one-row _iterate_stack from tableaus with basic
    # variables below zero: both clamp them, as the plain loop does
    monkeypatch.setattr(_simplex, "BLAND_AFTER", bland_after)
    kinds = set()
    for t, basis in dipped_tableaus(20261030, 400):
        n = t.shape[1] - 1
        ref, ref_basis = t.copy(), list(basis)
        try:
            plain_iterate(ref, ref_basis, n)
        except _simplex.Unbounded as exc:
            ref = exc
        got, got_basis = t.copy(), list(basis)
        stack, stack_basis, out = t[None].copy(), np.array([basis]), [None]
        _simplex._iterate_stack(stack, stack_basis, np.ones((1, len(basis)), dtype=bool), n, out)
        if isinstance(ref, Exception):
            with pytest.raises(_simplex.Unbounded, match=str(ref)):
                _simplex._iterate(got, got_basis, n)
            assert type(out[0]) is type(ref) and str(out[0]) == str(ref)
            kinds.add("Unbounded")
            continue
        _simplex._iterate(got, got_basis, n)
        assert got.tobytes() == ref.tobytes() and got_basis == ref_basis
        assert out[0] is None
        assert stack[0].tobytes() == ref.tobytes() and stack_basis[0].tolist() == ref_basis
        kinds.add("optimal")
    assert kinds == {"optimal", "Unbounded"}
