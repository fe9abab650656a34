"""Zero-one solves over a tau grid against `solve` at each tau alone.

`maxent.solve_grid` runs zero-one phase 1 for a whole grid: one LP per tau,
then, for the taus whose LP screen gives the same (zero, mode) masks, one
exact test per block of pattern systems against all their targets.  Every
SaddlePoint must be the one `solve(model, GammaTau(T, tau))` gives, field for
field and bit for bit, and every exception the one it raises, type and
message.  The grids (from test_vertex_lists) hold hull vertices, points on
faces, sparse laws, points just inside and just outside the consistency band
of a hull end and points far outside, on uniform and integer (tied)
statistics with N 3-12 and k 1-3.  They run through `cli._grid_solves` with a
small GRID_CHUNK, so they cross chunk boundaries, and once more with a small
SYSTEM_BLOCK, which splits the taus of one screen into several calls.
"""

import dataclasses
import os

import numpy as np
import pytest

from maxentgames import (
    GammaTau,
    Infeasible,
    SampleSpace,
    SaddlePoint,
    Statistic,
    cli,
    maxent,
    solve,
    solve_grid,
    zero_one_model,
)
from maxentgames.constraints import SYSTEM_BLOCK
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
    else:
        assert a == b, where


def alone(model, t, tau):
    """`solve` at one tau, or the exception it raises."""
    try:
        return solve(model, GammaTau(Statistic(t), tau))
    except Exception as exc:
        return exc


def assert_matches_each_tau_alone(model, t, taus, found):
    assert len(found) == len(taus)
    for tau, sp in zip(taus, found):
        ref = alone(model, t, tau)
        if isinstance(ref, Exception):
            assert type(sp) is type(ref), (tau, sp)
            assert str(sp) == str(ref), tau
        else:
            assert_same(sp, ref, tuple(tau))


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
        calls.append((a.shape[0], target.shape[0]))
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
        found = [sp for _, _, sp, _ in
                 cli._grid_solves(model, Statistic(t), taus, None, with_vertices=False)]
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
    spec = cli.parse_spec(os.path.join(SPECS, "brier_mean.json"))
    taus = np.array([[-0.5], [0.25], [1.5]])
    solves = []
    inner = maxent.solve

    def counted(model, g, tol=None):
        solves.append(g.tau)
        return inner(model, g, tol)

    monkeypatch.setattr(maxent, "solve", counted)
    found = solve_grid(spec.model, spec.statistic, taus)
    assert len(solves) == 3
    monkeypatch.setattr(maxent, "solve", inner)
    assert_matches_each_tau_alone(spec.model, spec.statistic.matrix, taus, found)
    assert isinstance(found[2], Infeasible)
