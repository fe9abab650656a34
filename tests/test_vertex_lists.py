"""Vertex lists over a tau grid against the vertex list of each tau alone.

`constraints.vertex_lists` solves each block of supports against the
targets [1; tau] of a whole chunk of the grid in one batched exact test.
Every list must be the one `vertices(GammaTau(T, tau))` gives, bit for bit,
and an empty Gamma_tau must give the Infeasible that `vertices` raises.  The
grids hold hull vertices, points on faces, points just inside and just
outside the consistency band of a hull end, points far outside, and interior
laws; their sizes cross chunk and SYSTEM_BLOCK boundaries.
"""

from math import comb

import numpy as np
import pytest

from maxentgames import CombinatorialBlowup, GammaTau, Infeasible, Statistic, constraints
from maxentgames.constraints import SYSTEM_BLOCK, vertex_lists, vertices


def statistic(rng, n, k, tied):
    """Uniform rows, or integer rows (ties); the first row is -1 on k + 2
    outcomes, so {t_1 = -1} is a face holding several columns."""
    if tied:
        t = rng.integers(-2, 3, size=(k, n)).astype(float)
    else:
        t = rng.uniform(-1.0, 1.0, size=(k, n))
    t[0, rng.choice(n, size=min(k + 2, n), replace=False)] = -1.0
    return t


def grid(rng, t, count):
    """count taus of the kinds the module docstring lists, shuffled."""
    k, n = t.shape
    face = np.flatnonzero(t[0] == -1.0)
    top = int(np.argmax(t[0]))
    kinds = [
        lambda: t[:, rng.integers(n)],
        lambda: t[:, face] @ rng.dirichlet(np.ones(face.size)),
        lambda: t @ rng.dirichlet(np.full(n, 0.3)),
        lambda: t[:, top] + np.eye(k)[0] * rng.choice([5e-10, 1e-6, 0.5]),
        lambda: rng.uniform(-3.0, 3.0, size=k),
    ]
    taus = np.array([kinds[i % len(kinds)]() for i in range(count)])
    return taus[rng.permutation(count)]


def cases():
    """(n, k, tied, grid size): N 3-12 with k 1-3; a chunk holds
    SYSTEM_BLOCK // C(n, k + 1) taus, and the grids run past two chunks
    where that is at most 64 taus, else over a few chunks of one tau."""
    for n in range(3, 13):
        for k in (1, 2, 3):
            per = max(1, SYSTEM_BLOCK // comb(n, min(k + 1, n)))
            count = 2 * per + 3 if per <= 64 else per + 7
            yield n, k, (n + k) % 2 == 0, count


def test_vertex_lists_match_each_tau_alone_bitwise(monkeypatch):
    systems = []
    inner = constraints.support_solutions

    def counted(a, target):
        systems.append(int(np.prod(np.broadcast_shapes(a.shape[:-2], target.shape[:-1]))))
        return inner(a, target)

    rng = np.random.default_rng(20261019)
    empty = 0
    for n, k, tied, count in cases():
        t = statistic(rng, n, k, tied)
        taus = grid(rng, t, count)
        monkeypatch.setattr(constraints, "support_solutions", counted)
        lists = vertex_lists(Statistic(t), taus)
        monkeypatch.setattr(constraints, "support_solutions", inner)
        assert len(lists) == count
        for tau, found in zip(taus, lists):
            try:
                alone = vertices(GammaTau(Statistic(t), tau))
            except Infeasible as exc:
                assert isinstance(found, Infeasible), (n, k, tau)
                assert str(found) == str(exc)
                empty += 1
                continue
            assert np.array_equal(found.points, alone.points), (n, k, tau)
            assert not found.points.flags.writeable
    # every call held at most SYSTEM_BLOCK systems, and some held exactly that
    assert max(systems) == SYSTEM_BLOCK
    assert empty >= 100


def test_one_tau_is_the_vertices_of_its_set():
    t = np.array([[-1.0, 0.0, 1.0]])
    for tau in (-1.0, -0.3, 0.0, 0.2, 1.0):
        [found] = vertex_lists(Statistic(t), [[tau]])
        assert np.array_equal(found.points, vertices(GammaTau(Statistic(t), [tau])).points)
    [found] = vertex_lists(Statistic(t), [[1.5]])
    assert isinstance(found, Infeasible)
    with pytest.raises(Infeasible, match=r"tau=\[1.5\]"):
        vertices(GammaTau(Statistic(t), [1.5]))


def test_caps_are_checked_before_any_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("a support system was solved")

    monkeypatch.setattr(constraints, "support_solutions", refuse)
    monkeypatch.setenv("MAXENT_MAX_N", "2")
    with pytest.raises(CombinatorialBlowup, match="MAXENT_MAX_N"):
        vertex_lists(Statistic(np.array([[-1.0, 0.0, 1.0]])), np.zeros((5, 1)))
    monkeypatch.delenv("MAXENT_MAX_N")
    with pytest.raises(CombinatorialBlowup, match="k=4"):
        vertex_lists(Statistic(np.eye(5)[:4]), np.zeros((1, 4)))
