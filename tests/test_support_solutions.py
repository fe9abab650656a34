"""The one exact test of support systems, `constraints.support_solutions`.

It calls the private LAPACK gelsd gufunc behind `np.linalg.lstsq` once per
stack of systems.  These tests pin it to lstsq bit for bit and to the rule
written out per system (residual within CONSISTENCY_TOL, no weight below
-WEIGHT_CLAMP), on full-rank and rank-deficient systems, columns 1e-9 apart
and entries near 1e5.  They also count the batched calls that vertex and
pattern enumeration make, and that the ranks of support systems take no
second factorization: they are read off the singular values of the
least-squares call that solves them.
"""

import warnings
from itertools import combinations

import numpy as np
import pytest

from maxentgames import (GammaTau, SampleSpace, Statistic, brier_model, log_model,
                         zero_one_model)
from maxentgames import constraints, maxent
from maxentgames.losses import bregman_model, xlogx_generator
from maxentgames.constraints import CONSISTENCY_TOL, RANK_TOL, support_solutions
from maxentgames.core import WEIGHT_CLAMP


def lstsq_rule(a, target):
    """(passes, solution, smallest singular value) of one system, by lstsq."""
    sol, _, _, sv = np.linalg.lstsq(a, target, rcond=None)
    passes = not (np.max(np.abs(a @ sol - target)) > CONSISTENCY_TOL
                  or float(sol.min()) < -WEIGHT_CLAMP)
    return passes, sol, sv[-1]


def system_stack(rng, k, s, kind, n=7):
    """Every support system [1; T] on s of n outcomes, as vertex enumeration
    stacks them, and a target [1; tau] from a law on k + 1 outcomes."""
    if kind == "deficient":
        t = rng.integers(-1, 2, size=(k, n)).astype(float)   # ties: dependent supports
    else:
        t = rng.uniform(-1.0, 1.0, size=(k, n))
    if kind in ("close", "near lstsq's cutoff"):
        gap = 1e-9 if kind == "close" else 1e-14
        t[:, 1] = t[:, 0] + gap * rng.uniform(-1.0, 1.0, size=k)
    elif kind == "large":
        t = 1e5 * (1.0 + t)
    rows = np.vstack([np.ones(n), t])
    a = rows.T[np.array(list(combinations(range(n), s)))].transpose(0, 2, 1)
    p = np.zeros(n)
    p[rng.choice(n, size=k + 1, replace=False)] = rng.dirichlet(np.ones(k + 1))
    return a, np.concatenate([[1.0], t @ p])


@pytest.mark.parametrize("kind", ["random", "close", "near lstsq's cutoff", "deficient",
                                  "large"])
def test_support_solutions_equal_lstsq_bitwise(kind):
    rng = np.random.default_rng(29)
    passed = failed = dependent_passed = 0
    for k in (1, 2, 3):
        for s in range(1, k + 2):
            a, target = system_stack(rng, k, s, kind)
            passes, sol, smallest = support_solutions(a, target)
            assert passes.shape == smallest.shape == (a.shape[0],)
            assert sol.shape == (a.shape[0], s)
            for i in range(a.shape[0]):
                ref_pass, ref_sol, ref_smallest = lstsq_rule(a[i], target)
                assert np.array_equal(sol[i], ref_sol), (k, s, i)
                assert smallest[i] == ref_smallest, (k, s, i)
                assert passes[i] == ref_pass, (k, s, i)
            passed += int(passes.sum())
            failed += int((~passes).sum())
            dependent_passed += int((passes & (smallest <= RANK_TOL)).sum())
    assert passed > 0 and failed > 0
    assert dependent_passed > 0 or kind != "deficient"


@pytest.mark.parametrize("miss, passes", [(0.9e-9, True), (1.1e-9, False)])
def test_the_residual_is_read_at_consistency_tol(miss, passes):
    # one outcome with t = 0 against tau = miss: the residual is miss exactly
    a = np.array([[[1.0], [0.0]]])
    target = np.array([1.0, miss])
    assert support_solutions(a, target)[0].tolist() == [passes]
    assert lstsq_rule(a[0], target)[0] is passes


@pytest.mark.parametrize("weight, passes", [(-0.9e-12, True), (-1.1e-12, False)])
def test_a_weight_is_read_at_weight_clamp(weight, passes):
    # t = (-1, 1) at tau = 1 - 2 weight: the weights are (weight, 1 - weight)
    a = np.array([[[1.0, 1.0], [-1.0, 1.0]]])
    target = np.array([1.0, 1.0 - 2.0 * weight])
    assert support_solutions(a, target)[0].tolist() == [passes]
    assert lstsq_rule(a[0], target)[0] is passes


def test_a_stack_of_one_equals_lstsq_bitwise():
    a = np.array([[1.0, 1.0], [-1.0, 1.0]])
    target = np.array([1.0, 0.2])
    passes, sol, smallest = support_solutions(a[None], target)
    ref_pass, ref_sol, ref_smallest = lstsq_rule(a, target)
    assert passes.tolist() == [ref_pass] and ref_pass
    assert np.array_equal(sol[0], ref_sol) and smallest[0] == ref_smallest


def test_a_nan_system_raises_like_lstsq():
    a = np.ones((3, 2, 2))
    a[:, 1, 1] = 0.5
    a[1, 1, 0] = np.nan
    target = np.array([1.0, 0.7])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(a[1], target, rcond=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            support_solutions(a, target)


def counting(monkeypatch, module, name):
    """The first argument of every call of module.name, which it wraps."""
    calls = []
    inner = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_vertex_enumeration_makes_one_batched_call_per_support_size(monkeypatch):
    g = GammaTau(Statistic(np.array([[-1.0, 0.0, 1.0]])), np.array([0.2]))
    batched = counting(monkeypatch, constraints, "support_solutions")
    lstsq = counting(monkeypatch, np.linalg, "lstsq")
    svd = counting(monkeypatch, np.linalg, "svd")
    points = constraints.vertices(g).points
    assert points.shape == (2, 3)
    assert len(batched) == 2
    assert lstsq == [] and svd == []


def test_pattern_enumeration_makes_one_batched_call_per_block(monkeypatch):
    g = GammaTau(Statistic(np.array([[-1.0, 0.0, 1.0]])), np.array([0.2]))
    batched = counting(monkeypatch, maxent, "support_solutions")
    blocks = []
    inner = maxent._pattern_systems

    def counted_blocks(*args):
        for block in inner(*args):
            blocks.append(block[2].shape[0])
            yield block

    monkeypatch.setattr(maxent, "_pattern_systems", counted_blocks)
    lstsq = counting(monkeypatch, np.linalg, "lstsq")
    svd = counting(monkeypatch, np.linalg, "svd")
    (m_star, p, _), = maxent._min_pmax(g.statistic, [g.tau])
    assert m_star == pytest.approx(0.4) and p.sum() == pytest.approx(1.0)
    assert len(blocks) >= 1 and len(batched) == len(blocks)
    assert lstsq == [] and svd == []


def test_zero_one_phase_2_takes_an_svd_only_of_its_act_families(monkeypatch):
    # the act systems of one shape take one lstsq_stack call, whose singular
    # values give their ranks; those with a one-parameter family of acts
    # (d = 1) take one stacked SVD per shape, for its direction, and a grid
    # without such systems takes none
    model = zero_one_model(SampleSpace.of(list("abc")))
    stat = Statistic(np.array([[-1.0, 0.0, 1.0]]))
    svd = np.linalg.svd
    stacks = counting(monkeypatch, np.linalg, "svd")
    found = maxent.solve_grid(model, stat, np.linspace(-0.9, 0.9, 19)[:, None])
    families = sum(sp.act_family is not None for sp in found)
    assert families > 0
    assert len({a.shape[1:] for a in stacks}) == len(stacks) > 0   # one call per shape
    for a in stacks:
        s = svd(a, compute_uv=False)
        assert ((s > 1e-10 * s[:, :1]).sum(axis=1) == a.shape[2] - 1).all()   # d = 1 each
    del stacks[:]
    found = maxent.solve_grid(model, stat, np.array([[-0.9], [-0.3], [0.2], [0.7]]))
    assert all(sp.act_family is None for sp in found) and stacks == []


def test_brier_and_separable_ranks_take_no_second_factorization(monkeypatch):
    # the Brier multipliers and the separable dual's beta read their rank
    # off the singular values of the lstsq_stack call that solves their
    # support system: no np.linalg.matrix_rank and no np.linalg.lstsq
    space = SampleSpace.of(list("abcd"))
    stat = Statistic(np.array([[-1.0, -0.2, 0.4, 1.0], [0.3, -0.5, 0.8, 0.1]]))
    rank = counting(monkeypatch, np.linalg, "matrix_rank")
    lstsq = counting(monkeypatch, np.linalg, "lstsq")
    brier = maxent.solve_grid(brier_model(space), stat,
                              np.array([[0.0, 0.1], [0.3, 0.2], [-0.5, -0.1], [-1.0, 0.3]]))
    bregman = maxent.solve(bregman_model(space, xlogx_generator()),
                           GammaTau(stat, np.array([0.1, 0.2])))
    face = maxent.solve(log_model(space), GammaTau(stat, np.array([-1.0, 0.3])))
    assert [sp.method for sp in brier] == ["brier-enum"] * 4
    assert all(sp.beta is not None for sp in brier[:3])
    assert bregman.method == "bregman-dual" and bregman.beta is not None
    assert face.method == "log-face" and face.beta is None
    assert rank == [] and lstsq == []
