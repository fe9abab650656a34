"""Zero-one phase 1 (min over Gamma_tau of max_x p(x)) against the exact
pattern enumeration it replaced, and zero-one at sizes the enumeration
could not reach (the CLI case is in test_cli.py), and the k = 1 supporting
line from the closed-form prefix rows.

`enumerate_min_pmax` is the old phase 1 kept as a test oracle: it tries every
(free set, member set) pattern, 2^N member sets per free set, so it is capped
at ZERO_ONE_ENUM_CAP outcomes.  The solver's LP screen, and the one batched
exact test (`constraints.support_solutions`) per block of the pattern
systems it leaves, must not change a bit of (m*, p): the problems mix
continuous and integer-valued statistics (ties), tau on hull faces and tau
from sparse laws (degenerate LPs).
"""

import os
from itertools import combinations

import numpy as np
import pytest

from maxentgames import (
    CombinatorialBlowup,
    GammaTau,
    Infeasible,
    SampleSpace,
    Statistic,
    solve,
    verify_saddle,
    zero_one_model,
)
from maxentgames import cli, maxent
from maxentgames.constraints import CONSISTENCY_TOL
from maxentgames.core import WEIGHT_CLAMP

ZERO_ONE_ENUM_CAP = 12
SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "specs")


def min_pmax(g):
    """Phase 1 at one tau: (m*, P*, LP weights), or the exception raised."""
    (found,) = maxent._min_pmax(g.statistic, [g.tau])
    if isinstance(found, Exception):
        raise found
    return found


def enumerate_min_pmax(g):
    """(m*, p) minimizing max_x p(x) over Gamma_tau, by pattern enumeration.

    A pattern is a free set F (|F| <= k, values in [0, m]) and a nonempty
    member set outside F at the common level m, zeros elsewhere; its
    consistent solutions are the candidates.  The representative among those
    within 1e-12 of the minimum has the least p.p, then the least rounded
    lexicographic order.
    """
    n, k = g.n, g.k
    if n > ZERO_ONE_ENUM_CAP:
        raise CombinatorialBlowup(
            f"N={n} exceeds the zero-one enumeration cap {ZERO_ONE_ENUM_CAP}")
    tmat = g.statistic.matrix
    target = np.concatenate([[1.0], g.tau])
    candidates = []
    all_idx = list(range(n))
    for f_size in range(0, k + 1):
        for free in combinations(all_idx, f_size):
            rest = [i for i in all_idx if i not in free]
            r = len(rest)
            for mask in range(1, 1 << r):
                members = [rest[i] for i in range(r) if mask >> i & 1]
                a = np.zeros((k + 1, 1 + f_size))
                a[0, 0] = len(members)
                a[1:, 0] = tmat[:, members].sum(axis=1)
                for c, j in enumerate(free):
                    a[0, 1 + c] = 1.0
                    a[1:, 1 + c] = tmat[:, j]
                sol, *_ = np.linalg.lstsq(a, target, rcond=None)
                if np.max(np.abs(a @ sol - target)) > CONSISTENCY_TOL:
                    continue
                m = float(sol[0])
                if m < -WEIGHT_CLAMP:
                    continue
                pf = sol[1:]
                if pf.size and (float(pf.min()) < -WEIGHT_CLAMP
                                or float(pf.max()) > m + 1e-9):
                    continue
                p = np.zeros(n)
                p[members] = max(m, 0.0)
                for c, j in enumerate(free):
                    p[j] = max(float(pf[c]), 0.0)
                candidates.append((max(m, 0.0), p))
    if not candidates:
        raise Infeasible(f"Gamma_tau empty for tau={g.tau}")
    m_star = min(c[0] for c in candidates)
    pool = [p for (m, p) in candidates if m <= m_star + 1e-12]
    pool.sort(key=lambda p: (float(p @ p), tuple(np.round(p, 12))))
    return m_star, pool[0]


def mean_value_problem(rng, n, k, kind):
    """(statistic, tau): 0 uniform T, full law; 1 integer T (ties), rational
    tau half the time; 2 tau on the face {t_1 = -1}; 3 a law on k + 1 outcomes."""
    if kind == 1:
        t = rng.integers(-2, 3, size=(k, n)).astype(float)
    else:
        t = rng.uniform(-1.0, 1.0, size=(k, n))
    on = np.arange(n)
    if kind == 2:
        on = rng.choice(n, size=min(k + 2, n), replace=False)
        t[0, on] = -1.0
    elif kind == 3:
        on = rng.choice(n, size=min(k + 1, n), replace=False)
    p = np.zeros(n)
    p[on] = rng.dirichlet(np.ones(on.size))
    if kind == 1 and rng.random() < 0.5:
        p = np.round(p * 4.0)
        if p.sum() == 0.0:
            p[0] = 1.0
        p /= p.sum()
    tau = t @ p
    if kind == 2:
        tau[0] = -1.0
    return Statistic(t), tau


def oracle_sizes(count):
    """N 3-6 with k 1-3, and every twentieth problem N 7-10 with k = 1."""
    for i in range(count):
        if i % 20 == 19:
            yield i, 7 + (i // 20) % 4, 1
        else:
            yield i, 3 + i % 4, 1 + (i // 4) % 3


def test_lp_screen_matches_pattern_enumeration_bitwise():
    rng = np.random.default_rng(20261018)
    for case, n, k in oracle_sizes(600):
        stat, tau = mean_value_problem(rng, n, k, (case // 15) % 4)
        g = GammaTau(stat, tau)
        m_ref, p_ref = enumerate_min_pmax(g)
        m_star, p, _ = min_pmax(g)
        assert m_star == m_ref, case
        assert np.array_equal(p, p_ref), case


@pytest.mark.parametrize("n, k, kind, seed", [(12, 2, "random", 0), (11, 3, "tied", 24),
                                               (11, 2, "duplicated row", 0)])
def test_screen_matches_pattern_enumeration_at_the_old_cap(n, k, kind, seed):
    # the tied seed and the duplicated integer row (every square system is
    # singular) are problems whose representative comes from a rank-deficient
    # system, which reaches the exact test unscreened
    rng = np.random.default_rng(seed)
    if kind == "duplicated row":
        stat, tau = mean_value_problem(rng, n, k - 1, 1)
        stat = Statistic(np.vstack([stat.matrix, stat.matrix[-1]]))
        tau = np.append(tau, tau[-1])
    else:
        stat, tau = mean_value_problem(rng, n, k, 1 if kind == "tied" else 0)
    g = GammaTau(stat, tau)
    m_ref, p_ref = enumerate_min_pmax(g)
    m_star, p, _ = min_pmax(g)
    assert m_star == m_ref
    assert np.array_equal(p, p_ref)


def tied_statistic(n):
    """Two outcomes at t = +1 and n - 2 tied at t = -1."""
    return Statistic(np.array([[1.0, 1.0] + [-1.0] * (n - 2)]))


def test_tied_statistic_at_the_old_cap_matches_the_enumeration():
    # at tau = -0.5 the ten outcomes at -1 share 0.75, each at most m* = 0.125:
    # every minimizer splits them differently, so the LP leaves all ten open
    g = GammaTau(tied_statistic(12), np.array([-0.5]))
    m_ref, p_ref = enumerate_min_pmax(g)
    m_star, p, _ = min_pmax(g)
    assert m_star == m_ref
    assert np.array_equal(p, p_ref)


def test_tied_statistic_past_the_pattern_cap_is_refused():
    # 18 outcomes at -1 share 0.8, each at most m* = 0.1: 2^18 member sets
    # per free set, far past ZERO_ONE_PATTERN_CAP, so no pattern is tried
    g = GammaTau(tied_statistic(20), np.array([-0.6]))
    with pytest.raises(CombinatorialBlowup, match="18 outcomes left open"):
        min_pmax(g)


def test_infeasible_tau_raises_in_both():
    g = GammaTau(Statistic(np.array([[-1.0, 0.0, 1.0]])), np.array([1.5]))
    with pytest.raises(Infeasible):
        enumerate_min_pmax(g)
    with pytest.raises(Infeasible, match="Gamma_tau empty"):
        min_pmax(g)


@pytest.mark.parametrize("n", [16, 20])
def test_zero_one_past_the_old_cap_solves_and_verifies(n, monkeypatch):
    monkeypatch.delenv("MAXENT_MAX_N", raising=False)
    rng = np.random.default_rng(n)
    model = zero_one_model(SampleSpace.of(range(n)))
    for k in (1, 2, 3):
        for kind in (0, 2):
            stat, tau = mean_value_problem(rng, n, k, kind)
            g = GammaTau(stat, tau)
            sp = solve(model, g)
            assert sp.method == "zero-one-enum"
            assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, (k, kind)
            assert np.max(np.abs(stat.matrix @ sp.p_star.w - tau)) <= 1e-9


def count_calls(monkeypatch, name):
    """Wrap maxent.<name> and return the list its calls append to."""
    calls = []
    inner = getattr(maxent, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(maxent, name, counted)
    return calls


def test_zero_one_sweep_runs_one_lp_per_grid_point(monkeypatch, capsys):
    lps = count_calls(monkeypatch, "_pmax_lp")
    phase1 = count_calls(monkeypatch, "_min_pmax")
    assert cli.main(["sweep", os.path.join(SPECS, "zero_one_mean.json")]) == 0
    rows = len(capsys.readouterr().out.splitlines()) - 2   # two header lines
    # the supporting-line rows are closed-form, so each grid point runs only
    # its phase-1 LP; phase 1 runs once for the whole grid, and its LPs run
    # as one lockstep stack with a row per grid point
    assert len(lps) == 1 and lps[0][1].shape == (rows, 1) and rows == 41
    assert len(phase1) == 1 and len(phase1[0][1]) == rows


@pytest.mark.parametrize("tau", [-0.5, 0.0])
def test_tied_k1_solve_runs_phase_one_once(tau, monkeypatch):
    model = zero_one_model(SampleSpace.of(range(12)))
    phase1 = count_calls(monkeypatch, "_min_pmax")
    lps = count_calls(monkeypatch, "_pmax_lp")
    g = GammaTau(tied_statistic(12), np.array([tau]))
    sp = solve(model, g)
    assert len(phase1) == len(lps) == 1
    assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


def prefix_rows(t):
    """(sigma_S, 1 - 1/|S|) at the uniform laws on the prefixes of t sorted
    up and down; chi(beta) is attained at one of them for every beta."""
    ts, sizes = np.sort(t), np.arange(1.0, t.size + 1.0)
    sigmas = np.concatenate([np.cumsum(ts), np.cumsum(ts[::-1])]) / np.tile(sizes, 2)
    return sigmas, np.tile(1.0 - 1.0 / sizes, 2)


def test_k1_beta_is_a_supporting_line_at_the_hull_ends():
    # beta0 + beta sigma >= h(sigma) for every sigma, checked at the prefix
    # laws, with tau at the hull ends and at the prefix means; probing h on a
    # grid missed its breakpoints and reported lines that cut h by up to 0.5
    worst, count = -np.inf, 0
    for seed in range(24):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(3, 9))
        t = np.round(rng.uniform(-1.0, 1.0, n), 2)
        stat = Statistic(t[None, :])
        model = zero_one_model(SampleSpace.of(range(n)))
        sigmas, h = prefix_rows(t)
        for tau in np.unique(sigmas):
            g = GammaTau(stat, np.array([tau]))
            sp = solve(model, g)
            assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, (seed, tau)
            worst = max(worst, float(np.max(h - sp.beta0 - sp.beta[0] * sigmas)))
            count += 1
    assert count > 200
    assert worst <= 1e-8


def test_k1_beta_matches_the_natural_tilt_at_a_hull_end():
    t = np.array([[-0.88, 0.99, -0.87, 0.69, -0.86, -0.57]])
    model = zero_one_model(SampleSpace.of(range(6)))
    rep = maxent.conjugacy_check(model, Statistic(t), [-0.88], np.linspace(-2.0, 2.0, 5))
    assert rep.max_matched_residual <= 1e-8
