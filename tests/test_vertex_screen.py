"""Vertex enumeration against the per-support enumeration it replaced.

`enumerate_vertices` is the old enumeration kept as a test oracle: one
`matrix_rank` and one `lstsq` for every support of at most k + 1 outcomes,
then a pairwise deduplication.  The enumeration solves each block of
supports in one batched exact test (`constraints.support_solutions`, the
LAPACK gelsd call behind lstsq) and must not change a bit of the vertex set:
the problems mix continuous and integer-valued statistics (ties and
dependent supports), tau on hull faces and tau from sparse laws.
"""

from itertools import combinations

import numpy as np

from maxentgames import GammaTau, Infeasible, Statistic
from maxentgames.constraints import CONSISTENCY_TOL, DEDUP_TOL, vertices
from maxentgames.core import WEIGHT_CLAMP

from test_zero_one_lp import mean_value_problem


def enumerate_vertices(g):
    """Vertices of Gamma_tau as lexicographically sorted rows."""
    n, k = g.n, g.k
    rows = np.vstack([np.ones(n), g.statistic.matrix])
    target = np.concatenate([[1.0], g.tau])
    found = []
    for size in range(1, min(k + 1, n) + 1):
        for supp in combinations(range(n), size):
            a = rows[:, supp]
            if np.linalg.matrix_rank(a, tol=1e-10) < size:
                continue
            sol, *_ = np.linalg.lstsq(a, target, rcond=None)
            if np.max(np.abs(a @ sol - target)) > CONSISTENCY_TOL:
                continue
            if float(sol.min()) < -WEIGHT_CLAMP:
                continue
            p = np.zeros(n)
            p[list(supp)] = np.where(sol < 0.0, 0.0, sol)
            found.append(p)
    if not found:
        raise Infeasible(f"Gamma_tau empty for tau={np.asarray(g.tau)}")
    pts = np.array(found)
    keep = []
    for i in range(pts.shape[0]):
        if all(np.max(np.abs(pts[i] - pts[j])) > DEDUP_TOL for j in keep):
            keep.append(i)
    pts = pts[keep]
    return pts[np.lexsort(pts.T[::-1])]


def oracle_sizes(count):
    """N 3-12 with k 1-3, and every twentieth problem N 14-20."""
    for i in range(count):
        if i % 20 == 19:
            n = (14, 16, 18, 20)[(i // 20) % 4]
            yield i, n, 1 + (i // 80) % 3
        else:
            yield i, 3 + i % 10, 1 + (i // 10) % 3


def test_screened_enumeration_matches_per_support_enumeration_bitwise():
    rng = np.random.default_rng(20261019)
    for case, n, k in oracle_sizes(400):
        stat, tau = mean_value_problem(rng, n, k, (case // 7) % 4)
        g = GammaTau(stat, tau)
        assert np.array_equal(vertices(g).points, enumerate_vertices(g)), case



def test_nearly_equal_columns_keep_the_vertex_set():
    # two outcomes 1e-9 apart pass the rank test with a condition number near
    # 1e9; normal equations would square it past 1/eps and hit a singular pivot
    rng = np.random.default_rng(7)
    for case in range(40):
        n, k = 5 + case % 4, 2 + case % 2
        t = rng.uniform(-1.0, 1.0, size=(k, n))
        t[:, 1] = t[:, 0] + 1e-9 * rng.uniform(-1.0, 1.0, size=k)
        g = GammaTau(Statistic(t), t @ rng.dirichlet(np.ones(n)))
        assert np.array_equal(vertices(g).points, enumerate_vertices(g)), case
