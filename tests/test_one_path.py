"""Ranks read off the least-squares solve, and kernels with one path, against
the bodies they had before.

The rank of a support system [1; T] p = [1; tau] restricted to some outcomes
is read off the singular values of the `lstsq_stack` call that solves it:
the Brier multipliers (`maxent._brier_grid`, formerly `_lstsq_rank` with
`np.linalg.matrix_rank`), the separable dual's beta (`_separable_draft`,
formerly `np.linalg.lstsq` and `np.linalg.matrix_rank`) and the zero-one
act systems (`_zero_one_acts`, formerly one stacked SVD of every system,
now one of the systems with a one-parameter family alone).  `_matvecs` and
`core._dots` lost their one-row branches and `_separable_dual` its
every-row-cut branch.  The Brier support test (`_brier_scan`, formerly in
rounds with a weak-duality early stop) runs every support the dual names in
one pass, and the interval of the parameter that a Brier support or a
zero-one act family leaves free (`_brier_degenerate_beta`, `_family_bounds`)
comes from one rule, `_interval`, instead of a loop over the rows of each.
The former bodies are kept below verbatim, under
`former_` names, as the references: every rank, solution, iterate and draft
must be theirs bit for bit (arrays and floats by their bytes), and every
exception theirs, type and message.

The inputs are seeded: one-row and many-row stacks, unit and non-unit base
measures, zero and relative offsets, statistics with duplicated,
near-collinear (1e-9 and 1e-12 apart), zero or nearly constant rows, laws with one
or two charges of 1e-9 to 1e-5, hull faces, and a NaN row; for the Brier
support test also tau at or within 1e-10 of a hull vertex at N 8-160, where
the dual names a second support, and a k = 1 grid over the hull, ends
included.
"""

from __future__ import annotations

import numpy as np
import pytest

from maxentgames import (
    Act,
    BaseMeasure,
    GammaTau,
    SampleSpace,
    Statistic,
    brier_model,
    core,
    log_model,
    maxent,
    relative_model,
    zero_one_model,
)
from maxentgames import _newton
from maxentgames._newton import (
    NEWTON_MAX_ITER,
    NewtonDivergence,
    _by_slice,
    _dual_tol,
    _slope_root,
)
from maxentgames.constraints import (
    RANK_TOL,
    lstsq_stack,
    support_solutions,
    union_support,
    vertex_lists,
)
from maxentgames.core import ACT_DENSITY, ACT_DISTRIBUTION, WEIGHT_CLAMP, Distribution, attempt
from maxentgames.losses import bregman_model, power_generator, xlogx_generator
from maxentgames.maxent import (
    BRIER_GAP_TOL,
    _brier_degenerate_beta,
    _brier_scan,
    _brier_supports,
    _Draft,
    _family_act,
    _family_bounds,
    _interval,
    _unpack,
)
from test_brier_dual import random_problem
from test_folded_kernels import problems as kernel_problems
from test_solve_grid import alone_call, assert_same, assert_same_outcome
from test_zero_one_lp import mean_value_problem


# ---------------------------------------------------------------------------
# the former bodies, verbatim


def former_matvecs(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    if x.shape[0] == 1 and x.ndim == 2:
        return (a @ x[0])[None]
    return (a @ x[..., None])[..., 0]


def former_dots(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    if x.shape[0] == 1 and x.ndim == z.ndim == 2:
        return (x[0] @ z[0])[None]
    return (x[..., None, :] @ z[..., :, None])[..., 0, 0]


def former_separable_dual(rows: np.ndarray, targets: np.ndarray, mu: np.ndarray,
                          gen, offset=0.0):
    # psi'(0) may be -inf, and a trial step may overflow the density; the
    # gradient-norm test rejects such a step
    with np.errstate(divide="ignore", over="ignore"):
        m, k1 = targets.shape
        floor = float(gen.psi_prime(np.zeros(1))[0])
        tol = _dual_tol(targets)
        # x * 1 and x - 0 are x, bit for bit: a unit mu and a zero offset skip them
        unit = bool((mu == 1.0).all())
        shifted = not (isinstance(offset, float) and offset == 0.0)

        def density(s):   # mu (psi')^-1(max(psi'(0), s))
            d = gen.psi_prime_inv(np.maximum(s, floor))
            return d if unit else mu * d

        def gradient(v, b):   # (b - A p, its norm, p, A'v - r)
            s = former_matvecs(rows.T, v)
            if shifted:
                s = s - offset
            p = density(s)
            r = b - former_matvecs(rows, p)
            return r, np.maximum.reduce(np.abs(r), axis=1), p, s

        eye = np.eye(k1)
        y = np.zeros((m, k1))
        y[:, 0] = float(gen.psi_prime(np.array([1.0 / mu.sum()]))[0])   # the law mu / sum mu
        grad, norm, p, shift = gradient(y, targets)
        failed = {}
        live = np.ones(m, dtype=bool)   # rows above tol whose steps raised nothing
        whole = slice(None)
        at = whole
        for _ in range(NEWTON_MAX_ITER):
            reached = norm <= tol
            count = np.count_nonzero(reached)
            if count == m:
                break
            if at is not whole or count:
                live &= ~reached
                at = np.flatnonzero(live)
                if not at.size:
                    break
            if at is whole:
                ya, ga, na, b, s, pa = y, grad, norm, targets, shift, p
            else:
                ya, ga, na, b, s, pa = y[at], grad[at], norm[at], targets[at], shift[at], p[at]
            # dp/ds by a forward difference on a power-of-two step, exact for
            # linear densities
            h = np.ldexp(1.0, np.frexp(s)[1] - 20)
            curve = (density(s + h) - pa) / h
            hess = (rows * curve[:, None, :]) @ rows.T
            hess += (na * na)[:, None, None] * eye
            try:
                step = lstsq_stack(hess, ga)[0][..., 0]
                errors = {}
            except np.linalg.LinAlgError:
                solved, errors = _by_slice(lstsq_stack, hess, ga)
                step = np.zeros_like(ya) if solved is None else solved[0][..., 0]
                for j, exc in errors.items():
                    row = np.arange(m)[at][j]
                    failed[int(row)] = exc
                    live[row] = False
            trial = ya + step
            trial_grad, trial_norm, trial_p, trial_s = gradient(trial, b)
            shrunk = trial_norm < na
            if np.count_nonzero(shrunk) < shrunk.size:
                cuts = np.flatnonzero(~shrunk).tolist()
                if errors:
                    cuts = [j for j in cuts if j not in errors]
                for j in cuts:
                    e, c, sj = rows.T @ step[j], float(b[j] @ step[j]), s[j]
                    cut = _slope_root(lambda t: c - float(e @ density(sj + t * e)),
                                      float(ga[j] @ step[j]), np.inf)
                    trial[j] = ya[j] + cut * step[j]
                if len(cuts) == len(trial):   # every row cut: no gather, no scatter
                    EVERY_ROW_CUT.append(len(trial))
                    trial_grad, trial_norm, trial_p, trial_s = gradient(trial, b)
                elif cuts:
                    (trial_grad[cuts], trial_norm[cuts], trial_p[cuts],
                     trial_s[cuts]) = gradient(trial[cuts], b[cuts])
            if at is whole:
                y, grad, norm, p, shift = trial, trial_grad, trial_norm, trial_p, trial_s
            else:
                y[at], grad[at], norm[at], p[at], shift[at] = (trial, trial_grad, trial_norm,
                                                               trial_p, trial_s)
            if errors:
                at = None   # recount the live rows
        return y, p, norm, failed


EVERY_ROW_CUT = []   # stack heights at which the former every-row-cut branch ran


def former_brier_grid(model, statistic, pairs: list) -> list:
    rows = np.vstack([np.ones(statistic.n), statistic.matrix])
    targets = np.ones((len(pairs), statistic.k + 1))
    targets[:, 1:] = [g.tau for g, _ in pairs]
    gen, mu = model.separable()
    y, _, _, found = former_separable_dual(rows, targets, mu, gen)
    former_brier_scan(rows, targets, y, found)
    # multipliers come from the true support; a winning support may carry
    # zero weights whose stationarity condition is an inequality, not an equality
    supports, by_size = {}, {}
    for j, won in found.items():
        if not isinstance(won, Exception):
            supports[j] = np.flatnonzero(won[1] > WEIGHT_CLAMP)
            by_size.setdefault(supports[j].size, []).append(j)
    for js in by_size.values():
        a_t = rows.T[np.array([supports[j] for j in js])]   # a.T, a = rows[:, supp]
        weights = np.array([found[j][1][supports[j]] for j in js])
        fits, errors = _by_slice(former_lstsq_rank, a_t, weights)
        for r, j in enumerate(js):
            found[j] = errors[r] if r in errors else (*found[j], fits[0][r], fits[1][r])
    return [found[j] if isinstance(found[j], Exception) else attempt(
        former_brier_draft, g, hull, supports[j], *found[j]) for j, (g, hull) in enumerate(pairs)]


def former_lstsq_rank(a_t: np.ndarray, weights: np.ndarray):
    alpha, _ = lstsq_stack(a_t, weights)
    return alpha[..., 0], np.linalg.matrix_rank(a_t.transpose(0, 2, 1), tol=RANK_TOL)


def former_brier_draft(g, hull: str, supp: np.ndarray, h: float, p: np.ndarray,
                       alpha: np.ndarray, rank):
    if rank == g.k + 1:
        beta = -2.0 * alpha[1:]
    else:
        beta = former_brier_degenerate_beta(g, p, supp)
    beta0 = None if beta is None else h - float(beta @ g.tau)
    zeta = Act(ACT_DISTRIBUTION, p)
    return _Draft(g, Distribution(p), zeta, h, beta0, beta, 0.0, "brier-enum", hull)


def former_zero_one_acts(statistic, gammas: list, points: list, levels: list) -> list:
    n, k = statistic.n, statistic.k
    tmat = statistic.matrix
    out, systems, shapes = [None] * len(gammas), [], {}
    for i, (p, m_star) in enumerate(zip(points, levels)):
        charged = p > 1e-9
        supp = np.flatnonzero(charged)
        modes = np.flatnonzero(charged & (p >= m_star - 1e-9))
        a = np.zeros((supp.size + 1, modes.size + 1 + k))
        a[np.searchsorted(supp, modes), np.arange(modes.size)] = 1.0
        a[:-1, modes.size] = 1.0
        a[:-1, modes.size + 1:] = tmat[:, supp].T
        a[-1, :modes.size] = 1.0
        systems.append((charged, modes, a))
        shapes.setdefault(a.shape, []).append(i)
    picks = {}
    for idx in shapes.values():
        a = np.array([systems[i][2] for i in idx])
        b = np.ones(a.shape[:2])
        solved, errors = _by_slice(lstsq_stack, a, b)
        dec, svd_errors = _by_slice(np.linalg.svd, a)   # read only where consistent
        for r, i in enumerate(idx):
            if r in errors:
                out[i] = errors[r]
                continue
            v0 = solved[0][r, :, 0]
            if np.max(np.abs(a[r] @ v0 - b[r])) > 1e-8:
                continue
            if r in svd_errors:
                out[i] = svd_errors[r]
                continue
            charged, modes, _ = systems[i]
            s, vt = dec[1][r], dec[2][r]
            # relative, unlike RANK_TOL: golden acts rest on it
            rank = int((s > 1e-10 * s[0]).sum())
            d = a.shape[2] - rank
            FORMER_NULLITIES.append(d)
            if d == 0:
                zeta, beta0, beta = _unpack(v0, modes, n)
                out[i] = np.maximum(zeta, 0.0), beta0, beta, None
            elif d == 1:
                bounds = attempt(former_family_bounds, gammas[i], v0, vt[rank], modes, charged)
                if isinstance(bounds, tuple):
                    picks[i] = v0, vt[rank], modes, *bounds
                else:
                    out[i] = bounds
    if picks:
        lists = attempt(vertex_lists, statistic, np.array([gammas[i].tau for i in picks]))
        for j, (i, family) in enumerate(picks.items()):
            vs = lists if isinstance(lists, Exception) else lists[j]
            out[i] = vs if isinstance(vs, Exception) else attempt(_family_act, vs, *family)
    return out


FORMER_NULLITIES = []   # d of every consistent act system the former body read


def former_brier_scan(rows: np.ndarray, targets: np.ndarray, y: np.ndarray,
                      found: dict) -> None:
    n, k = rows.shape[1], rows.shape[0] - 1
    scans, h_up = {}, {}
    for j in range(len(targets)):
        if j not in found:
            s = rows.T @ y[j]
            pos = np.maximum(s, 0.0)
            h_up[j] = 1.0 - float(y[j] @ targets[j]) + 0.25 * float(pos @ pos)   # weak duality
            scans[j] = iter(_brier_supports(s, k))
    best = {}
    while scans:
        picks = {}
        for j, supports in list(scans.items()):
            supp = next(supports, None)
            if supp is None:
                del scans[j]
            else:
                picks.setdefault(len(supp), []).append((j, supp))
        for batch in picks.values():
            js = [j for j, _ in batch]
            a = rows.T[np.array([supp for _, supp in batch])].transpose(0, 2, 1)
            tested, errors = _by_slice(support_solutions, a, targets[js])
            if tested is not None:
                passes, sols = tested[0].tolist(), np.where(tested[1] < 0.0, 0.0, tested[1])
            for r, (j, supp) in enumerate(batch):
                if r in errors:
                    found[j] = errors[r]
                    del scans[j]
                    continue
                if not passes[r]:
                    continue
                p = np.zeros(n)
                p[list(supp)] = sols[r]
                h = 1.0 - float(p @ p)
                if j not in best or h > best[j][0] + 1e-12:
                    best[j] = (h, p)
                if best[j][0] + 1e-12 >= h_up[j]:
                    del scans[j]
    for j in range(len(targets)):
        if j in found:
            continue
        if j not in best or h_up[j] - best[j][0] > BRIER_GAP_TOL:
            found[j] = NewtonDivergence(
                f"Brier dual left a duality gap above {BRIER_GAP_TOL:g}")
        else:
            found[j] = best[j]


def former_brier_degenerate_beta(g: GammaTau, p: np.ndarray, supp: np.ndarray):
    if g.k != 1:
        return None
    t = g.statistic.matrix[0]
    tau = float(g.tau[0])
    p_bar = float(p[supp].mean())
    lower, upper = -np.inf, np.inf
    for j in range(g.n):
        if j in supp:
            continue
        dt = t[j] - tau
        if dt > 1e-12:
            lower = max(lower, 2.0 * p_bar / dt)
        elif dt < -1e-12:
            upper = min(upper, 2.0 * p_bar / dt)
        else:
            return None  # an excluded outcome sits on the constraint face
    if lower > upper + 1e-12:
        return None
    if lower <= 0.0 <= upper:
        val = 0.0
    else:
        val = lower if lower > 0.0 else upper
    return np.array([val])


def former_family_bounds(g: GammaTau, v0: np.ndarray, col: np.ndarray, modes: np.ndarray,
                          charged: np.ndarray):
    n, k = g.n, g.k
    tmat = g.statistic.matrix
    coefs, rhs = [], []
    for i in range(modes.size):          # zeta >= 0
        coefs.append(col[i])
        rhs.append(-v0[i] - 1e-12)
    if k == 1:
        # beta0 + beta * sigma >= h(sigma) for every sigma iff beta0 >= chi(beta),
        # and chi(beta) is attained at a uniform law on a prefix of t, sorted up
        # for beta > 0 or down for beta < 0, where 1 - max p = 1 - 1/size
        ts, sizes = np.sort(tmat[0]), np.arange(1.0, n + 1.0)
        sigmas = np.concatenate([np.cumsum(ts), np.cumsum(ts[::-1])]) / np.tile(sizes, 2)
        for sigma, h_sig in zip(sigmas, np.tile(1.0 - 1.0 / sizes, 2)):
            coefs.append(col[modes.size] + sigma * col[modes.size + 1])
            rhs.append(h_sig - (v0[modes.size] + sigma * v0[modes.size + 1]) - 1e-9)
    # outcomes off supp(P*) but reachable within Gamma_tau score L = 1; a
    # worst-case member there must not beat the affine value beta0 + beta' t
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
            return None          # no coefficient meets this row
    return None if lo > hi else (lo, hi)


def former_separable_draft(model, base, r: np.ndarray, g, hull: str, method: str):
    idx = np.arange(g.n) if hull == "interior" else union_support(g)
    rows = np.vstack([np.ones(idx.size), g.statistic.matrix[:, idx]])
    target = np.concatenate([[1.0], g.tau])
    aim = rows @ np.linalg.lstsq(rows, target, rcond=None)[0]
    aim = aim / aim[0]
    gen, mu = base.separable()
    y, p_idx, norm, failed = former_separable_dual(rows, aim[None], mu[idx], gen, r[idx])
    if failed:
        raise failed[0]
    y, p_idx, norm = y[0], p_idx[0], norm[0]
    if not norm <= _dual_tol(aim):
        raise NewtonDivergence(
            f"{method}: separable dual stopped with gradient norm {norm:.3e}")
    norm = float(np.abs(rows @ p_idx - target).max())   # the residual against tau itself
    p = np.zeros(g.n)
    p[idx] = p_idx
    p_star = Distribution(p)
    h = model.entropy(p_star)
    beta = beta0 = None
    if np.linalg.matrix_rank(rows, tol=RANK_TOL) == g.k + 1:
        beta = -y[1:]
        beta0 = h - float(beta @ g.tau)
    zeta = base.bayes_act(p_star)
    return _Draft(g, p_star, zeta, h, beta0, beta, norm, method, hull)


# ---------------------------------------------------------------------------
# seeded inputs


def wide(rng, shape):
    """Entries of either sign whose magnitudes span 1e-9 to 1e5."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-9.0, 5.0, shape)


def degenerate_statistic(rng, n, k, kind):
    """A statistic in [-1, 1] (k, n), rounded to 3 decimals, made degenerate
    by `kind`: two outcomes with equal columns ("duplicate"), columns
    1e-9 or 1e-12 apart ("near-9", "near-12"), a zero last row ("zero-row"),
    a last row constant within 1e-8 ("flat"), or none ("plain")."""
    t = np.round(rng.uniform(-1.0, 1.0, (k, n)), 3)
    i, j = rng.choice(n, 2, replace=False)
    if kind == "duplicate":
        t[:, j] = t[:, i]
    elif kind.startswith("near"):
        t[:, j] = t[:, i]
        t[-1, j] += 10.0 ** -int(kind.split("-")[1])
    elif kind == "zero-row":
        t[-1] = 0.0
    elif kind == "flat":
        t[-1] = t[-1, 0] + 1e-8 * rng.uniform(-1.0, 1.0, n)
    return t


KINDS = ("plain", "duplicate", "near-9", "near-12", "zero-row", "flat")


def charged_law(rng, n):
    """A law whose one or two smallest charges lie in [1e-9, 1e-5]; the
    rest is a Dirichlet(1) draw."""
    p = rng.dirichlet(np.ones(n))
    small = rng.choice(n, int(rng.integers(1, min(2, n - 1) + 1)), replace=False)
    p[small] = 10.0 ** rng.uniform(-9.0, -5.0, small.size)
    p[np.setdiff1d(np.arange(n), small)] *= (1.0 - p[small].sum()) / np.delete(p, small).sum()
    return p


def problems(rng, count=2):
    """(statistic, Gamma_tau pairs with their hull class) per (N, k, kind):
    interior tau from `charged_law`, a tau on the face {t_1 = min}, and a
    hull vertex."""
    for n in (3, 4, 6, 8):
        for k in (1, 2, 3):
            if k >= n:
                continue
            for kind in KINDS:
                t = degenerate_statistic(rng, n, k, kind)
                stat = Statistic(t)
                taus = [t @ charged_law(rng, n) for _ in range(count)]
                low = np.flatnonzero(t[0] == t[0].min())
                face = np.zeros(n)
                face[low] = rng.dirichlet(np.ones(low.size))
                face[rng.integers(n)] += 0.3
                taus += [t @ (face / face.sum()), t[:, rng.integers(n)]]
                pairs = []
                for tau in taus:
                    g = GammaTau(stat, tau)
                    hull = alone_call(maxent._hull_class, g)
                    if isinstance(hull, str):
                        pairs.append((g, hull))
                yield stat, pairs


# ---------------------------------------------------------------------------
# the kernels that lost their one-row branches


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 33, 160])
def test_matvecs_and_dots_give_the_one_row_bits(n):
    rng = np.random.default_rng(20261020 + n)
    for k1 in (1, 2, 4):
        a = wide(rng, (k1, n))
        for shape in ((1, n), (5, n), (3, 4, n)):
            x = wide(rng, shape)
            assert_same(_newton._matvecs(a, x), former_matvecs(a, x), (n, k1, shape))
        x = wide(rng, (1, k1))   # the transposed rows of the separable dual
        assert_same(_newton._matvecs(a.T, x), former_matvecs(a.T, x), (n, k1, "transposed"))
    for shape in ((1, n), (6, n), (3, 4, n)):
        x, z, v = wide(rng, shape), wide(rng, shape), wide(rng, n)
        assert_same(core._dots(x, z), former_dots(x, z), (n, shape))
        assert_same(core._dots(x, v), former_dots(x, v), (n, shape, "broadcast"))
    # the 1-D product of one pair, which the one-pair branch took
    x, z = wide(rng, (1, n)), wide(rng, (1, n))
    assert core._dots(x, z).tobytes() == np.array([x[0] @ z[0]]).tobytes()
    x[0, rng.integers(n)] = np.nan
    assert_same(core._dots(x, z), former_dots(x, z), (n, "nan"))
    assert_same(_newton._matvecs(a, x), former_matvecs(a, x), (n, "nan"))


# ---------------------------------------------------------------------------
# the separable dual without its every-row-cut branch


def assert_same_dual(found, ref, where):
    for x, y in zip(found[:3], ref[:3]):
        assert_same(x, y, where)
    assert found[3].keys() == ref[3].keys(), where
    for j in ref[3]:
        assert_same_outcome(found[3][j], ref[3][j], (where, j))


GENERATORS = {
    "brier": lambda n: brier_model(SampleSpace.of(range(n))).separable()[0],
    "xlogx": lambda n: xlogx_generator(),
    "power3": lambda n: power_generator(3.0),
}


@pytest.mark.parametrize("name", list(GENERATORS))
def test_separable_dual_gives_the_former_iterates_bitwise(name):
    rng = np.random.default_rng([20261021, len(name)])
    del EVERY_ROW_CUT[:]
    for n, k in ((3, 1), (4, 3), (8, 2)):
        gen = GENERATORS[name](n)
        for kind in KINDS:
            t = degenerate_statistic(rng, n, k, kind)
            rows = np.vstack([np.ones(n), t])
            targets = np.ones((4, k + 1))
            targets[:, 1:] = [t @ charged_law(rng, n) for _ in range(4)]
            targets[-1, 1:] = t @ rng.dirichlet(np.ones(n))
            nan = targets[:3].copy()
            nan[1, -1] = np.nan
            for mu in (np.ones(n), rng.uniform(0.5, 2.0, n)):
                for offset in (0.0, rng.uniform(-0.5, 0.5, n)):
                    for stack in (targets[:1], targets[3:4], targets, nan):
                        where = (name, n, k, kind, mu[0], np.ndim(offset), stack.shape)
                        found = _newton._separable_dual(rows, stack, mu, gen, offset)
                        ref = former_separable_dual(rows, stack, mu, gen, offset)
                        assert_same_dual(found, ref, where)
                    assert list(found[3]) == [1], where   # the NaN row raised alone
    assert 1 in EVERY_ROW_CUT   # one-row stacks that took the former branch


# ---------------------------------------------------------------------------
# ranks read off the least-squares solve


def test_brier_ranks_read_off_lstsq_equal_matrix_rank():
    # the support systems a' alpha = weights of `_brier_grid`, a = [1; T] on
    # supports of one size, among them dependent ones
    rng = np.random.default_rng(20261022)
    ranks = set()
    for n, k in ((4, 1), (6, 2), (8, 3)):
        for kind in KINDS:
            rows = np.vstack([np.ones(n), degenerate_statistic(rng, n, k, kind)])
            for size in range(1, min(n, k + 3) + 1):
                supports = np.array([rng.choice(n, size, replace=False) for _ in range(9)])
                a_t = rows.T[supports]
                weights = np.array([charged_law(rng, size) if size > 1 else np.ones(1)
                                    for _ in supports])
                for stack in (slice(0, 1), slice(None)):
                    sol, sv = lstsq_stack(a_t[stack], weights[stack])
                    alpha, rank = former_lstsq_rank(a_t[stack], weights[stack])
                    assert_same(sol[..., 0], alpha, (n, k, kind, size))
                    assert np.count_nonzero(sv > RANK_TOL, axis=-1).tolist() == rank.tolist()
                    ranks.update(zip(rank.tolist(), [min(size, k + 1)] * len(rank)))
    assert any(r < full for r, full in ranks), ranks   # dependent supports were met
    nan = np.ones((2, 3, 2))
    nan[1, 0, 1] = np.nan
    found = _by_slice(lstsq_stack, nan, np.ones((2, 3)))[1]
    ref = _by_slice(former_lstsq_rank, nan, np.ones((2, 3)))[1]
    assert list(found) == list(ref) == [1]
    assert_same_outcome(found[1], ref[1], "nan")


def test_brier_grid_gives_the_former_drafts_bitwise():
    rng = np.random.default_rng(20261023)
    seen = set()
    for stat, pairs in problems(rng, count=3):
        model = brier_model(SampleSpace.of(range(stat.n)))
        found = maxent._brier_grid(model, stat, pairs)
        ref = former_brier_grid(model, stat, pairs)
        for i, (draft, want) in enumerate(zip(found, ref)):
            assert_same_outcome(draft, want, (stat.n, stat.k, i))
            if not isinstance(want, Exception):
                seen.add("beta" if want.beta is not None else "beta None")
    assert {"beta", "beta None"} <= seen


SEPARABLE = {
    "xlogx": lambda space, rng: bregman_model(space, xlogx_generator()),
    "power3": lambda space, rng: bregman_model(space, power_generator(3.0)),
    "log-base": lambda space, rng: log_model(
        space, BaseMeasure(rng.uniform(0.5, 2.0, space.n))),
    "relative-log": lambda space, rng: relative_model(
        log_model(space), Act(ACT_DENSITY, rng.dirichlet(np.ones(space.n)))),
}


@pytest.mark.parametrize("name", list(SEPARABLE))
def test_separable_draft_gives_the_former_draft_bitwise(name):
    rng = np.random.default_rng([20261024, len(name)])
    seen = set()
    for stat, pairs in problems(rng):
        model = SEPARABLE[name](SampleSpace.of(range(stat.n)), rng)
        base, r = maxent._unwrap(model)
        for g, hull in pairs:
            found = alone_call(maxent._separable_draft, model, base, r, g, hull, name)
            ref = alone_call(former_separable_draft, model, base, r, g, hull, name)
            assert_same_outcome(found, ref, (name, stat.n, stat.k, tuple(g.tau), hull))
            seen.add(type(ref).__name__ if isinstance(ref, Exception)
                     else "beta" if ref.beta is not None else "beta None")
    assert {"beta", "beta None"} <= seen, seen


def test_zero_one_acts_give_the_former_acts_bitwise():
    # phase 2 on phase 1's P* and on sparse laws that minimize nothing, some
    # with tied modes, shuffled together, so one shape mixes consistent and
    # inconsistent systems and nullities 0, 1 and 2 or more
    rng = np.random.default_rng(20261025)
    del FORMER_NULLITIES[:]
    families = 0
    for stat, pairs in problems(rng, count=3):
        n = stat.n
        rows = []
        for g, _ in pairs:
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
        ref = former_zero_one_acts(stat, *map(list, zip(*rows)))
        for (g, p, _), act, want in zip(rows, found, ref):
            assert_same_outcome(act, want, (n, stat.k, tuple(g.tau), tuple(p)))
            families += isinstance(want, tuple) and want[3] is not None
    assert {0, 1, 2} <= set(FORMER_NULLITIES) and families > 0


# ---------------------------------------------------------------------------
# the Brier support test in one pass, and one interval rule


def brier_dual(rows, targets):
    gen, mu = brier_model(SampleSpace.of(range(rows.shape[1]))).separable()
    return _newton._separable_dual(rows, targets, mu, gen)


def second_support_kind(rows, target, y):
    """How the dual's supports for one target stand: "one" support, or two
    with the "first" kept or the "second" winning, as the scan's rule reads
    each tested alone."""
    supports = _brier_supports(rows.T @ y, rows.shape[0] - 1)
    if len(supports) == 1:
        return "one"
    h = []
    for supp in supports:
        passes, sol, _ = support_solutions(rows[:, list(supp)][None], target[None])
        sol = np.where(sol[0] < 0.0, 0.0, sol[0])
        h.append(1.0 - float(sol @ sol) if passes[0] else None)
    if h[1] is not None and (h[0] is None or h[1] > h[0] + 1e-12):
        return "second" if h[0] is None else "second over a passing first"
    return "first"


def assert_scan_is_former(rows, targets, where, seen=None):
    y, _, _, found = brier_dual(rows, targets)
    new, ref = dict(found), dict(found)
    _brier_scan(rows, targets, y, new)
    former_brier_scan(rows, targets, y, ref)
    assert new.keys() == ref.keys() == set(range(len(targets))), where
    for j in range(len(targets)):
        assert_same_outcome(new[j], ref[j], (where, j))
        if seen is not None and j not in found:
            seen.add(second_support_kind(rows, targets[j], y[j]))


def near_vertex_targets(rng, t, count):
    """[1; tau] for `count` tau, each the column of t that maximizes a random
    direction, moved by 0 or +-1e-10 per row."""
    k = t.shape[0]
    tops = np.argmax(rng.standard_normal((count, k)) @ t, axis=1)
    targets = np.ones((count, k + 1))
    targets[:, 1:] = t[:, tops].T + rng.choice([-1e-10, 0.0, 1e-10], (count, k))
    return targets


def test_brier_scan_gives_the_former_scan_bitwise():
    rng = np.random.default_rng(20261026)
    for case in range(40):   # seeded grids: one law's tau, five full laws and a vertex
        stat, tau = random_problem(rng)
        t = stat.matrix
        targets = np.ones((7, stat.k + 1))
        targets[0, 1:] = tau
        targets[1:6, 1:] = rng.dirichlet(np.ones(stat.n), 5) @ t.T
        targets[6, 1:] = t[:, rng.integers(stat.n)]
        assert_scan_is_former(np.vstack([np.ones(stat.n), t]), targets, ("grid", case))
    seen = set()
    for n in (8, 12, 20, 40, 80, 160):
        for k in (1, 2, 3):
            t = rng.uniform(-1.0, 1.0, (k, n))
            targets = near_vertex_targets(rng, t, 6)
            assert_scan_is_former(np.vstack([np.ones(n), t]), targets, ("vertex", n, k), seen)
    assert {"first", "second", "second over a passing first"} <= seen, seen
    # k = 1: a grid over the hull, ends included
    t = next(kernel_problems(7, (160,)))[0]
    targets = np.ones((41, 2))
    targets[:, 1] = np.linspace(t.min(), t.max(), 41)
    assert_scan_is_former(np.vstack([np.ones(t.shape[1]), t]), targets, "hull grid")


def test_brier_degenerate_beta_gives_the_former_beta_bitwise(monkeypatch):
    # the calls of Brier grids on random k = 1 problems and hull grids
    calls = []

    def recorded(g, p, supp):
        calls.append((g, p, supp))
        return _brier_degenerate_beta(g, p, supp)

    monkeypatch.setattr(maxent, "_brier_degenerate_beta", recorded)
    rng = np.random.default_rng(20261027)
    model = brier_model(SampleSpace.of(range(8)))
    for _ in range(6):
        t = np.round(rng.uniform(-1.0, 1.0, (1, 8)), 1)
        taus = np.concatenate([t[0], np.linspace(t.min(), t.max(), 9)])
        maxent.solve_grid(model, Statistic(t), taus[:, None])
    assert len(calls) >= 20
    for i, (g, p, supp) in enumerate(calls):
        assert_same(_brier_degenerate_beta(g, p, supp), former_brier_degenerate_beta(g, p, supp), i)
    # fabricated, with rows (t(x) - tau) beta >= 2 mean p on the support off it
    t = Statistic(np.array([[0.0, 1.0, 1.5, 2.0, 3.0]]))
    for tau, p, supp, want in (
            (1.5, [0.5, 0, 0, 0, 0.5], [0, 4], None),    # off {0, 4}, t = 1.5 sits at tau
            (2.0, [0, 0.5, 0, 0.5, 0], [1, 3], None),    # t = 1.5: beta <= -2, t = 3: beta >= 1
            (0.0, [1.0, 0, 0, 0, 0], [0], [2.0]),        # beta >= 2 / t: the end nearest zero
            (1.5, [0.2] * 5, range(5), [0.0])):          # no outcome off the support
        g, p, supp = GammaTau(t, [tau]), np.array(p), np.array(supp)
        found = _brier_degenerate_beta(g, p, supp)
        assert_same(found, former_brier_degenerate_beta(g, p, supp), (tau, supp))
        assert (found if found is None else found.tolist()) == want, (tau, supp)


def test_interval_reads_zero_coefficient_rows_at_1e_9():
    rows = np.array([2.0, -4.0, 1e-12, -1e-12, 0.0])
    for rhs_zero, empty in ((1e-9, False), (np.nextafter(1e-9, 1.0), True), (-1.0, False)):
        rhs = np.array([1.0, 2.0, 0.0, 0.0, rhs_zero])
        assert (_interval(rows, rhs) is None) is empty, rhs_zero
        if not empty:
            assert _interval(rows, rhs) == (0.5, -0.5)   # lo > hi: the callers' test
    assert _interval(np.array([1e-12]), np.array([2e-9])) is None   # 1e-12 counts as zero
    assert _interval(np.zeros(0), np.zeros(0)) == (-np.inf, np.inf)
    assert _interval(np.array([3.0, 1.0]), np.array([3.0, -1.0])) == (1.0, np.inf)
    assert _interval(np.array([-2.0, -1.0]), np.array([1.0, 2.0])) == (-np.inf, -2.0)


def same_interval(found, ref):
    """None for both, or both endpoints the same floats by their bytes."""
    if ref is None:
        return found is None
    return found is not None and all(
        np.float64(a).tobytes() == np.float64(b).tobytes() for a, b in zip(found, ref))


def test_family_bounds_give_the_former_interval_bitwise(monkeypatch):
    # the family systems of zero-one solves at k 1-3, each also with its
    # direction negated and zeroed, so the rows flip sides and go to zero
    calls = []

    def recorded(*args):
        calls.append(args)
        return _family_bounds(*args)

    monkeypatch.setattr(maxent, "_family_bounds", recorded)
    rng = np.random.default_rng(20261028)
    for case in range(160):
        n, k = 3 + case % 6, 1 + (case // 6) % 3
        stat, tau = mean_value_problem(rng, n, k, (case // 18) % 4)
        alone_call(maxent.solve, zero_one_model(SampleSpace.of(range(n))),
                   GammaTau(stat, tau))
    assert {g.k for g, *_ in calls} == {1, 2, 3}
    reach = sum(g.k >= 2 and bool(np.setdiff1d(union_support(g), np.flatnonzero(charged)).size)
                for g, _, _, _, charged in calls)
    assert reach > 0   # rows of outcomes off supp(P*) that Gamma_tau reaches, k >= 2
    outcomes = set()
    for i, (g, v0, col, modes, charged) in enumerate(calls):
        for c in (col, -col, 0.0 * col):
            found = _family_bounds(g, v0, c, modes, charged)
            ref = former_family_bounds(g, v0, c, modes, charged)
            assert same_interval(found, ref), (i, found, ref)
            outcomes.add("None" if ref is None else "interval")
    assert outcomes == {"None", "interval"}
