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
every-row-cut branch.  The former bodies are kept below verbatim, under
`former_` names, as the references: every rank, solution, iterate and draft
must be theirs bit for bit (arrays and floats by their bytes), and every
exception theirs, type and message.

The inputs are seeded: one-row and many-row stacks, unit and non-unit base
measures, zero and relative offsets, statistics with duplicated,
near-collinear (1e-9 and 1e-12 apart), zero or nearly constant rows, laws with one
or two charges of 1e-9 to 1e-5, hull faces, and a NaN row.
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
)
from maxentgames import _newton
from maxentgames._newton import (
    NEWTON_MAX_ITER,
    NewtonDivergence,
    _by_slice,
    _dual_tol,
    _slope_root,
)
from maxentgames.constraints import RANK_TOL, lstsq_stack, union_support, vertex_lists
from maxentgames.core import ACT_DENSITY, ACT_DISTRIBUTION, WEIGHT_CLAMP, Distribution, attempt
from maxentgames.losses import bregman_model, power_generator, xlogx_generator
from maxentgames.maxent import (
    _brier_degenerate_beta,
    _brier_scan,
    _Draft,
    _family_act,
    _family_bounds,
    _unpack,
)
from test_solve_grid import alone_call, assert_same, assert_same_outcome


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
    _brier_scan(rows, targets, y, found)
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
        beta = _brier_degenerate_beta(g, p, supp)
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
                bounds = attempt(_family_bounds, gammas[i], v0, vt[rank], modes, charged)
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
