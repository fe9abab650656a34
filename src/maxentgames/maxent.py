"""Maximum-entropy / robust-Bayes solvers for mean-value constraint games.

For each loss model the solver returns a saddle point of the restricted game
over Gamma_tau = {P : E_P T = tau}: the entropy-maximizing P*, a robust Bayes
act zeta*, the game value h(tau), and, where the loss admits an affine
representation beta0 + beta' t(x), the coefficients linking tau to beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import NamedTuple

import numpy as np

from ._newton import (
    ROOT_MAX_ITER,
    NewtonDivergence,
    _by_slice,
    _dual_tol,
    _newton_tilt,
    _separable_dual,
    _slope_root,
)
from ._simplex import simplex_qp
from .constraints import (
    RANK_TOL,
    SYSTEM_BLOCK,
    GammaTau,
    _face,
    lstsq_stack,
    max_expectation,
    min_max_expectation,
    support_solutions,
    union_support,
    vertex_lists,
    vertices,
)
from .core import (
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    Act,
    CombinatorialBlowup,
    Distribution,
    Infeasible,
    NORM_TOL,
    Statistic,
    WEIGHT_CLAMP,
    _dots,
    attempt,
    distribution_rows,
    ext_dot,
    ext_dots,
    raised,
)
from .divergence import RelativeModel, _loss_rows, relative_model
from .losses import (
    BrierModel,
    ConvexGenerator,
    LogModel,
    LossModel,
    QuadraticModel,
    ZeroOneModel,
)

LINEAR_FIT_TOL = 1e-7
SCREEN_TOL = 1e-7        # LP reduced cost that fixes a zero-one outcome at 0 or m*
PMAX_LP_TOL = 1e-9       # zero-one pattern minimum may exceed the LP minimum by this
ZERO_ONE_PATTERN_CAP = 208_896  # pattern systems with every outcome open at N = 12, k = 3
LOG_TOL = 1e-10          # log Newton's gradient norm, unless the caller sets tol
BRIER_ACTIVE_TOL = 1e-9  # |A'y| below this marks a weakly active outcome
BRIER_GAP_TOL = 1e-9     # largest duality gap a Brier solution may keep
FW_MAX_ITER = 100000     # conditional-gradient iterations
GENERIC_TOL = 1e-8       # certified gap of `solve_generic`, unless the caller sets tol
TILT_TOL = 1e-8          # certified gap of a natural tilt
GRID_TOL = 1e-6          # certified gap of a tilt on the conjugacy beta grid
KINK_TOL = 1e-3          # one-sided slopes further apart than this mark a kink of h
FW_SLOPE_RES = 1e-14     # pairwise slopes below this, relative, are float noise
DUALITY_TOL = 1e-9       # largest guarantee difference of `lp_game_value`'s strategies


class MaxIterExceeded(ArithmeticError):
    """Iterative solver ran out of iterations; carries the best iterate."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class TraceInvariantViolation(ArithmeticError):
    """A solved family violates concavity or conjugate-slope monotonicity."""


@dataclass(frozen=True)
class ActFamily:
    """One-parameter family of optimal acts: base + c * direction, c in [lo, hi]."""

    base: np.ndarray
    direction: np.ndarray
    lo: float
    hi: float

    def act(self, c: float) -> Act:
        if not (self.lo - 1e-12 <= c <= self.hi + 1e-12):
            raise ValueError(f"family parameter {c} outside [{self.lo}, {self.hi}]")
        return Act(ACT_DISTRIBUTION, self.base + c * self.direction)


@dataclass(frozen=True)
class SaddlePoint:
    """A solved saddle point of the game over Gamma_tau, as plain values.

    The record holds no vertex list and no loss vector: the CLI builds its
    own L(., zeta*) for a chunk of records at once and reads `is_equalizer`
    and `vertex_margin` off their vertex lists (`cli._vertex_checks`;
    `cli.vertex_columns` for one record).
    """

    tau: np.ndarray
    p_star: Distribution
    zeta_star: Act
    h_star: float
    beta0: float | None
    beta: np.ndarray | None
    is_linear: bool
    is_regular: bool
    tau_interior: bool
    bayes_margin: float
    gap: float
    method: str
    act_family: ActFamily | None = None


@dataclass(frozen=True)
class FamilyTrace:
    statistic: Statistic
    taus: np.ndarray            # (m, k)
    rows: tuple

    @property
    def m(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# shared helpers


class _Draft(NamedTuple):
    """A solved saddle point before its record: `_records` adds the checks.
    h is H(P*) on every route; hull is `_hull_class`'s class of tau."""

    g: GammaTau
    p_star: Distribution
    zeta: Act
    h: float
    beta0: float | None
    beta: np.ndarray | None
    gap: float
    method: str
    hull: str
    act_family: ActFamily | None = None


def _affine_fits(tmat: np.ndarray, ys: np.ndarray):
    """Least squares y(x) ~ b0 + beta' t(x) for every row y of ys (S, N) in
    one `lstsq_stack` call: ((b0, beta) per row, max residual per row), each
    row what a lone fit gives, bit for bit."""
    design = np.vstack([np.ones(tmat.shape[1]), tmat]).T
    sol = lstsq_stack(design, ys)[0]
    return sol[..., 0], np.abs(design @ sol - ys[..., None]).max(axis=(1, 2))


def _hull_class(g: GammaTau) -> str:
    """`_face`'s class of tau, which `g` has checked; Infeasible when tau is
    outside the hull."""
    hull = _face(g.statistic.matrix, g.tau)[0]
    if hull == "outside":
        raise Infeasible(f"tau={g.tau} outside the statistic hull")
    return hull


def _records(model: LossModel, statistic: Statistic, drafts: list) -> list:
    """The SaddlePoint of each draft, or the exception kept in its place.

    The loss vectors L(., zeta*) come from one `loss_matrix` call and the
    affine fits of the finite ones on [1; T], which decide `is_linear`, from
    one `_affine_fits` call for the whole list.  `is_regular`, the affine
    representation's residual on the support of P*, comes from one block of
    fitted values.  The Bayes margin |L(P*, zeta*) - H(P*)| reads H(P*) off
    the draft, and L(P*, zeta*) is `ext_dot`'s product over the charged
    outcomes, per tau, since a full-length dot can round differently; a row
    with a NaN loss, or an infinite one that P* charges, takes `ext_dot`
    itself.  Each tau keeps the first exception its own steps raise.
    """
    out, losses = list(drafts), {}
    live = [i for i, draft in enumerate(drafts) if not isinstance(draft, Exception)]
    for i, lv in zip(live, _loss_rows(model, [drafts[i].zeta for i in live])):
        if isinstance(lv, Exception):
            out[i] = lv
        else:
            losses[i] = lv
    linear = dict.fromkeys(losses, False)
    fit = [i for i, lv in losses.items() if np.isfinite(lv).all()]
    if fit:
        found, errors = _by_slice(lambda ys: _affine_fits(statistic.matrix, ys),
                                  np.array([losses[i] for i in fit]))
        for r, i in enumerate(fit):
            linear[i] = errors[r] if r in errors else found[1][r] <= LINEAR_FIT_TOL
    done = []
    for i in losses:
        if isinstance(linear[i], Exception):
            out[i] = linear[i]
        else:
            done.append(i)
    if not done:
        return out
    lvs = np.array([losses[i] for i in done])
    ps = np.array([drafts[i].p_star.w for i in done])
    regular = [False] * len(done)
    affine = [r for r, i in enumerate(done) if drafts[i].beta is not None]
    if affine:
        b0 = np.array([drafts[done[r]].beta0 for r in affine], float)
        betas = np.array([drafts[done[r]].beta for r in affine], float)
        p, lv = (ps, lvs) if len(affine) == len(done) else (ps[affine], lvs[affine])
        resid = np.where(p > 1e-9, np.abs(b0[:, None] + betas @ statistic.matrix - lv), 0.0)
        for r, ok in zip(affine, (resid.max(axis=1) <= LINEAR_FIT_TOL).tolist()):
            regular[r] = ok
    charged = ps != 0.0
    full = charged.all(axis=1).tolist()
    if np.isfinite(lvs).all():
        plain = [True] * len(done)
    else:
        plain = (~(np.isnan(lvs) | np.isinf(lvs) & charged).any(axis=1)).tolist()
    for r, i in enumerate(done):
        g, p_star, zeta, h, beta0, beta, gap, method, hull, act_family = drafts[i]
        if not plain[r]:
            bayes = attempt(ext_dot, p_star.w, lvs[r])
            if isinstance(bayes, Exception):
                out[i] = bayes
                continue
        elif full[r]:
            bayes = float(ps[r] @ lvs[r])
        else:
            bayes = float(ps[r, charged[r]] @ lvs[r, charged[r]])
        out[i] = SaddlePoint(
            tau=g.tau,
            p_star=p_star,
            zeta_star=zeta,
            h_star=float(h) + 0.0,   # + 0.0 folds -0.0 into 0.0
            beta0=None if beta is None else float(beta0) + 0.0,
            beta=None if beta is None else np.asarray(beta, float) + 0.0,
            is_linear=bool(linear[i]),
            is_regular=regular[r],
            tau_interior=hull == "interior",
            bayes_margin=float(abs(bayes - h)),
            gap=float(gap),
            method=method,
            act_family=act_family,
        )
    return out


# ---------------------------------------------------------------------------
# the game against point acts: one LP over Gamma_tau, or over the simplex


@dataclass(frozen=True)
class GameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    row_guarantee: float   # min over columns of the row strategy's payoff
    col_guarantee: float   # max over rows of the column strategy's payoff


def _point_act_game(tmat: np.ndarray, tau: np.ndarray, A: np.ndarray):
    """(value, p, zeta) of max over {p >= 0 : sum p = 1, T p = tau} of
    min_j p . A[:, j]: one `min_max_expectation` LP on the columns
    A.max() + 1 - A, each at least 1, so the level is at least 1 and the
    column weights zeta, its dual, sum to one for any A.  T with no rows
    stands for the whole simplex."""
    top = float(A.max()) + 1.0
    (found,) = min_max_expectation(tmat, tau[None], top - A)
    level, p, _, zeta = raised(found)
    zeta = np.maximum(zeta, 0.0)
    return top - level, p, zeta / zeta.sum()


def lp_game_value(payoff) -> GameSolution:
    """Value and optimal mixed strategies of a finite zero-sum game, the
    row player maximizing: `_point_act_game` over the simplex of rows.  The
    strategies certify themselves: raises ArithmeticError when
    col_guarantee - row_guarantee exceeds DUALITY_TOL * max(1, |value|)."""
    L = np.asarray(payoff, dtype=float)
    if L.ndim != 2:
        raise ValueError("payoff must be a matrix")
    if not np.all(np.isfinite(L)):
        raise ValueError("payoff entries must be finite")
    value, row, col = _point_act_game(np.zeros((0, L.shape[0])), np.zeros(0), L)
    row_guarantee = float((row @ L).min())
    col_guarantee = float((L @ col).max())
    if col_guarantee - row_guarantee > DUALITY_TOL * max(1.0, abs(value)):
        raise ArithmeticError(
            f"game strategies not optimal: column guarantee {col_guarantee!r}"
            f" above row guarantee {row_guarantee!r}"
        )
    return GameSolution(value, row, col, row_guarantee, col_guarantee)


def point_act_losses(model: LossModel) -> np.ndarray | None:
    """The matrix L[x, j] = L(x, e_j) of the point-mass acts, or None unless
    the model's loss is affine in a distribution act with a Bayes-act set
    (zero-one and its relative form) and every point act has finite losses.
    For those models the loss of a mixed act zeta is L @ zeta."""
    n = model.space.n
    if (model.act_kind != ACT_DISTRIBUTION
            or model.bayes_act_set(Distribution.uniform(n)) is None):
        return None
    # row j of the block is L(., e_j); the C-ordered copy keeps the column layout
    L = np.ascontiguousarray(model.loss_matrix(np.eye(n)).T)
    return L if np.all(np.isfinite(L)) else None


def point_act_saddle(g: GammaTau, L: np.ndarray):
    """(value, P*, zeta*) of the game of P in Gamma_tau against mixtures
    zeta of the point acts of L, P @ L @ zeta: `_point_act_game` on g."""
    return _point_act_game(g.statistic.matrix, g.tau, L)


# ---------------------------------------------------------------------------
# mixtures of laws: H(w V) - w . offset over the weight simplex


@dataclass
class _MixtureMax:
    weights: np.ndarray   # w, one weight per row of V (per outcome for point_act_saddle)
    point: np.ndarray     # the mixture w V
    value: float
    gap: float            # certified: the maximum lies in [value, value + gap]
    act: Act              # the column strategy, or the Bayes act of the mixture
    method: str           # "matrix-game" | "active-set" | "frank-wolfe"
    iterations: int = 0   # Frank-Wolfe's; 0 on the exact routes
    stalled: bool = False  # Frank-Wolfe stalled, or the active set hit its cap

    @property
    def how(self) -> str:
        if self.method == "active-set":
            return "at its working-set cap" if self.stalled else "at its KKT point"
        return "stalled" if self.stalled else f"after {self.iterations} iterations"


def _mixture_max(model: LossModel, V: np.ndarray, offset: np.ndarray,
                 tol: float) -> _MixtureMax:
    """Maximize H(w V) - w . offset over the weights w of the laws V (m, N),
    by the structure of the model read through `_unwrap` (a relative game
    takes its base's route):
    - a quadratic entropy (`_quadratic_form`: Brier, quadratic) exactly, by
      the active-set QP over the weight simplex (`_qp_maximize`);
    - a loss affine in a distribution act with a Bayes-act set (zero-one)
      exactly, by the matrix game V L - offset against the point acts, whose
      gap is its strategies' certificate, col_guarantee - row_guarantee;
    - any other loss by `_fw_maximize` to a gap of tol."""
    form = _quadratic_form(model)
    if form is not None:
        return _qp_maximize(model, V, offset, *form)
    L = point_act_losses(model)
    if L is None:
        return _fw_maximize(model, V, offset, tol)
    game = lp_game_value(V @ L - offset[:, None])
    w = game.row_strategy
    return _MixtureMax(w, w @ V, game.value,
                       max(0.0, game.col_guarantee - game.row_guarantee),
                       Act(ACT_DISTRIBUTION, game.col_strategy), "matrix-game")


def _quadratic_form(model: LossModel):
    """(a - r, B) when H(P) = P . a - |P B|^2 - P . r on the simplex, read
    through `_unwrap` (r a relative game's reference losses, else 0): Brier
    (a = 1, B = I) and quadratic (a = v^2, B = v as one column); else None."""
    base, r = _unwrap(model)
    if isinstance(base, BrierModel):
        return 1.0 - r, np.eye(base.space.n)
    if isinstance(base, QuadraticModel):
        v = base.values
        return v * v - r, v[:, None]
    return None


def _bayes_row(model: LossModel, p: np.ndarray) -> np.ndarray:
    """L(., zeta_p): one row of `model.bayes_losses` at a convex combination
    of checked laws, its float-noise negatives clamped to 0."""
    return model.bayes_losses(np.where(p < 0.0, 0.0, p)[None, :])[0]


def _dot(weights: np.ndarray, values: np.ndarray) -> float:
    """weights . values, with `ext_dot`'s 0 * inf = 0 when a value is infinite."""
    return float(weights @ values) if np.isfinite(values).all() else ext_dot(weights, values)


def _certificate(model: LossModel, V: np.ndarray, offset: np.ndarray,
                 w: np.ndarray, point: np.ndarray):
    """(s, w . s, gap) at the weights w with point = w V: the supergradient
    s = V . L(zeta_point) - offset of H(w V) - w . offset, and the gap
    max s - w . s, which bounds how far the maximum lies above the value."""
    scores = ext_dots(V, _bayes_row(model, point)) - offset
    current = _dot(w, scores)
    return scores, current, float(scores.max() - current)


def _mixture_result(model: LossModel, V: np.ndarray, offset: np.ndarray, w: np.ndarray,
                    point: np.ndarray, gap: float, method: str, iterations: int,
                    stalled: bool) -> _MixtureMax:
    """The _MixtureMax at w: the value evaluated once, the Bayes act built once."""
    value = float(model.entropy_batch(np.maximum(point, 0.0)[None, :])[0] - w @ offset)
    return _MixtureMax(w, point, value, gap, model.bayes_act(Distribution(point)),
                       method, iterations, stalled)


def _qp_maximize(model: LossModel, V: np.ndarray, offset: np.ndarray,
                 a: np.ndarray, B: np.ndarray) -> _MixtureMax:
    """Maximize H(w V) - w . offset for H(P) = P . a - |P B|^2: the concave
    quadratic w . (V a - offset) - |w V B|^2 over the weight simplex, by
    `_simplex.simplex_qp` ("active-set", 0 iterations), with
    `_certificate`'s gap.  `stalled` marks a run its working-set cap
    stopped; its gap is still certified."""
    w, capped = simplex_qp(V @ a - offset, V @ B)
    w /= w.sum()   # nonnegative already; the steps leave the sum off 1 by roundoff
    point = w @ V
    gap = _certificate(model, V, offset, w, point)[2]
    return _mixture_result(model, V, offset, w, point, gap, "active-set", 0, capped)


def _fw_maximize(model: LossModel, V: np.ndarray, offset: np.ndarray,
                 tol: float) -> _MixtureMax:
    """Maximize H(w V) - w . offset over the weight simplex by pairwise Frank-Wolfe.

    The supergradient coordinate of law i is E_{V_i} L(zeta) - offset_i, with
    zeta the Bayes act of the mixture w V (`_certificate`); its losses, and
    those of every line-search probe, are one row of `model.bayes_losses`
    at the point (`_bayes_row`), with plain dot products unless a loss is
    infinite (then `ext_dot`'s 0 * inf = 0).  The Bayes act itself is built
    once, at the returned weights.  Each step moves weight from the
    active law it likes least to the one it likes most, by the exact line
    search of Lacoste-Julien & Jaggi (2015): the root on [0, w_away] of the
    non-increasing slope along that pair.  No function values are compared;
    the value is evaluated once, at the returned weights.  The supergradient
    linearization bounds the suboptimality, so the returned gap certifies
    value accuracy.  The run stops at gap <= tol, after FW_MAX_ITER
    iterations, or stalls, with `stalled` set, when the pairwise direction
    has no positive slope within float resolution -- at a kink of a loss
    whose Bayes act is not unique, which `_mixture_max` hands to the matrix
    game instead.
    """
    m = V.shape[0]
    w = np.full(m, 1.0 / m)
    point = w @ V
    gap = np.inf
    stalled = False
    it = 0
    step = 1.0   # each line search first probes the previous step length
    for it in range(1, FW_MAX_ITER + 1):
        scores, current, gap = _certificate(model, V, offset, w, point)
        if gap <= tol:
            break
        fw = int(np.argmax(scores))
        active = np.flatnonzero(w > 0.0)
        away = int(active[np.argmin(scores[active])])
        rise = float(scores[fw] - scores[away])
        direction = V[fw] - V[away]
        d_offset = offset[fw] - offset[away]
        step = _slope_root(
            lambda t: _dot(direction, _bayes_row(model, point + t * direction)) - d_offset,
            rise, w[away], guess=step)
        if not (rise > FW_SLOPE_RES * max(1.0, abs(current)) and step > 0.0):
            stalled = True
            break
        w[fw] += step
        w[away] = 0.0 if w[away] - step < 1e-15 else w[away] - step
        w /= w.sum()
        point = w @ V
    return _mixture_result(model, V, offset, w, point, gap, "frank-wolfe", it, stalled)


# ---------------------------------------------------------------------------
# Brier solver: semismooth Newton on the dual, then the support rule


def _brier_grid(model: LossModel, statistic: Statistic, pairs: list) -> list:
    """Exact Brier saddle points from the (k+1)-dimensional dual.

    With A = [1; T] and b = [1; tau], P* = (A'y)_+ / 2 for the maximizer y
    of the concave, piecewise quadratic dual y'b - |(A'y)_+|^2 / 4, so the
    dual names the support of P* (`_brier_supports`: at most two).  On
    each, the entropy maximizer is the minimum-norm solution of
    {sum p = 1, T p = tau}; the first nonnegative one wins unless the
    second beats it by more than 1e-12.  The dual value bounds h from
    above, and a solution left further below the bound than BRIER_GAP_TOL
    raises NewtonDivergence.

    The grid runs one stacked `_separable_dual` for its (Gamma_tau, hull
    class) pairs, every support test in one pass (`_brier_scan`) and the
    multipliers stacked by support size.  Each pair gets its draft
    (`_records` makes the record) or the exception its own solve raises.
    """
    rows = np.vstack([np.ones(statistic.n), statistic.matrix])
    targets = np.ones((len(pairs), statistic.k + 1))
    targets[:, 1:] = [g.tau for g, _ in pairs]
    gen, mu = model.separable()
    y, _, _, found = _separable_dual(rows, targets, mu, gen)
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
        fits, errors = _by_slice(lstsq_stack, a_t, weights)   # (alpha, singular values)
        for r, j in enumerate(js):
            found[j] = errors[r] if r in errors else (*found[j], fits[0][r, :, 0], fits[1][r])
    return [found[j] if isinstance(found[j], Exception) else attempt(
        _brier_draft, g, hull, supports[j], *found[j]) for j, (g, hull) in enumerate(pairs)]


def _brier_draft(g: GammaTau, hull: str, supp: np.ndarray, h: float, p: np.ndarray,
                 alpha: np.ndarray, sv: np.ndarray) -> _Draft:
    """The Brier draft from P*, its value and the multipliers alpha of
    [1; T] on supp(P*), whose singular values there are `sv`: its rank is
    the count above RANK_TOL."""
    if np.count_nonzero(sv > RANK_TOL) == g.k + 1:
        beta = -2.0 * alpha[1:]
    else:
        beta = _brier_degenerate_beta(g, p, supp)
    beta0 = None if beta is None else h - float(beta @ g.tau)
    zeta = Act(ACT_DISTRIBUTION, p)
    return _Draft(g, Distribution(p), zeta, h, beta0, beta, 0.0, "brier-enum", hull)


def _brier_scan(rows: np.ndarray, targets: np.ndarray, y: np.ndarray, found: dict) -> None:
    """The support test of `_brier_grid` for every row of targets that
    `found` does not hold yet, given the dual maximizers y: found[row]
    becomes (h, P*) or the exception the test raised.

    Every support that `_brier_supports` names for every row is tested in
    one pass, one `support_solutions` call per support size.  A row keeps
    its first support that passes unless the second beats it by more than
    1e-12, and one left further below the dual bound than BRIER_GAP_TOL, or
    with none that passes, gets NewtonDivergence.
    """
    n, k = rows.shape[1], rows.shape[0] - 1
    h_up, tests, by_size = {}, {}, {}
    for j in range(len(targets)):
        if j not in found:
            s = rows.T @ y[j]
            pos = np.maximum(s, 0.0)
            h_up[j] = 1.0 - float(y[j] @ targets[j]) + 0.25 * float(pos @ pos)   # weak duality
            supports = _brier_supports(s, k)
            tests[j] = [None] * len(supports)
            for i, supp in enumerate(supports):
                by_size.setdefault(len(supp), []).append((j, i, supp))
    for batch in by_size.values():
        js = [j for j, _, _ in batch]
        a = rows.T[np.array([supp for _, _, supp in batch])].transpose(0, 2, 1)
        tested, errors = _by_slice(support_solutions, a, targets[js])
        if tested is not None:
            passes, sols = tested[0].tolist(), np.where(tested[1] < 0.0, 0.0, tested[1])
        for r, (j, i, supp) in enumerate(batch):
            if r in errors:
                tests[j][i] = errors[r]
            elif passes[r]:
                p = np.zeros(n)
                p[list(supp)] = sols[r]
                tests[j][i] = (1.0 - float(p @ p), p)
    for j, results in tests.items():
        best = None
        for won in results:
            if isinstance(won, Exception):
                best = won
                break
            if won is not None and (best is None or won[0] > best[0] + 1e-12):
                best = won
        if best is None or not isinstance(best, Exception) and h_up[j] - best[0] > BRIER_GAP_TOL:
            best = NewtonDivergence(f"Brier dual left a duality gap above {BRIER_GAP_TOL:g}")
        found[j] = best


def _brier_supports(s: np.ndarray, k: int) -> list:
    """The supports the scan tests, given A'y = s: the dual support {s > eps}
    with the weakly active {|s| <= eps}, or, when those are at most k+1
    outcomes, the dual support padded to min(k+1, N) outcomes with the lowest
    of {s <= eps}; then {s > 0}, the support of (A'y)_+ / 2, if it differs.
    """
    eps = BRIER_ACTIVE_TOL * max(1.0, float(np.max(np.abs(s))))
    first = np.flatnonzero(s >= -eps)
    if first.size <= k + 1:
        dual = np.flatnonzero(s > eps)
        first = np.union1d(dual, np.flatnonzero(s <= eps)[:min(k + 1, s.size) - dual.size])
    supports = [tuple(first.tolist()), tuple(np.flatnonzero(s > 0.0).tolist())]
    return supports[:1] if supports[1] in ((), supports[0]) else supports


def _brier_degenerate_beta(g: GammaTau, p: np.ndarray, supp: np.ndarray):
    """Stationarity multipliers when the support does not pin beta.

    Conditions: 2 p(x) + beta' t(x) = nu on the support and beta' t(x) >= nu
    off it.  For k = 1 the feasible set is an interval; the endpoint nearest
    zero (the one-sided slope of h) is the canonical choice.
    """
    if g.k != 1:
        return None
    off = np.ones(g.n, dtype=bool)
    off[supp] = False
    dt = g.statistic.matrix[0, off] - float(g.tau[0])
    # rows dt * beta >= 2 mean p on supp(P*) >= 2/N: an excluded outcome on
    # the constraint face (dt = 0) leaves it empty
    bounds = _interval(dt, np.full(dt.size, 2.0 * float(p[supp].mean())))
    if bounds is None or bounds[0] > bounds[1] + 1e-12:
        return None
    lower, upper = bounds
    if lower <= 0.0 <= upper:
        val = 0.0
    else:
        val = lower if lower > 0.0 else upper
    return np.array([val])


# ---------------------------------------------------------------------------
# log solver: damped Newton on the dual; faces take the separable dual


def _log_grid(model: LossModel, statistic: Statistic, pairs: list, tol: float) -> list:
    """Log-loss saddle points: Newton on kappa(beta) + beta' tau.

    Interior tau with affinely independent rows runs Newton to `tol`
    ("log-newton").  Boundary tau, and rows affinely dependent over the
    outcomes (their covariance is singular everywhere), go to the separable
    dual of psi(s) = s log s (`_separable_draft`, "log-face"), which runs
    to DUAL_TOL and leaves beta absent.

    The grid takes `_brier_grid`'s pairs and returns as it does.  It runs
    one stacked `_newton_tilt` for the interior taus and `_separable_draft`
    per tau for the others.  The rank of [1; T] and the F-ordered copy of T
    that Newton runs on do not depend on tau, so they are taken once.
    """
    n = statistic.n
    # an F-ordered copy: Newton's iterates depend on the memory layout
    tmat = statistic.matrix[:, np.arange(n)]
    newton = [i for i, (_, hull) in enumerate(pairs) if hull == "interior"]
    if newton and np.linalg.matrix_rank(
            np.vstack([np.ones(n), tmat]), tol=RANK_TOL) <= statistic.k:
        newton = []
    out = [None if newton and hull == "interior" else attempt(
        _separable_draft, model, model, np.zeros(n), g, hull, "log-face") for g, hull in pairs]
    if newton:
        beta, kappa, q, norms, failed = _newton_tilt(
            model.base.weights, tmat, np.array([pairs[i][0].tau for i in newton]), tol)
        for j, i in enumerate(newton):
            out[i] = failed[j] if j in failed else attempt(
                _log_draft, model, *pairs[i], beta[j], kappa[j], q[j], norms[j])
    return out


def _log_draft(model: LossModel, g: GammaTau, hull: str, beta: np.ndarray,
               kappa, p: np.ndarray, grad_norm) -> _Draft:
    """The log-newton draft from Newton's beta, kappa(beta) and tilted law."""
    p_star = Distribution(p)
    zeta = Act(ACT_DENSITY, p / model.base.weights)
    return _Draft(g, p_star, zeta, model.entropy(p_star), float(kappa), beta, grad_norm,
                  "log-newton", hull)


# ---------------------------------------------------------------------------
# zero-one solver: an LP screen, then exact patterns


def _zero_one_grid(statistic: Statistic, pairs: list) -> list:
    """Zero-one saddle points: an LP screen, then exact patterns.

    Phase 1 minimizes the maximum coordinate over Gamma_tau: one LP fixes
    the outcomes that every minimizer puts at 0 or at the maximum, and the
    (mode set, zero set, free set) pattern systems run on the rest.
    Phase 2 solves 1 - zeta(x) = beta0 + beta' t(x) across the support of P*
    with zeta supported on the modes; a one-parameter family is resolved by
    the equalizer rule, then by proximity to the uniform act, subject to the
    supporting-hyperplane constraints on (beta0, beta).  Where that system
    pins no act (it is inconsistent, its family has two or more parameters,
    or no member meets the constraints) or its act misses the simplex by
    more than NORM_TOL (tau at a hull vertex), zeta* is phase 1's LP dual,
    the point-act game's act, and beta is absent.

    The grid takes `_brier_grid`'s pairs and returns as it does.  It runs
    phase 1 (`_min_pmax`) and phase 2 (`_zero_one_acts`) each for the whole
    list.
    """
    out = _min_pmax(statistic, [g.tau for g, _ in pairs])
    solved = [i for i, phase1 in enumerate(out) if not isinstance(phase1, Exception)]
    acts = _zero_one_acts(statistic, [pairs[i][0] for i in solved],
                          [out[i][1] for i in solved], [out[i][0] for i in solved])
    for i, act in zip(solved, acts):
        out[i] = act if isinstance(act, Exception) else attempt(
            _zero_one_draft, *pairs[i], out[i][1], out[i][2], act)
    return out


def _zero_one_draft(g: GammaTau, hull: str, p: np.ndarray, weights: np.ndarray,
                    act) -> _Draft:
    """The zero-one draft from phase 1's P* and LP dual weights and phase 2's act."""
    h = 1.0 - float(p.max())   # the optimizer's value can carry solve noise
    if act is None or abs(float(act[0].sum()) - 1.0) > NORM_TOL:
        # the LP's columns are the identity, top - L of the point-act game
        zeta = np.maximum(weights, 0.0)
        act = zeta / zeta.sum(), None, None, None
    zeta, beta0, beta, family = act
    return _Draft(g, Distribution(p), Act(ACT_DISTRIBUTION, zeta), h, beta0, beta, 0.0,
                  "zero-one-enum", hull, family)


def _min_pmax(statistic: Statistic, taus) -> list:
    """Minimize max_x p(x) over Gamma_tau for each tau of `taus`: one LP per
    tau screens, exact patterns decide.  The LPs of all the taus run in
    lockstep, one `_pmax_lp` call on the stack of taus.

    The LP in (p, m, s) with p_x - m + s_x = 0, sum p = 1 and T p = tau
    gives the minimum m* and the reduced costs of its final basis.  By
    complementary slackness, which holds for any optimal dual, a positive
    reduced cost on p_x makes x zero in every minimizer, and one on s_x makes
    p_x = m* in every minimizer.  The pattern systems (members at level m,
    free outcomes below it, zeros elsewhere) then run with members holding
    every forced mode outside the free set and no forced zero; free sets
    still range over all outcomes.  Each block of them (`_pattern_systems`)
    takes one exact test (`support_solutions`, then free weights at most
    m + 1e-9).  A pattern minimum above the LP value is an error, not a
    reason to enumerate more.

    The systems depend on tau only through the LP's (zero, mode) masks, so
    the taus the LP screens alike share them: each block is solved against
    the stacked targets [1; tau] of a chunk of those taus, a chunk holding as
    many as keep a call within SYSTEM_BLOCK systems, and every solution is
    the one a single tau gets.  An exception in a chunk's exact tests is
    every one of its taus'.

    The loop is fast when the LP leaves few outcomes open; ties in the
    statistic leave many minimizers and so many open outcomes.  It runs
    sum over free sets F of 2^|open - F| systems, and more than
    ZERO_ONE_PATTERN_CAP of them raise CombinatorialBlowup.  Returns, per
    tau, (m*, P*, the LP's dual weights on its columns) or the exception
    phase 1 raised there.
    """
    n, k = statistic.n, statistic.k
    tmat = statistic.matrix
    found = _pmax_lp(tmat, np.array(taus))
    live = [i for i, screen in enumerate(found) if not isinstance(screen, Exception)]
    groups = {}
    for i in live:
        zero, mode = found[i][1], found[i][2] > SCREEN_TOL
        groups.setdefault((zero.tobytes(), mode.tobytes()), (zero, mode, []))[2].append(i)
    for zero, mode, idx in groups.values():
        n_open = n - int(np.count_nonzero(zero | mode))
        systems = sum(comb(n_open, j) * comb(n - n_open, f - j) << (n_open - j)
                      for f in range(k + 1) for j in range(min(f, n_open) + 1))
        if systems > ZERO_ONE_PATTERN_CAP:
            for i in idx:
                found[i] = CombinatorialBlowup(
                    f"zero-one phase 1 needs {systems} pattern systems ({n_open} outcomes "
                    f"left open by the LP); the cap is {ZERO_ONE_PATTERN_CAP}")
            continue
        per = max(1, SYSTEM_BLOCK // systems)
        for lo in range(0, len(idx), per):
            chunk = idx[lo:lo + per]
            pools = attempt(_pattern_pools, tmat, zero, mode, [taus[i] for i in chunk])
            for j, i in enumerate(chunk):
                found[i] = pools if isinstance(pools, Exception) else attempt(
                    _pmax_pick, taus[i], found[i], *pools[j])
    return found


def _pattern_pools(tmat: np.ndarray, zero, mode, taus) -> list:
    """(levels, points) of the candidates that pass the exact test, in loop
    order, for each tau of `taus`; each block of `_pattern_systems` is solved
    against all their targets [1; tau] in one `support_solutions` call, one
    tau being a one-row stack."""
    k = tmat.shape[0]
    target = np.ones((len(taus), 1, k + 1))
    target[:, 0, 1:] = taus
    owners, levels, points = [], [], []
    for free, members, a in _pattern_systems(tmat, zero, mode, k):
        passes, sol, _ = support_solutions(a, target)
        m, pf = sol[..., 0], sol[..., 1:]
        keep = passes & (pf.max(axis=-1, initial=-np.inf) <= m + 1e-9)
        owner, s = keep.nonzero()
        level = np.where(m < 0.0, 0.0, m)[keep]
        p = np.where(members[s], level[:, None], 0.0)
        p[np.arange(s.size)[:, None], free[s]] = np.where(pf < 0.0, 0.0, pf)[keep]
        owners.append(owner)
        levels.append(level)
        points.append(p)
    # group by tau, each tau's in loop order
    owner = np.concatenate(owners)
    order = owner.argsort(kind="stable")
    level, p = np.concatenate(levels)[order].tolist(), np.concatenate(points)[order]
    ends = np.bincount(owner, minlength=len(taus)).cumsum().tolist()
    return [(level[lo:hi], p[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def _pmax_pick(tau: np.ndarray, screen, levels: list, points):
    """(m*, P*, weights) from one tau's candidates (their levels, and their
    points, one row each) and its LP screen (LP minimum, forced
    zeros, weights): the least level, checked against the LP minimum, and
    among the candidates within 1e-12 of it the first by a stable sort."""
    if not levels:
        raise Infeasible(f"Gamma_tau empty for tau={tau}")
    lp_value, _, weights = screen
    m_star = min(levels)
    if m_star > lp_value + PMAX_LP_TOL:
        raise ArithmeticError(
            f"zero-one patterns reach {m_star!r}, above the LP minimum {lp_value!r}")
    pool = [p for m, p in zip(levels, points) if m <= m_star + 1e-12]
    # deterministic representative: maximal quadratic entropy, then lex order
    pool.sort(key=lambda p: (float(p @ p), tuple(np.round(p, 12))))
    return m_star, pool[0], weights


def _pmax_lp(tmat: np.ndarray, taus: np.ndarray) -> list:
    """min m over Gamma_tau with p <= m for each row of taus (S, k), one
    stacked `min_max_expectation` with the identity as columns, the LPs in
    lockstep; returns, per row, (m*, forced zeros, the columns' dual
    weights), a weight above SCREEN_TOL forcing a mode, or the exception
    raised there."""
    return [res if isinstance(res, Exception) else (res[0], res[2] > SCREEN_TOL, res[3])
            for res in min_max_expectation(tmat, taus, np.eye(tmat.shape[1]))]


def _pattern_systems(tmat, zero, mode, k):
    """Blocks of (free sets, member masks, system matrices) of the pattern
    systems, in loop order.

    Free sets of each size come in combinations order; the member sets of one
    free set are its forced modes plus each subset of the open outcomes outside
    it, in increasing bit-mask order over the open outcomes (the subsets that
    miss the free set keep their order when its bits are dropped), empty sets
    skipped.  The representative sort in `_min_pmax` is stable, so this order
    breaks exact ties.  A block holds at most SYSTEM_BLOCK systems, or the
    member sets of one free set where those are more.
    """
    n = tmat.shape[1]
    rows = np.vstack([np.ones(n), tmat])
    open_idx = np.flatnonzero(~(zero | mode))
    picks = np.zeros((1 << open_idx.size, n), dtype=bool)      # one row per bit mask
    picks[:, open_idx] = np.arange(picks.shape[0])[:, None] >> np.arange(open_idx.size) & 1
    per_block = max(1, SYSTEM_BLOCK >> open_idx.size)
    for f_size in range(k + 1):
        combos = combinations(range(n), f_size)
        while block := list(islice(combos, per_block)):
            free = np.array(block, dtype=np.intp).reshape(len(block), f_size)
            in_free = np.zeros((free.shape[0], n), dtype=bool)
            in_free[np.arange(free.shape[0])[:, None], free] = True
            members = picks[None] | (mode & ~in_free)[:, None]          # (F, S, n)
            ok = ~(picks[None] & in_free[:, None]).any(axis=2) & members.any(axis=2)
            fi, si = np.nonzero(ok)          # free-set order, then mask order
            members, free_of = members[fi, si], free[fi]
            a = np.empty((fi.size, k + 1, 1 + f_size))
            a[:, :, 0] = members @ rows.T
            a[:, :, 1:] = rows.T[free_of].transpose(0, 2, 1)
            yield free_of, members, a


def _zero_one_acts(statistic: Statistic, gammas: list, points: list, levels: list) -> list:
    """(zeta, beta0, beta, family) from the act system across supp(P*) for
    each Gamma_tau, P* and m* of the lists; None where it pins no act (it is
    inconsistent, its null space has two or more dimensions, or no member of
    its one-parameter family meets the supporting-hyperplane constraints);
    or the exception raised there.

    The systems of one shape are solved in one `lstsq_stack` call, whose
    singular values s give the rank (those above 1e-10 s_0); those of them
    with a one-parameter family (d = 1) take its direction, the last right
    singular vector, from one stacked SVD.  Each slice is what a lone call
    gives, bit for bit.  A family's constraints run per tau
    (`_family_bounds`), and the families that reach their pick take their
    vertex lists from one `vertex_lists` call.
    """
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
        families = []
        for r, i in enumerate(idx):
            if r in errors:
                out[i] = errors[r]
                continue
            v0, s = solved[0][r, :, 0], solved[1][r]
            if np.max(np.abs(a[r] @ v0 - b[r])) > 1e-8:
                continue
            # relative, unlike RANK_TOL: golden acts rest on it
            d = a.shape[2] - int((s > 1e-10 * s[0]).sum())
            if d == 0:
                zeta, beta0, beta = _unpack(v0, systems[i][1], n)
                out[i] = np.maximum(zeta, 0.0), beta0, beta, None
            elif d == 1:
                families.append(r)
        if not families:
            continue
        for r, col in zip(families, np.linalg.svd(a[families])[2][:, -1]):
            i, v0 = idx[r], solved[0][r, :, 0]
            charged, modes, _ = systems[i]
            bounds = attempt(_family_bounds, gammas[i], v0, col, modes, charged)
            if isinstance(bounds, tuple):
                picks[i] = v0, col, modes, *bounds
            else:
                out[i] = bounds
    if picks:
        lists = attempt(vertex_lists, statistic, np.array([gammas[i].tau for i in picks]))
        for j, (i, family) in enumerate(picks.items()):
            vs = lists if isinstance(lists, Exception) else lists[j]
            out[i] = vs if isinstance(vs, Exception) else attempt(_family_act, vs, *family)
    return out


def _unpack(vec: np.ndarray, modes: np.ndarray, n: int):
    """(zeta, beta0, beta) from a solution of the act system."""
    zeta = np.zeros(n)
    zeta[modes] = vec[:modes.size]
    return zeta, float(vec[modes.size]), vec[modes.size + 1:]


def _family_bounds(g: GammaTau, v0: np.ndarray, col: np.ndarray, modes: np.ndarray,
                   charged: np.ndarray):
    """The interval [lo, hi] of the coefficients c whose act v0 + c col meets
    the feasibility constraints coef * c >= rhs, or None where it is empty."""
    n, m = g.n, modes.size
    tmat = g.statistic.matrix
    coefs, rhs = [col[:m]], [-v0[:m] - 1e-12]   # zeta >= 0
    if g.k == 1:
        # beta0 + beta * sigma >= h(sigma) for every sigma iff beta0 >= chi(beta),
        # and chi(beta) is attained at a uniform law on a prefix of t, sorted up
        # for beta > 0 or down for beta < 0, where 1 - max p = 1 - 1/size
        ts, sizes = np.sort(tmat[0]), np.arange(1.0, n + 1.0)
        sigmas = np.concatenate([np.cumsum(ts), np.cumsum(ts[::-1])]) / np.tile(sizes, 2)
        coefs.append(col[m] + sigmas * col[m + 1])
        rhs.append(np.tile(1.0 - 1.0 / sizes, 2) - (v0[m] + sigmas * v0[m + 1]) - 1e-9)
    # outcomes off supp(P*) but reachable within Gamma_tau score L = 1; a
    # worst-case member there must not beat the affine value beta0 + beta' t
    reachable = np.zeros(n, dtype=bool)
    reachable[union_support(g)] = True
    t_off = tmat[:, reachable & ~charged].T
    coefs.append(col[m] + _dots(t_off, col[m + 1:]))
    rhs.append(1.0 - (v0[m] + _dots(t_off, v0[m + 1:])) - 1e-9)
    bounds = _interval(np.concatenate(coefs), np.concatenate(rhs))
    return None if bounds is None or bounds[0] > bounds[1] else bounds


def _interval(coefs: np.ndarray, rhs: np.ndarray):
    """The interval (lo, hi) of the c with coef * c >= rhs on every row of
    (coefs, rhs): lo the largest rhs / coef over coef > 1e-12 (-inf if
    none), hi the smallest over coef < -1e-12 (inf if none); None when a row
    with |coef| <= 1e-12 asks rhs > 1e-9, which no c meets."""
    up, down = coefs > 1e-12, coefs < -1e-12
    if np.any(rhs[~(up | down)] > 1e-9):
        return None
    return (float(np.max(rhs[up] / coefs[up], initial=-np.inf)),
            float(np.min(rhs[down] / coefs[down], initial=np.inf)))


def _family_act(vs, v0: np.ndarray, col: np.ndarray, modes: np.ndarray, lo, hi):
    """(zeta, beta0, beta, family) at the family coefficient in [lo, hi] of
    the equalizer member over the vertices `vs` if one exists, else of the
    member nearest to the uniform act."""
    n = vs.points.shape[1]
    zeta0, _, _ = _unpack(v0, modes, n)
    zdir = np.zeros(n)
    zdir[modes] = col[:modes.size]
    vals0 = vs.points @ zeta0
    dirs = vs.points @ zdir
    # want vals0 + c * dirs constant across vertices
    dv = dirs - dirs[0]
    db = vals0 - vals0[0]
    mask = np.abs(dv) > 1e-12
    c = None
    if mask.any():
        c_eq = float((-db[mask] / dv[mask])[0])
        if np.max(np.abs(db + c_eq * dv)) <= 1e-9 and lo - 1e-12 <= c_eq <= hi + 1e-12:
            c = min(max(c_eq, lo), hi)
    if c is None:
        # all members equalize (or none can): minimize distance to uniform
        denom = float(zdir @ zdir)
        c_ls = 0.0 if denom <= 1e-18 else float((np.full(n, 1.0 / n) - zeta0) @ zdir / denom)
        c = min(max(c_ls, lo), hi)
    zeta, beta0, beta = _unpack(v0 + c * col, modes, n)
    family = None
    if float(np.max(np.abs(col[:modes.size]))) > 1e-9:
        family = ActFamily(base=np.maximum(zeta, 0.0), direction=zdir,
                           lo=float(lo - c), hi=float(hi - c))
    return np.maximum(zeta, 0.0), beta0, beta, family


# ---------------------------------------------------------------------------
# separable Bregman solver: the dual of the generalized exponential family


def _separable_draft(model: LossModel, base: LossModel, r: np.ndarray, g: GammaTau,
                     hull: str, method: str) -> _Draft:
    """The saddle of H(P) = H_base(P) - P . r over Gamma_tau, by the separable dual.

    Bregman models and relative games over a separable base (`_unwrap`:
    Brier, log or Bregman, with r the reference losses) run it as
    "bregman-dual", and the log solver at its faces as "log-face".

    P*(x) = mu(x) (psi')^-1(max(psi'(0), lambda0 - beta' t(x) - r(x))), where
    (lambda0, -beta) maximizes the dual of `_separable_dual` over the
    outcomes some member of Gamma_tau charges (every outcome for interior
    tau, else `union_support`); the others carry no mass, which also covers
    boundary tau and generators with psi'(0) = -inf.  Those outcomes may
    reach tau only within CONSISTENCY_TOL (a hull face, a zero statistic
    row), so the dual aims at tau's projection onto the span of their rows,
    and the gap is the residual against tau itself.  beta is absent when
    the rows restricted to them have rank <= k, read off the singular
    values of that one `lstsq_stack` solve (those above RANK_TOL).
    """
    idx = np.arange(g.n) if hull == "interior" else union_support(g)
    rows = np.vstack([np.ones(idx.size), g.statistic.matrix[:, idx]])
    target = np.concatenate([[1.0], g.tau])
    sol, sv = lstsq_stack(rows, target)
    aim = rows @ sol[:, 0]
    aim = aim / aim[0]
    gen, mu = base.separable()
    y, p_idx, norm, failed = _separable_dual(rows, aim[None], mu[idx], gen, r[idx])
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
    if np.count_nonzero(sv > RANK_TOL) == g.k + 1:
        beta = -y[1:]
        beta0 = h - float(beta @ g.tau)
    zeta = base.bayes_act(p_star)
    return _Draft(g, p_star, zeta, h, beta0, beta, norm, method, hull)


# ---------------------------------------------------------------------------
# generic solver: the point-act LP over Gamma_tau, else `_mixture_max` over the vertices


def solve_generic(model: LossModel, g: GammaTau, tol: float = GENERIC_TOL) -> SaddlePoint:
    """Maximize H over Gamma_tau: `_generic_draft` and its record.

    Losses affine in a distribution act whose Bayes act is a set (zero-one
    and its relative form) are solved exactly by the game of Gamma_tau
    against point-mass acts, one LP (`point_act_saddle`, "matrix-game"),
    with gap sup over Gamma_tau of L(P, zeta*) minus min_j P* . L(e_j).
    Other losses (from `solve`: the non-separable ones, quadratic and
    custom) run `_mixture_max` over the vertices: quadratic loss, Brier
    and their relative games the exact active-set QP ("active-set"), the
    others pairwise conditional gradient with the Bayes act's losses at P
    as supergradient ("frank-wolfe"), so a kinked loss must expose
    `bayes_act_set`.  A gap above tol raises MaxIterExceeded.
    """
    return raised(_records(model, g.statistic,
                           [_generic_draft(model, g, _hull_class(g), tol)])[0])


def _generic_draft(model: LossModel, g: GammaTau, hull: str, tol: float) -> _Draft:
    """The draft of `solve_generic`, given `_hull_class`'s class of tau."""
    L = point_act_losses(model)
    if L is None:
        vs = vertices(g)
        res = _mixture_max(model, vs.points, np.zeros(vs.m), tol)
    else:
        value, p, zeta = point_act_saddle(g, L)
        gap = max(0.0, max_expectation(g, L @ zeta) - float((p @ L).min()))
        res = _MixtureMax(p, p, value, gap, Act(ACT_DISTRIBUTION, zeta), "matrix-game")
    if res.gap > tol:
        raise MaxIterExceeded(f"{res.method} {res.how} with gap {res.gap:.3e}", res)
    p = np.maximum(res.point, 0.0)
    p = p / p.sum()
    dist = Distribution(p)
    h = model.entropy(dist)
    lv = model.loss_vector(res.act)
    supp = dist.support(1e-9)
    beta = beta0 = None
    if np.all(np.isfinite(lv[supp])):
        sol, resid = _affine_fits(g.statistic.matrix[:, supp], lv[supp][None])
        if resid[0] <= LINEAR_FIT_TOL and supp.size >= g.k + 1:
            beta = sol[0, 1:]
            beta0 = h - float(beta @ g.tau)
    return _Draft(g, dist, res.act, h, beta0, beta, res.gap, res.method, hull)


# ---------------------------------------------------------------------------
# dispatch and derived quantities


def _unwrap(model: LossModel):
    """(base, r): a relative model's entropy is its base's minus P . r."""
    r = np.zeros(model.space.n)
    while isinstance(model, RelativeModel):
        model, r = model.base, r + model.reference_losses
    return model, r


def _solve_each(model: LossModel, statistic: Statistic, gammas: list,
                tol: float | None) -> list:
    """The saddle point of each entry of `gammas` (a Gamma_tau of
    `statistic`, or the exception that building it raised), routed by the
    model's mathematical structure, in three steps:

    1. `_hull_class` runs once per Gamma_tau; its Infeasible, like a build
       error, is kept in place.
    2. The route solves the live (Gamma_tau, hull class) pairs and returns
       one draft, or the exception its solve raised, per pair; no route
       runs when no pair is live.  Brier, log and zero-one models run a
       grid solver of their own (`_brier_grid`, `_log_grid`,
       `_zero_one_grid`), any other model with a separable base (`_unwrap`)
       the separable dual per tau (`_separable_draft`), and the rest
       `solve_generic`'s route per tau (quadratic and relative quadratic
       the active-set QP over the vertices, custom models Frank-Wolfe).  `tol` stops the log
       solver and Frank-Wolfe; the exact solvers ignore it.
    3. The drafts go back in grid order and take one `_records` pass, so
       each entry gets its SaddlePoint or the exception its solve raised.
    """
    out = [attempt(_hull_class, g) if isinstance(g, GammaTau) else g for g in gammas]
    live = [i for i, hull in enumerate(out) if isinstance(hull, str)]
    pairs = [(gammas[i], out[i]) for i in live]
    if not pairs:
        drafts = []
    elif isinstance(model, ZeroOneModel):
        drafts = _zero_one_grid(statistic, pairs)
    elif isinstance(model, BrierModel):
        drafts = _brier_grid(model, statistic, pairs)
    elif isinstance(model, LogModel):
        drafts = _log_grid(model, statistic, pairs, LOG_TOL if tol is None else tol)
    else:
        base, r = _unwrap(model)
        if base.separable() is not None:
            drafts = [attempt(_separable_draft, model, base, r, g, hull, "bregman-dual")
                      for g, hull in pairs]
        else:
            tol = GENERIC_TOL if tol is None else tol
            drafts = [attempt(_generic_draft, model, g, hull, tol) for g, hull in pairs]
    for i, draft in zip(live, drafts):
        out[i] = draft
    return _records(model, statistic, out)


def solve(model: LossModel, g: GammaTau, tol: float | None = None) -> SaddlePoint:
    """The saddle point of the game over Gamma_tau: `_solve_each` on [g]."""
    return raised(_solve_each(model, g.statistic, [g], tol)[0])


def solve_grid(model: LossModel, statistic: Statistic, taus,
               tol: float | None = None) -> list:
    """`solve` at each row tau of `taus`, in order: what
    solve(model, GammaTau(statistic, tau), tol) returns, or the exception it
    raises, bit for bit, from one `_solve_each` call.

    A zero-one model runs phase 1 for the whole grid, so the taus the LP
    screens alike share one exact test per block of pattern systems.  A
    Brier model runs one stacked dual Newton for the grid, then one exact
    test per support size for the at most two supports of every tau; a log
    model runs one stacked Newton for its interior taus.
    """
    return _solve_each(model, statistic, [attempt(GammaTau, statistic, tau) for tau in taus],
                       tol)


def specific_entropy(model: LossModel, statistic: Statistic, tau) -> float:
    """h(tau) = sup over Gamma_tau of H(P); -inf when Gamma_tau is empty."""
    try:
        return solve(model, GammaTau(statistic, tau)).h_star
    except Infeasible:
        return float("-inf")


@dataclass(frozen=True)
class TiltResult:
    beta: np.ndarray
    q: Distribution
    chi: float
    gap: float
    method: str


def natural_tilt(model: LossModel, statistic: Statistic, beta) -> TiltResult:
    """argmax over the full simplex of H(P) - beta' E_P T, with chi(beta).

    Routed by the model's structure:
    - a separable entropy (`LossModel.separable()`: Brier, log, Bregman)
      solves the one-dimensional dual of the tilt (`method`
      "separable-dual");
    - a point-act matrix L = u 1' - I, i.e. H(P) = P . u - max p (zero-one,
      u = 1), is solved in closed form by one sort of T' beta - u
      ("closed-form");
    - any other loss affine in a distribution act with a Bayes-act set is
      solved exactly by the matrix game over point-mass acts
      ("matrix-game");
    - a quadratic loss, H(P) = P . v^2 - (P . v)^2, and its relative
      game are solved exactly by the active-set QP over the point masses
      ("active-set");
    - every other loss runs pairwise conditional gradient with supergradient
      L(., zeta_P) - beta' t(.), up to FW_MAX_ITER iterations
      ("frank-wolfe").
    `gap` is a certified bound: the maximum lies in [chi, chi + gap].  It
    is the Fenchel duality gap for the separable dual and the closed form,
    the strategies' certificate col_guarantee - row_guarantee for the
    matrix game, and the supergradient gap for the QP and Frank-Wolfe.  A
    gap above TILT_TOL raises MaxIterExceeded whose `result` is the
    TiltResult, on every route.  For the log model the
    closed-form cumulant log sum mu exp(-beta' t) is an independent
    cross-check on chi.  A relative model, H(P) minus the expected loss of
    a reference act, takes its base model's route.
    """
    beta = np.atleast_1d(np.asarray(beta, float))
    return _tilts(model, statistic, beta[None, :], TILT_TOL)[0]


def _tilts(model: LossModel, statistic: Statistic, betas: np.ndarray,
           tol: float) -> list:
    """`natural_tilt` at every row of betas (m, k), one TiltResult each."""
    q, chi, gaps, methods = _tilt_arrays(model, statistic, betas, tol)
    return [TiltResult(beta=beta, q=Distribution.of_checked(row), chi=float(c),
                       gap=float(gap), method=method)
            for beta, row, c, gap, method in zip(betas, q, chi, gaps, methods)]


def _tilt_arrays(model: LossModel, statistic: Statistic, betas: np.ndarray,
                 tol: float):
    """The tilts of `_tilts` as arrays: q (m, N), a frozen block of checked
    rows, chi (m,), the gaps (m,) and one method per row.

    A separable model solves all rows at once by the one-dimensional dual
    (`_separable_tilts`), and a model with H(P) = P . u - max p in closed
    form (`_top_tilts`); each returns a dual bound D on chi, so D - chi is
    the gap.  Other models take one `_mixture_max` per row, the matrix game,
    the active-set QP or Frank-Wolfe over the point masses, whose gap is
    its own.  Every reduction runs row by row (einsum, not a BLAS product),
    so a row's tilt does not depend on the other rows of the grid.  On every route the
    first row whose gap is above tol raises MaxIterExceeded carrying that
    row's TiltResult.

    A relative model tilts on its base model's route (`_unwrap`): H(P) - P . r
    tilted by beta is the base chi with shift T' beta + r.
    """
    shifts = betas @ statistic.matrix
    model, r = _unwrap(model)
    if r.any():   # x + 0.0 would turn -0.0 into 0.0
        shifts = shifts + r
    sep = model.separable()
    top = None if sep is not None else _top_offset(model)
    if sep is None and top is None:
        points = np.eye(statistic.n)
        found = [_mixture_max(model, points, shift, tol) for shift in shifts]
        q = [np.maximum(res.point, 0.0) / max(res.point.sum(), 1e-300) for res in found]
        chi = np.array([res.value for res in found])
        gaps = np.array([res.gap for res in found])
        methods = [res.method for res in found]
    else:
        # psi'(0) may be -inf, and densities overflow at trial lambdas far
        # above the root; the root itself keeps every density below 1 / mu
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if top is not None:
                q, dual = _top_tilts(shifts - top)
            else:
                q, dual = _separable_tilts(*sep, shifts)
            chi = model.entropy_batch(q) - np.einsum("ij,ij->i", q, shifts)
        gaps = np.maximum(dual - chi, 0.0)
        methods = ["separable-dual" if top is None else "closed-form"] * len(betas)
    q = distribution_rows(q, statistic.n)   # one check for the whole block
    q.flags.writeable = False
    over = np.flatnonzero(gaps > tol)
    if over.size:
        i = int(over[0])
        raise MaxIterExceeded(
            f"natural tilt gap {gaps[i]:.3e} above tol",
            TiltResult(beta=betas[i], q=Distribution.of_checked(q[i]), chi=float(chi[i]),
                       gap=float(gaps[i]), method=methods[i]))
    if isinstance(model, LogModel):
        # the cumulant log sum mu exp(-c), stabilized by its largest exponent
        lead = -shifts.min(axis=1)
        kappa = lead + np.log(np.exp(-shifts - lead[:, None]) @ sep[1])
        bad = np.flatnonzero(~((chi <= kappa + 1e-9) & (kappa - chi <= gaps + 1e-9)))
        if bad.size:
            i = int(bad[0])
            raise ArithmeticError(
                f"chi(beta)={chi[i]!r} disagrees with the cumulant {kappa[i]!r}")
    return q, chi, gaps, methods


def _separable_tilts(gen: ConvexGenerator, mu: np.ndarray, shifts: np.ndarray):
    """Maximize H(P) - shift . p over the simplex at every row of shifts
    (m, N), for H(P) = -sum mu psi(p / mu).  Returns (q, the dual bound).

    p = mu (psi')^-1(max(psi'(0), lambda - shift)) at the root lambda of
    sum p = 1, bisected on every row together inside
    [min shift, max shift] + psi'(1 / sum mu) until the bracket reaches the
    float resolution of lambda - shift.  By weak duality,
    D(lambda) = -lambda + sum mu psi*(lambda - shift) bounds the maximum
    from above for any lambda, so it is an honest bound even where q
    underflows.
    """
    floor = float(gen.psi_prime(np.zeros(1))[0])
    level = float(gen.psi_prime(np.array([1.0 / mu.sum()]))[0])   # the law mu / sum mu

    def density(lam):
        return gen.psi_prime_inv(np.maximum(lam[:, None] - shifts, floor))

    lo = shifts.min(axis=1) + level
    hi = shifts.max(axis=1) + level
    resolution = 2.0 * np.finfo(float).eps * (np.abs(shifts).max(axis=1) + abs(level))
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > resolution) & (lo < mid) & (mid < hi)
        if not live.any():
            break
        above = np.einsum("ij,j->i", density(mid), mu) >= 1.0
        hi = np.where(live & above, mid, hi)
        lo = np.where(live & ~above, mid, lo)
    u = density(hi)
    p = mu * u
    dual = -hi + np.einsum("ij,j->i", (hi[:, None] - shifts) * u - gen.psi(u), mu)
    return p / p.sum(axis=1)[:, None], dual


def _top_offset(model: LossModel) -> np.ndarray | None:
    """u when the model's point-act matrix is L = u 1' - I, so that
    H(P) = min_j P . L[:, j] = P . u - max p (zero-one, u = 1); else None."""
    L = point_act_losses(model)
    if L is None:
        return None
    cols = L + np.eye(L.shape[0])
    return cols[:, 0] if np.all(cols == cols[:, :1]) else None


def _top_tilts(d: np.ndarray):
    """Maximize -max p - d . p over the simplex at every row of d (m, N),
    the tilt of H(P) = P . u - max p with d = T' beta - u.

    The LP's vertices are the uniform laws on subsets of outcomes, and the
    best subset of size s holds the s smallest entries of d, so the value
    is max over s of -(1 + d_(1) + ... + d_(s)) / s: one stable sort and one
    cumulative sum per row.  q is uniform on the largest maximizing prefix
    (values within float resolution of the best count as ties): the
    max-entropy member of the optimal face.  The dual is one-dimensional:
    nu bounds the value from above exactly when sum (-d - nu)+ <= 1.  nu
    starts at the best prefix value and is raised by Newton steps on that
    sum, at least one ulp each, until the bound holds in floats.  Returns
    (q, nu).
    """
    n = d.shape[1]
    order = np.argsort(d, axis=1, kind="stable")
    sizes = np.arange(1.0, n + 1.0)
    values = -(1.0 + np.cumsum(np.take_along_axis(d, order, axis=1), axis=1)) / sizes
    best = values.max(axis=1)
    slack = n * np.finfo(float).eps * (1.0 + np.abs(d).max(axis=1))
    ties = values >= (best - slack)[:, None]
    s = n - np.argmax(ties[:, ::-1], axis=1)
    q = np.empty_like(d)
    np.put_along_axis(q, order, np.where(sizes <= s[:, None], 1.0 / s[:, None], 0.0), axis=1)
    nu = best
    short = np.ones(nu.shape, bool)   # rows whose nu is not yet checked
    for _ in range(ROOT_MAX_ITER):
        over = np.maximum(-d - nu[:, None], 0.0)
        excess = over.sum(axis=1) - 1.0
        short = excess > 0.0
        if not short.any():
            break
        step = excess / np.maximum(np.count_nonzero(over, axis=1), 1)
        nu = np.where(short, nu + np.maximum(step, np.spacing(1.0 + np.abs(nu))), nu)
    else:
        # unchecked rows take nu = max(-d), where sum (-d - nu)+ = 0: a loose bound
        nu = np.where(short, np.maximum(nu, (-d).max(axis=1)), nu)
    return q, nu


# ---------------------------------------------------------------------------
# family traces and diagnostics


def trace_family(model: LossModel, statistic: Statistic, tau_grid) -> FamilyTrace:
    """Solve along a tau grid (`solve_grid`; the first exception of the grid
    is raised) and enforce the family invariants:

    h is concave along the grid (within 1e-7) and adjacent regular rows
    satisfy (tau2 - tau1)' (beta2 - beta1) <= 1e-7.
    """
    taus = np.atleast_2d(np.asarray(tau_grid, dtype=float))
    if taus.shape[0] == 1 and statistic.k == 1 and taus.shape[1] > 1:
        taus = taus.T
    if statistic.k == 1:
        flat = taus.ravel()
        if np.any(np.diff(flat) <= 0.0):
            raise ValueError("tau grid must be strictly increasing")
        taus = flat[:, None]
    rows = tuple(raised(sp) for sp in solve_grid(model, statistic, taus))
    _check_trace_invariants(statistic, taus, rows)
    return FamilyTrace(statistic=statistic, taus=taus, rows=rows)


def _check_trace_invariants(statistic, taus, rows):
    h = np.array([r.h_star for r in rows])
    if statistic.k == 1 and len(rows) >= 3:
        t = taus.ravel()
        for i in range(1, len(rows) - 1):
            span = t[i + 1] - t[i - 1]
            interp = ((t[i + 1] - t[i]) * h[i - 1] + (t[i] - t[i - 1]) * h[i + 1]) / span
            if h[i] < interp - 1e-7:
                raise TraceInvariantViolation(
                    f"h not concave at tau={t[i]}: {h[i]} < chord {interp}"
                )
    for a, b in zip(rows, rows[1:]):
        if a.is_regular and b.is_regular:
            prod = float((b.tau - a.tau) @ (b.beta - a.beta))
            if prod > 1e-7:
                raise TraceInvariantViolation(
                    f"conjugate slope increased between tau={a.tau} and {b.tau}"
                )


@dataclass(frozen=True)
class SlopeRow:
    tau: float
    beta: float | None
    slope_left: float | None
    slope_right: float | None
    kind: str      # "smooth" | "kink" | "edge" | "skipped"
    ok: bool | None


@dataclass(frozen=True)
class BetaDerivativeReport:
    rows: tuple
    all_ok: bool


def beta_derivative_check(trace: FamilyTrace) -> BetaDerivativeReport:
    """Compare stored beta against one-sided slopes of h along the trace.

    Five-point one-sided stencils are exact for the piecewise-polynomial h of
    the bundled models; rows whose one-sided slopes disagree by more than
    KINK_TOL report the subgradient interval (concavity puts beta inside it).
    """
    if trace.statistic.k != 1:
        raise ValueError("derivative check needs a scalar statistic")
    t = trace.taus.ravel()
    h = np.array([r.h_star for r in trace.rows])
    if t.size < 9:
        raise ValueError("need at least nine rows for the one-sided stencils")
    d = float(t[1] - t[0])
    if np.max(np.abs(np.diff(t) - d)) > 1e-12:
        raise ValueError("derivative check needs a uniform grid")
    tol = max(1e-4, 3.0 * d * d)
    out = []
    ok_all = True
    for i, row in enumerate(trace.rows):
        if not (row.is_regular and row.tau_interior) or row.beta is None:
            out.append(SlopeRow(float(t[i]), None, None, None, "skipped", None))
            continue
        if i < 4 or i > t.size - 5:
            out.append(SlopeRow(float(t[i]), float(row.beta[0]), None, None, "edge", None))
            continue
        hl = h[i - 4:i + 1]
        sl = (25 * hl[4] - 48 * hl[3] + 36 * hl[2] - 16 * hl[1] + 3 * hl[0]) / (12 * d)
        hr = h[i:i + 5]
        sr = (-25 * hr[0] + 48 * hr[1] - 36 * hr[2] + 16 * hr[3] - 3 * hr[4]) / (12 * d)
        beta = float(row.beta[0])
        disc = sl - sr
        if disc > KINK_TOL:
            # concavity orders a true kink: h'(tau-) >= h'(tau+)
            ok = bool(sr - tol <= beta <= sl + tol)
            out.append(SlopeRow(float(t[i]), beta, float(sl), float(sr), "kink", ok))
        else:
            # inverted or small spread is stencil truncation error on a smooth
            # stretch; widen the bar by the observed disagreement
            bar = max(tol, 3.0 * abs(disc))
            ok = bool(min(abs(sl - beta), abs(sr - beta)) <= bar)
            out.append(SlopeRow(float(t[i]), beta, float(sl), float(sr), "smooth", ok))
        ok_all = ok_all and ok
    return BetaDerivativeReport(tuple(out), ok_all)


@dataclass(frozen=True)
class SupportScan:
    values: np.ndarray
    best_index: int
    best_tau: np.ndarray


def support_scan(model: LossModel, trace: FamilyTrace, p_star: Distribution) -> SupportScan:
    """s_P*(zeta_tau) = -E_P* L(X, zeta_tau) along the trace; reports the argmax."""
    vals = np.array([
        -ext_dot(p_star.w, model.loss_vector(row.zeta_star)) for row in trace.rows
    ])
    best = int(np.argmax(vals))
    return SupportScan(values=vals, best_index=best, best_tau=trace.taus[best])


@dataclass(frozen=True)
class ConjugacyReport:
    sigmas: np.ndarray
    h_values: np.ndarray
    grid_estimates: np.ndarray
    matched_residuals: np.ndarray   # nan where the solver row has no beta
    max_grid_residual: float
    max_matched_residual: float
    fenchel_min: float              # min over the grid of chi(beta) + beta' sigma - h


def conjugacy_check(model: LossModel, statistic: Statistic, tau_grid,
                    beta_grid) -> ConjugacyReport:
    """h(sigma) = inf_beta {chi(beta) + beta' sigma} on a grid, plus exact
    residuals at the solver's own (tau, beta) pairs.

    chi comes from one batched tilt call over the whole beta grid and one
    over the solver's betas (see `natural_tilt` for the routes), read off
    its arrays without a TiltResult per beta; h comes
    from one `solve_grid` over the sigmas.  A grid tilt whose gap stays above
    GRID_TOL, or a matched one above TILT_TOL, raises MaxIterExceeded.
    """
    if statistic.k != 1:
        raise ValueError("conjugacy grid check supports scalar statistics")
    sigmas = np.asarray(tau_grid, dtype=float).ravel()
    betas = np.asarray(beta_grid, dtype=float).ravel()
    chi = _tilt_arrays(model, statistic, betas[:, None], GRID_TOL)[1]
    saddles = [raised(sp) for sp in solve_grid(model, statistic, sigmas[:, None])]
    h_vals = np.array([sp.h_star for sp in saddles])
    estimates = np.min(chi + np.outer(sigmas, betas), axis=1)
    matched = np.full(sigmas.size, np.nan)
    rows = np.array([i for i, sp in enumerate(saddles) if sp.beta is not None], dtype=int)
    if rows.size:
        own = np.array([saddles[i].beta for i in rows])
        chi_own = _tilt_arrays(model, statistic, own, TILT_TOL)[1]
        matched[rows] = np.abs(chi_own + own[:, 0] * sigmas[rows] - h_vals[rows])
    resid = estimates - h_vals
    finite_matched = matched[np.isfinite(matched)]
    return ConjugacyReport(
        sigmas=sigmas,
        h_values=h_vals,
        grid_estimates=estimates,
        matched_residuals=matched,
        max_grid_residual=float(np.max(np.abs(resid))),
        max_matched_residual=float(finite_matched.max()) if finite_matched.size else 0.0,
        fenchel_min=float(resid.min()),
    )


def lafferty_family(model: LossModel, p0: Distribution, statistic: Statistic,
                    beta_grid) -> FamilyTrace:
    """Additive-model family: for each beta, the minimizer of
    beta' E_P T + d(P, P0), i.e. the natural tilt of the game made relative
    to the Bayes act of P0, certified to TILT_TOL."""
    rel = relative_model(model, model.bayes_act(p0))
    betas = np.atleast_1d(np.asarray(beta_grid, dtype=float))
    tilts = _tilts(rel, statistic, betas[:, None], TILT_TOL)

    def draft(b, tr):
        g = GammaTau(statistic, statistic.matrix @ tr.q.w)
        h0 = rel.entropy(tr.q)
        return _Draft(g, Distribution(tr.q.w), rel.bayes_act(tr.q), h0, tr.chi, np.array([b]),
                      tr.gap, "lafferty-tilt", _hull_class(g))

    drafts = [attempt(draft, b, tr) for b, tr in zip(betas, tilts)]
    rows = [raised(sp) for sp in _records(rel, statistic, drafts)]
    rows.sort(key=lambda r: float(r.tau[0]))
    taus = np.array([r.tau for r in rows])
    return FamilyTrace(statistic=statistic, taus=taus, rows=tuple(rows))
