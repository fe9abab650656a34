"""Maximum-entropy / robust-Bayes solvers for mean-value constraint games.

For each loss model the solver returns a saddle point of the restricted game
over Gamma_tau = {P : E_P T = tau}: the entropy-maximizing P*, a robust Bayes
act zeta*, the game value h(tau), and, where the loss admits an affine
representation beta0 + beta' t(x), the coefficients linking tau to beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .constraints import GammaTau, VertexSet, hull_interior, vertices
from .core import (
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    Act,
    CombinatorialBlowup,
    Distribution,
    Infeasible,
    Statistic,
    WEIGHT_CLAMP,
    ext_dot,
)
from .divergence import equalizer_check
from .losses import ConvexGenerator, LossModel, square_generator
from .verify import point_act_game

ZERO_ONE_ENUM_CAP = 12   # solve_zero_one enumerates mode/zero patterns
LINEAR_FIT_TOL = 1e-7
SYSTEM_TOL = 1e-9
HYPERPLANE_PROBES = 41
NEWTON_MAX_ITER = 100    # dual Newton steps in the log, Brier and Bregman solvers
DUAL_TOL = 1e-13         # dual gradient norm, relative to 1 + |tau|_inf
BRIER_ACTIVE_TOL = 1e-9  # |A'y| below this marks a weakly active outcome
BRIER_GAP_TOL = 1e-9     # largest duality gap a Brier solution may keep
FW_MAX_ITER = 100000     # conditional-gradient iterations
FW_SLOPE_RES = 1e-14     # pairwise slopes below this, relative, are float noise
ROOT_MAX_ITER = 100      # slope evaluations per line search
ROOT_TOL = 1e-8          # relative bracket width, or slope against slope(0)


class NewtonDivergence(ArithmeticError):
    """Dual Newton iteration failed to reach the gradient tolerance."""


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
    tau: np.ndarray
    p_star: Distribution
    zeta_star: Act
    h_star: float
    beta0: float | None
    beta: np.ndarray | None
    is_linear: bool
    is_regular: bool
    is_equalizer: bool
    tau_interior: bool
    bayes_margin: float
    vertex_margin: float
    gap: float
    method: str
    act_family: ActFamily | None = None


@dataclass(frozen=True)
class FamilyTrace:
    statistic: Statistic
    taus: np.ndarray            # (m, k)
    rows: tuple
    model_kind: str

    @property
    def m(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# shared helpers


def _ext_dots(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise extended dot products; 0 * inf = 0."""
    finite = np.isfinite(values)
    if finite.all():
        return points @ values
    if np.isneginf(values).any():
        raise ArithmeticError("loss vectors may not contain -inf")
    out = points[:, finite] @ values[finite]
    hits = points[:, ~finite].sum(axis=1) > 0.0
    out = np.where(hits, np.inf, out)
    return out


def _affine_fit(tmat: np.ndarray, y: np.ndarray, cols: np.ndarray | None = None):
    """Least-squares y(x) ~ b0 + beta' t(x); returns (b0, beta, max residual)."""
    if cols is None:
        cols = np.arange(tmat.shape[1])
    design = np.vstack([np.ones(cols.size), tmat[:, cols]]).T
    sol, *_ = np.linalg.lstsq(design, y[cols], rcond=None)
    resid = float(np.max(np.abs(design @ sol - y[cols]))) if cols.size else 0.0
    return float(sol[0]), sol[1:], resid


def _finalize(model: LossModel, g: GammaTau, vs: VertexSet, p: np.ndarray,
              zeta: Act, h: float, beta0, beta, gap: float, method: str,
              act_family: ActFamily | None = None) -> SaddlePoint:
    p_star = Distribution(p)
    lv = model.loss_vector(zeta)
    tmat = g.statistic.matrix
    supp = p_star.support(1e-9)

    if np.all(np.isfinite(lv)):
        _, _, resid_all = _affine_fit(tmat, lv)
        is_linear = resid_all <= LINEAR_FIT_TOL
    else:
        is_linear = False

    is_regular = False
    if beta is not None:
        fitted = beta0 + tmat[:, supp].T @ beta
        is_regular = bool(np.max(np.abs(fitted - lv[supp])) <= LINEAR_FIT_TOL)

    eq = equalizer_check(model, vs.points, zeta)
    at_p = ext_dot(p_star.w, lv)
    bayes_margin = abs(at_p - model.entropy(p_star))
    worst = float(max(_ext_dots(vs.points, lv)))
    vertex_margin = worst - at_p
    interior = hull_interior(g.statistic, g.tau) == "interior"
    return SaddlePoint(
        tau=g.tau,
        p_star=p_star,
        zeta_star=zeta,
        h_star=float(h) + 0.0,   # + 0.0 folds -0.0 into 0.0
        beta0=None if beta is None else float(beta0) + 0.0,
        beta=None if beta is None else np.asarray(beta, float) + 0.0,
        is_linear=bool(is_linear),
        is_regular=is_regular,
        is_equalizer=eq.is_equalizer,
        tau_interior=interior,
        bayes_margin=float(bayes_margin),
        vertex_margin=float(vertex_margin),
        gap=float(gap),
        method=method,
        act_family=act_family,
    )


# ---------------------------------------------------------------------------
# pairwise Frank-Wolfe engine over an explicit vertex list


@dataclass
class _FWResult:
    point: np.ndarray
    value: float
    gap: float
    iterations: int
    stalled: bool


def _slope_root(slope, rise: float, hi: float, guess: float = 1.0) -> float:
    """Root on [0, hi] of a non-increasing slope with slope(0) = rise.

    Returns 0 when rise is not positive and hi when the slope is still
    positive there.  The bracket is found by probing `guess` first, then
    hi (or doubling, for hi = inf); inside it, Illinois regula falsi.  A
    non-finite slope at either end (an infinite loss at an emptied
    outcome) is bisected.
    """
    if not rise > 0.0:
        return 0.0
    f_tol = ROOT_TOL * rise if np.isfinite(rise) else 0.0
    lo, f_lo = 0.0, rise
    t = min(guess, hi)
    for _ in range(ROOT_MAX_ITER):
        f_t = slope(t)
        if not f_t > 0.0:
            break
        if t == hi:
            return hi
        lo, f_lo = t, f_t
        t = 2.0 * t if np.isinf(hi) else hi
    else:
        return lo
    hi, f_hi = t, f_t
    side = 0
    for _ in range(ROOT_MAX_ITER):
        if abs(f_hi) <= f_tol:
            return hi
        finite = np.isfinite(f_lo) and np.isfinite(f_hi)
        t = lo + (hi - lo) * f_lo / (f_lo - f_hi) if finite else np.nan
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break
        f_t = slope(t)
        if f_t > 0.0:
            lo, f_lo = t, f_t
            f_hi = 0.5 * f_hi if side > 0 else f_hi
            side = 1
        else:
            hi, f_hi = t, f_t
            f_lo = 0.5 * f_lo if side < 0 else f_lo
            side = -1
        if hi - lo <= ROOT_TOL * hi:
            break
    return lo


def _fw_maximize(V: np.ndarray, value_batch, supergrad, tol: float,
                 max_iter: int) -> _FWResult:
    """Maximize a concave function over conv(rows of V) by pairwise Frank-Wolfe.

    Each step moves weight from the active vertex the supergradient likes
    least to the one it likes most, by the exact line search of
    Lacoste-Julien & Jaggi (2015): the root on [0, w_away] of the
    non-increasing slope gamma -> supergrad(p + gamma d) . d.  No function
    values are compared; `value_batch` is evaluated once, at the returned
    point.  The supergradient linearization bounds the suboptimality, so
    the returned gap certifies value accuracy.  The run stops at gap <= tol
    or stalls, with `stalled` set, when the pairwise direction has no
    positive slope within float resolution -- at a kink of a loss whose
    Bayes act is not unique, which callers hand to the matrix game instead.
    """
    m = V.shape[0]
    w = np.full(m, 1.0 / m)
    point = w @ V
    gap = np.inf
    stalled = False
    it = 0
    step = 1.0   # each line search first probes the previous step length
    for it in range(1, max_iter + 1):
        grad = supergrad(point)
        scores = _ext_dots(V, grad)
        current = ext_dot(point, grad)
        fw = int(np.argmax(scores))
        gap = float(scores[fw] - current)
        if gap <= tol:
            break
        active = np.flatnonzero(w > 0.0)
        away = int(active[np.argmin(scores[active])])
        rise = float(scores[fw] - scores[away])
        direction = V[fw] - V[away]
        step = _slope_root(lambda t: ext_dot(direction, supergrad(point + t * direction)),
                           rise, w[away], guess=step)
        if not (rise > FW_SLOPE_RES * max(1.0, abs(current)) and step > 0.0):
            stalled = True
            break
        w[fw] += step
        w[away] = 0.0 if w[away] - step < 1e-15 else w[away] - step
        w /= w.sum()
        point = w @ V
    value = float(value_batch(point[None, :])[0])
    return _FWResult(point, value, gap, it, stalled)


# ---------------------------------------------------------------------------
# Brier solver: semismooth Newton on the dual, then the support rule


def solve_brier(model: LossModel, g: GammaTau) -> SaddlePoint:
    """Exact Brier saddle point from the (k+1)-dimensional dual.

    With A = [1; T] and b = [1; tau], P* = (A'y)_+ / 2 for the maximizer y
    of the concave, piecewise quadratic dual y'b - |(A'y)_+|^2 / 4.  The
    supports that can carry P* are the supersets of the dual support that
    stay inside its weakly active set or have at most k+1 outcomes.  On
    each, in size-descending then `combinations` order, the entropy
    maximizer is the minimum-norm solution of {sum p = 1, T p = tau}; the
    first nonnegative one wins unless a later one beats it by more than
    1e-12.  The dual value bounds h from above, so the scan stops once no
    later support can win, and a solution left further below the bound
    than BRIER_GAP_TOL raises NewtonDivergence.
    """
    if model.kind != "brier":
        raise ValueError("solve_brier needs a Brier model")
    vs = vertices(g)   # size caps; Infeasible for an empty Gamma_tau
    n, k = g.n, g.k
    rows = np.vstack([np.ones(n), g.statistic.matrix])
    target = np.concatenate([[1.0], g.tau])
    y, _, _ = _separable_dual(rows, target, np.ones(n), square_generator(n))
    s = rows.T @ y
    pos = np.maximum(s, 0.0)
    h_up = 1.0 - float(y @ target) + 0.25 * float(pos @ pos)   # weak duality
    best = None  # (h, p)
    for supp in _brier_supports(s, k):
        a = rows[:, supp]
        sol, *_ = np.linalg.lstsq(a, target, rcond=None)
        if np.max(np.abs(a @ sol - target)) > SYSTEM_TOL:
            continue
        if float(sol.min()) < -WEIGHT_CLAMP:
            continue
        p = np.zeros(n)
        p[list(supp)] = np.where(sol < 0.0, 0.0, sol)
        h = 1.0 - float(p @ p)
        if best is None or h > best[0] + 1e-12:
            best = (h, p)
        if best[0] + 1e-12 >= h_up:
            break
    if best is None or h_up - best[0] > BRIER_GAP_TOL:
        raise NewtonDivergence(
            f"Brier dual left a duality gap above {BRIER_GAP_TOL:g}")
    h, p = best
    # multipliers come from the true support; a winning support may carry
    # zero weights whose stationarity condition is an inequality, not an equality
    supp = np.flatnonzero(p > WEIGHT_CLAMP)
    a = rows[:, supp]
    alpha, *_ = np.linalg.lstsq(a.T, p[supp], rcond=None)
    if np.linalg.matrix_rank(a, tol=1e-10) == k + 1:
        beta = -2.0 * alpha[1:]
    else:
        beta = _brier_degenerate_beta(g, p, supp)
    beta0 = None if beta is None else h - float(beta @ g.tau)
    zeta = Act(ACT_DISTRIBUTION, p)
    return _finalize(model, g, vs, p, zeta, h, beta0, beta, 0.0, "brier-enum")


def _separable_dual(rows: np.ndarray, target: np.ndarray, mu: np.ndarray,
                    gen: ConvexGenerator):
    """Maximize y'b - sum mu psi*(A'y) by regularized semismooth Newton.

    psi* is the conjugate of the generator on [0, inf), so the gradient is
    b - A p with p = mu (psi')^-1(max(psi'(0), A'y)), and the generalized
    Hessian is A diag(mu dp/ds) A' over the active outcomes.  A full step is
    taken when it shrinks the gradient norm; otherwise the step is cut at
    the root of the non-increasing directional derivative.  Neither test
    compares dual values.  Returns the last iterate, its p and gradient norm.
    """
    # psi'(0) may be -inf, and a trial step may overflow the density; the
    # gradient-norm test rejects such a step
    with np.errstate(divide="ignore", over="ignore"):
        k1 = rows.shape[0]
        floor = float(gen.psi_prime(np.zeros(1))[0])
        tol = _dual_tol(target)

        def density(s):
            return gen.psi_prime_inv(np.maximum(s, floor))

        def gradient(v):
            p = mu * density(rows.T @ v)
            r = target - rows @ p
            return r, float(np.abs(r).max()), p

        eye = np.eye(k1)
        y = np.zeros(k1)
        y[0] = float(gen.psi_prime(np.array([1.0 / mu.sum()]))[0])   # the law mu / sum mu
        grad, norm, p = gradient(y)
        for _ in range(NEWTON_MAX_ITER):
            if norm <= tol:
                break
            s = rows.T @ y
            # dp/ds by a forward difference on a power-of-two step, exact for
            # linear densities
            h = np.ldexp(1.0, np.frexp(s)[1] - 20)
            curve = (mu * density(s + h) - p) / h
            hess = (rows * curve) @ rows.T + norm * norm * eye
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            trial = y + step
            trial_grad, trial_norm, trial_p = gradient(trial)
            if not trial_norm < norm:
                e, c = rows.T @ step, float(target @ step)
                cut = _slope_root(lambda t: c - float(e @ (mu * density(s + t * e))),
                                  float(grad @ step), np.inf)
                trial = y + cut * step
                trial_grad, trial_norm, trial_p = gradient(trial)
            y, grad, norm, p = trial, trial_grad, trial_norm, trial_p
        return y, p, norm


def _dual_tol(target: np.ndarray) -> float:
    return DUAL_TOL * (1.0 + float(np.max(np.abs(target))))


def _brier_supports(s: np.ndarray, k: int):
    """Supports that can carry P*, given A'y = s, in the enumeration's order.

    Supersets of the dual support {s > eps} inside {s >= -eps}, and those
    with at most k+1 outcomes; sizes descend, then `combinations` order.
    """
    eps = BRIER_ACTIVE_TOL * max(1.0, float(np.max(np.abs(s))))
    dual = np.flatnonzero(s > eps).tolist()
    weak = np.flatnonzero(np.abs(s) <= eps).tolist()
    rest = np.flatnonzero(s <= eps).tolist()
    top = max(len(dual) + len(weak), min(k + 1, s.size))
    for size in range(top, max(len(dual), 1) - 1, -1):
        pool = rest if size <= k + 1 else weak
        if size - len(dual) > len(pool):
            continue
        yield from sorted(tuple(sorted(dual + list(extra)))
                          for extra in combinations(pool, size - len(dual)))


def _brier_degenerate_beta(g: GammaTau, p: np.ndarray, supp: np.ndarray):
    """Stationarity multipliers when the support does not pin beta.

    Conditions: 2 p(x) + beta' t(x) = nu on the support and beta' t(x) >= nu
    off it.  For k = 1 the feasible set is an interval; the endpoint nearest
    zero (the one-sided slope of h) is the canonical choice.
    """
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


# ---------------------------------------------------------------------------
# log solver: damped Newton on the dual, face recursion at the boundary


def _log_kappa(mu: np.ndarray, tmat: np.ndarray, beta: np.ndarray):
    """kappa(beta) = log sum mu exp(-beta' t) and the tilted distribution."""
    expo = -tmat.T @ beta
    shift = float(expo.max())
    weights = mu * np.exp(expo - shift)
    z = float(weights.sum())
    kappa = shift + np.log(z)
    return kappa, weights / z


def solve_log(model: LossModel, g: GammaTau, tol: float = 1e-10) -> SaddlePoint:
    """Log-loss saddle point: Newton on kappa(beta) + beta' tau.

    Boundary tau restricts to the face carrying Gamma_tau and recurses; the
    resulting point mass family has no finite affine representation, so beta
    is absent there.
    """
    if model.kind != "log":
        raise ValueError("solve_log needs a log model")
    idx = np.arange(g.n)
    p_sub, beta, kappa, grad_norm, full_dim = _solve_log_on(model, g, idx, tol)
    p = np.zeros(g.n)
    p[p_sub[0]] = p_sub[1]
    h = model.entropy(Distribution(p))
    zeta = Act(ACT_DENSITY, p / model.base.weights)
    vs = vertices(g)
    if full_dim and beta is not None:
        beta0 = float(kappa)
        return _finalize(model, g, vs, p, zeta, h, beta0, beta, grad_norm, "log-newton")
    return _finalize(model, g, vs, p, zeta, h, None, None, grad_norm, "log-face")


def _solve_log_on(model, g: GammaTau, idx: np.ndarray, tol: float):
    """Returns ((indices, weights), beta, kappa, grad_norm, solved_on_full_space)."""
    tmat = g.statistic.matrix[:, idx]
    mu = model.base.weights[idx]
    tau = np.asarray(g.tau, float)
    cls = hull_interior(Statistic(tmat), tau)
    if cls == "outside":
        raise Infeasible(f"tau={tau} outside the statistic hull")
    if cls == "boundary":
        face = vertices(GammaTau(Statistic(tmat), tau)).union_support()
        if face.size < idx.size:
            inner = _solve_log_on(model, g, idx[face], tol)
            return inner[0], None, None, inner[3], False
        # a face that does not shrink: tau within hull_interior's tolerance
        # of the boundary, or a statistic constant on the outcomes; either
        # way the face is solved in its own coordinates
    if cls == "boundary" or idx.size < g.n:
        q = _face_tilt(mu, tmat, tau, tol)
        return (idx, q), None, None, float(np.max(np.abs(tau - tmat @ q))), False
    beta, kappa, q, grad_norm = _newton_tilt(mu, tmat, tau, tol)
    return (idx, q), beta, kappa, grad_norm, True


def _face_tilt(mu, tmat, tau, tol):
    """Tilted law on a face, by Newton in coordinates of the face's affine span.

    T restricted to a face has fewer affine dimensions than rows, so its
    covariance under any law there is singular.  The SVD of the centered
    face columns gives full-rank coordinates; rank 0 (one point) leaves
    q = mu / sum mu.  The face's beta has no meaning and is not returned.
    """
    center = tmat.mean(axis=1)
    u, sv, _ = np.linalg.svd(tmat - center[:, None], full_matrices=False)
    rank = int((sv > 1e-10 * max(1.0, float(sv[0]))).sum())
    if rank == 0:
        return mu / mu.sum()
    basis = u[:, :rank].T
    _, _, q, _ = _newton_tilt(mu, basis @ (tmat - center[:, None]),
                              basis @ (tau - center), tol)
    return q


def _newton_tilt(mu, tmat, tau, tol):
    """Minimize kappa(beta) + beta' tau; returns (beta, kappa, q, grad norm).

    Damped Newton accepts a step on the Armijo test alone first, which
    keeps the iterates of every solve that converges that way.  One step
    short of tol the Armijo decrease can fall below float resolution; then
    Newton goes on from where it stopped and also takes any step that
    halves the gradient.
    """
    beta, done = _newton_steps(mu, tmat, tau, tol, np.zeros(tmat.shape[0]), False)
    if not done:
        beta, done = _newton_steps(mu, tmat, tau, tol, beta, True)
    if not done:
        raise NewtonDivergence(
            f"dual Newton stopped with gradient norm above {tol:g}"
        )
    kap, q = _log_kappa(mu, tmat, beta)
    return beta, kap, q, float(np.max(np.abs(tau - tmat @ q)))


def _newton_steps(mu, tmat, tau, tol, beta, by_gradient: bool):
    """Newton iterations from beta; returns (beta, reached tol)."""

    def objective(b):
        kap, q = _log_kappa(mu, tmat, b)
        return kap + float(b @ tau), q

    f_val, q = objective(beta)
    for _ in range(NEWTON_MAX_ITER):
        grad = tau - tmat @ q
        norm = float(np.max(np.abs(grad)))
        if norm <= tol:
            return beta, True
        centered = tmat - (tmat @ q)[:, None]
        cov = (centered * q) @ centered.T
        try:
            step = np.linalg.solve(cov, -grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(cov, -grad, rcond=None)
        slope = float(grad @ step)
        if not np.all(np.isfinite(step)) or slope >= 0.0:
            step = -grad
            slope = -float(grad @ grad)
        gamma = 1.0
        for _ in range(60):
            cand = beta + gamma * step
            f_new, q_new = objective(cand)
            if f_new <= f_val + 1e-4 * gamma * slope or (
                    by_gradient
                    and float(np.max(np.abs(tau - tmat @ q_new))) <= 0.5 * norm):
                beta, f_val, q = cand, f_new, q_new
                break
            gamma *= 0.5
        else:
            break
    return beta, False


# ---------------------------------------------------------------------------
# zero-one solver: exact two-phase enumeration


def solve_zero_one(model: LossModel, g: GammaTau) -> SaddlePoint:
    """Zero-one saddle point.

    Phase 1 minimizes the maximum coordinate over Gamma_tau by enumerating
    (mode set, zero set, free set) patterns and solving the linear systems.
    Phase 2 solves 1 - zeta(x) = beta0 + beta' t(x) across the support of P*
    with zeta supported on the modes; parameter families are resolved by the
    equalizer rule, then by proximity to the uniform act, subject to the
    supporting-hyperplane constraints on (beta0, beta).
    """
    if model.kind != "zero_one":
        raise ValueError("solve_zero_one needs a zero-one model")
    n = g.n
    if n > ZERO_ONE_ENUM_CAP:
        raise CombinatorialBlowup(
            f"N={n} exceeds the zero-one enumeration cap {ZERO_ONE_ENUM_CAP}")
    m_star, p = _min_pmax(g)
    h = 1.0 - float(p.max())   # the optimizer's value can carry solve noise
    zeta, beta0, beta, family = _zero_one_act(model, g, p, m_star)
    vs = vertices(g)
    return _finalize(model, g, vs, p, Act(ACT_DISTRIBUTION, zeta), h, beta0, beta,
                     0.0, "zero-one-enum", act_family=family)


def _min_pmax(g: GammaTau):
    """Minimize max_x p(x) over Gamma_tau; exact pattern enumeration."""
    n, k = g.n, g.k
    tmat = g.statistic.matrix
    target = np.concatenate([[1.0], g.tau])
    candidates = []
    all_idx = list(range(n))
    for f_size in range(0, k + 1):
        for free in combinations(all_idx, f_size):
            rest = [i for i in all_idx if i not in free]
            r = len(rest)
            t_rest = tmat[:, rest]
            for mask in range(1, 1 << r):
                members = [rest[i] for i in range(r) if mask >> i & 1]
                a = np.zeros((k + 1, 1 + f_size))
                a[0, 0] = len(members)
                a[1:, 0] = tmat[:, members].sum(axis=1)
                for c, j in enumerate(free):
                    a[0, 1 + c] = 1.0
                    a[1:, 1 + c] = tmat[:, j]
                sol, *_ = np.linalg.lstsq(a, target, rcond=None)
                if np.max(np.abs(a @ sol - target)) > SYSTEM_TOL:
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
    # deterministic representative: maximal quadratic entropy, then lex order
    pool.sort(key=lambda p: (float(p @ p), tuple(np.round(p, 12))))
    return m_star, pool[0]


def _h_zero_one(g: GammaTau, sigma: np.ndarray):
    try:
        m, _ = _min_pmax(GammaTau(g.statistic, sigma))
    except Infeasible:
        return None
    return 1.0 - m


def _zero_one_act(model, g: GammaTau, p: np.ndarray, m_star: float):
    n, k = g.n, g.k
    tmat = g.statistic.matrix
    supp = np.flatnonzero(p > 1e-9)
    modes = np.flatnonzero(p >= m_star - 1e-9)
    modes = np.intersect1d(modes, supp)
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
        raise ArithmeticError("zero-one act system inconsistent")
    _, s, vt = np.linalg.svd(a)
    rank = int((s > 1e-10 * s[0]).sum())
    null = vt[rank:].T  # (n_unknown, d)
    d = null.shape[1]

    def unpack(vec):
        zeta = np.zeros(n)
        zeta[modes] = vec[:modes.size]
        return zeta, float(vec[modes.size]), vec[modes.size + 1:]

    if d == 0:
        zeta, beta0, beta = unpack(v0)
        return np.maximum(zeta, 0.0), beta0, beta, None

    # feasibility constraints G @ c >= rhs on the family coefficient
    G_rows, rhs = [], []
    for i in range(modes.size):          # zeta >= 0
        G_rows.append(null[i])
        rhs.append(-v0[i] - 1e-12)
    if k == 1:
        t_lo, t_hi = float(tmat.min()), float(tmat.max())
        for sigma in np.linspace(t_lo, t_hi, HYPERPLANE_PROBES):
            h_sig = _h_zero_one(g, np.array([sigma]))
            if h_sig is None:
                continue
            # beta0 + beta * sigma >= h(sigma)
            coeff = null[modes.size] + sigma * null[modes.size + 1]
            base = v0[modes.size] + sigma * v0[modes.size + 1]
            G_rows.append(np.atleast_1d(coeff))
            rhs.append(h_sig - base - 1e-9)
    # outcomes off supp(P*) but reachable within Gamma_tau score L = 1; a
    # worst-case member there must not beat the affine value beta0 + beta' t
    union = vertices(g).union_support()
    for x in np.setdiff1d(union, supp):
        coeff = null[modes.size] + tmat[:, x] @ null[modes.size + 1:]
        base = float(v0[modes.size] + tmat[:, x] @ v0[modes.size + 1:])
        G_rows.append(np.atleast_1d(coeff))
        rhs.append(1.0 - base - 1e-9)

    if d == 1:
        col = null[:, 0]
        lo, hi = -np.inf, np.inf
        for row, r0 in zip(G_rows, rhs):
            coef = float(np.atleast_1d(row)[0])
            if coef > 1e-12:
                lo = max(lo, r0 / coef)
            elif coef < -1e-12:
                hi = min(hi, r0 / coef)
            elif r0 > 1e-9:
                lo, hi = 1.0, -1.0  # infeasible direction
        if lo > hi:
            zeta, beta0, beta = unpack(v0)
            return np.maximum(zeta, 0.0), beta0, beta, None
        c = _pick_family_coefficient(g, v0, col, modes, unpack, lo, hi, n)
        zeta, beta0, beta = unpack(v0 + c * col)
        family = None
        if float(np.max(np.abs(col[:modes.size]))) > 1e-9:
            dir_zeta = np.zeros(n)
            dir_zeta[modes] = col[:modes.size]
            family = ActFamily(base=np.maximum(zeta, 0.0), direction=dir_zeta,
                               lo=float(lo - c), hi=float(hi - c))
        return np.maximum(zeta, 0.0), beta0, beta, family

    # d >= 2: pick least-squares proximity to the uniform act, report no family
    zeta_rows = np.zeros((modes.size, d))
    for i in range(modes.size):
        zeta_rows[i] = null[i]
    targ = np.full(modes.size, 1.0 / n) - v0[:modes.size]
    c_ls, *_ = np.linalg.lstsq(zeta_rows, targ, rcond=None)
    vec = v0 + null @ c_ls
    zeta, beta0, beta = unpack(vec)
    if float(zeta.min()) < -1e-9:
        zeta, beta0, beta = unpack(v0)
    return np.maximum(zeta, 0.0), beta0, beta, None


def _pick_family_coefficient(g, v0, col, modes, unpack, lo, hi, n):
    """Equalizer member if one exists, else nearest to the uniform act."""
    vs = vertices(g)
    zeta0, _, _ = unpack(v0)
    zdir = np.zeros(n)
    zdir[modes] = col[:modes.size]
    vals0 = vs.points @ zeta0
    dirs = vs.points @ zdir
    # want vals0 + c * dirs constant across vertices
    dv = dirs - dirs[0]
    db = vals0 - vals0[0]
    mask = np.abs(dv) > 1e-12
    if mask.any():
        cands = -db[mask] / dv[mask]
        c_eq = float(cands[0])
        if np.max(np.abs(db + c_eq * dv)) <= 1e-9 and lo - 1e-12 <= c_eq <= hi + 1e-12:
            return min(max(c_eq, lo), hi)
    # all members equalize (or none can): minimize distance to uniform
    denom = float(zdir @ zdir)
    if denom <= 1e-18:
        c_ls = 0.0
    else:
        c_ls = float((np.full(n, 1.0 / n) - zeta0) @ zdir / denom)
    if lo == -np.inf and hi == np.inf:
        return c_ls
    if lo == -np.inf:
        return min(c_ls, hi)
    if hi == np.inf:
        return max(c_ls, lo)
    return min(max(c_ls, lo), hi)


# ---------------------------------------------------------------------------
# separable Bregman solver: the dual of the generalized exponential family


def solve_bregman(model: LossModel, g: GammaTau) -> SaddlePoint:
    """Bregman saddle point from the (k+1)-dimensional dual.

    P*(x) = mu(x) (psi')^-1(max(psi'(0), lambda0 - beta' t(x))), where
    (lambda0, -beta) maximizes the dual of `_separable_dual` over the
    outcomes some member of Gamma_tau charges; the others carry no mass,
    which also covers boundary tau and generators with psi'(0) = -inf.
    beta is absent on a boundary face, where it is not determined.
    """
    if model.kind != "bregman":
        raise ValueError("solve_bregman needs a Bregman model")
    vs = vertices(g)
    idx = vs.union_support()
    rows = np.vstack([np.ones(idx.size), g.statistic.matrix[:, idx]])
    target = np.concatenate([[1.0], g.tau])
    y, p_idx, norm = _separable_dual(rows, target, model.base.weights[idx],
                                     model.generator)
    if not norm <= _dual_tol(target):
        raise NewtonDivergence(f"Bregman dual stopped with gradient norm {norm:.3e}")
    p = np.zeros(g.n)
    p[idx] = p_idx
    h = model.entropy(Distribution(p))
    beta = beta0 = None
    if np.linalg.matrix_rank(rows, tol=1e-10) == g.k + 1:
        beta = -y[1:]
        beta0 = h - float(beta @ g.tau)
    zeta = Act(ACT_DENSITY, p / model.base.weights)
    return _finalize(model, g, vs, p, zeta, h, beta0, beta, norm, "bregman-dual")


# ---------------------------------------------------------------------------
# generic solver: matrix game, else conditional gradient over the vertex set


def solve_generic(model: LossModel, g: GammaTau, tol: float = 1e-8) -> SaddlePoint:
    """Maximize H over Gamma_tau.

    Losses affine in a distribution act whose Bayes act is a set (zero-one
    and its relative form) are solved exactly by the matrix game of the
    vertices against point-mass acts (`method` "matrix-game").  Every other
    loss runs pairwise conditional gradient, whose supergradient at P is
    the loss vector of the Bayes act at P (`method` "frank-wolfe"); a loss
    with kinks must therefore expose `bayes_act_set`.
    """
    vs = vertices(g)
    V = vs.points
    game = point_act_game(model, V, 0.0)
    if game is not None:
        p = game.row_strategy @ V
        zeta = Act(ACT_DISTRIBUTION, game.col_strategy)
        gap = max(0.0, game.col_guarantee - game.row_guarantee)
        method = "matrix-game"
    else:
        def value_batch(block):
            return model.entropy_batch(np.maximum(block, 0.0))

        def supergrad(pv):
            return model.loss_vector(model.bayes_act(Distribution(pv)))

        res = _fw_maximize(V, value_batch, supergrad, tol, FW_MAX_ITER)
        if res.gap > tol:
            how = "stalled" if res.stalled else f"after {res.iterations} iterations"
            raise MaxIterExceeded(
                f"conditional gradient {how} with gap {res.gap:.3e}", res)
        p, gap, method = res.point, res.gap, "frank-wolfe"
        zeta = model.bayes_act(Distribution(p))
    p = np.maximum(p, 0.0)
    p = p / p.sum()
    dist = Distribution(p)
    h = model.entropy(dist)
    lv = model.loss_vector(zeta)
    supp = dist.support(1e-9)
    beta = None
    beta0 = None
    if np.all(np.isfinite(lv[supp])):
        b0, bvec, resid = _affine_fit(g.statistic.matrix, lv, supp)
        if resid <= LINEAR_FIT_TOL and supp.size >= g.k + 1:
            beta = bvec
            beta0 = h - float(beta @ g.tau)
    return _finalize(model, g, vs, p, zeta, h, beta0, beta, gap, method)


# ---------------------------------------------------------------------------
# dispatch and derived quantities


def solve(model: LossModel, g: GammaTau, tol: float | None = None) -> SaddlePoint:
    """Route to the solver for the model's mathematical structure.

    Brier, Bregman and zero-one saddles are exact (dual Newton certified by
    a support solve, dual Newton to a 1e-13 gradient, pattern enumeration)
    and ignore `tol`; it is the stopping tolerance of the log solver and of
    `solve_generic`, which takes every other loss.
    """
    kind = getattr(model, "kind", "")
    if kind == "brier":
        return solve_brier(model, g)
    if kind == "zero_one":
        return solve_zero_one(model, g)
    if kind == "bregman":
        return solve_bregman(model, g)
    kwargs = {} if tol is None else {"tol": tol}
    if kind == "log":
        return solve_log(model, g, **kwargs)
    return solve_generic(model, g, **kwargs)


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


def natural_tilt(model: LossModel, statistic: Statistic, beta,
                 tol: float = 1e-8, max_iter: int = FW_MAX_ITER) -> TiltResult:
    """argmax over the full simplex of H(P) - beta' E_P T, with chi(beta).

    Losses affine in a distribution act with a Bayes-act set are solved
    exactly by the matrix game over point-mass acts (`method`
    "matrix-game").  Others run conditional gradient with supergradient
    L(., zeta_P) - beta' t(.), up to `max_iter` iterations, and raise
    MaxIterExceeded, carrying the last iterate, when the gap stays above
    tol.  For the log model the closed-form cumulant log sum mu exp(-beta' t)
    is an independent cross-check on chi.
    """
    beta = np.atleast_1d(np.asarray(beta, float))
    tmat = statistic.matrix
    n = tmat.shape[1]
    V = np.eye(n)
    shift = tmat.T @ beta
    game = point_act_game(model, V, shift)
    if game is not None:
        q = Distribution(np.maximum(game.row_strategy, 0.0) / game.row_strategy.sum())
        return TiltResult(beta=beta, q=q, chi=float(game.value), gap=0.0,
                          method="matrix-game")

    def value_batch(block):
        return model.entropy_batch(np.maximum(block, 0.0)) - block @ shift

    def supergrad(pv):
        return model.loss_vector(model.bayes_act(Distribution(pv))) - shift

    res = _fw_maximize(V, value_batch, supergrad, tol, max_iter)
    if res.gap > tol:
        raise MaxIterExceeded(f"natural tilt gap {res.gap:.3e} above tol", res)
    if model.kind == "log":
        kappa, _ = _log_kappa(model.base.weights, tmat, beta)
        if not (res.value <= kappa + 1e-9 and kappa - res.value <= res.gap + 1e-9):
            raise ArithmeticError(
                f"chi(beta)={res.value!r} disagrees with the cumulant {kappa!r}"
            )
    q = Distribution(np.maximum(res.point, 0.0) / max(res.point.sum(), 1e-300))
    return TiltResult(beta=beta, q=q, chi=res.value, gap=res.gap, method="frank-wolfe")


# ---------------------------------------------------------------------------
# family traces and diagnostics


def trace_family(model: LossModel, statistic: Statistic, tau_grid,
                 enforce: bool = True) -> FamilyTrace:
    """Solve along a tau grid and enforce the family invariants:

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
    rows = tuple(solve(model, GammaTau(statistic, t)) for t in taus)
    if enforce:
        _check_trace_invariants(statistic, taus, rows)
    return FamilyTrace(statistic=statistic, taus=taus, rows=rows,
                       model_kind=getattr(model, "kind", ""))


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


def beta_derivative_check(trace: FamilyTrace, kink_tol: float = 1e-3) -> BetaDerivativeReport:
    """Compare stored beta against one-sided slopes of h along the trace.

    Five-point one-sided stencils are exact for the piecewise-polynomial h of
    the bundled models; rows whose one-sided slopes disagree report the
    subgradient interval (concavity puts beta inside it).
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
        if disc > kink_tol:
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


def _tilt_best(model: LossModel, statistic: Statistic, beta: np.ndarray,
               tol: float) -> TiltResult:
    # a stalled conditional gradient still brackets chi within its gap, which
    # is all a residual report or a trace row needs; keep the honest gap on
    # record and do not let the solver's error escape
    try:
        return natural_tilt(model, statistic, beta, tol=tol)
    except MaxIterExceeded as err:
        if err.result is None:
            raise
        res = err.result
        q = Distribution(np.maximum(res.point, 0.0) / max(res.point.sum(), 1e-300))
        return TiltResult(beta=np.atleast_1d(np.asarray(beta, float)), q=q,
                          chi=float(res.value), gap=float(res.gap),
                          method="frank-wolfe")


def conjugacy_check(model: LossModel, statistic: Statistic, tau_grid, beta_grid,
                    grid_tol: float = 1e-6, matched_tol: float = 1e-8) -> ConjugacyReport:
    """h(sigma) = inf_beta {chi(beta) + beta' sigma} on a grid, plus exact
    residuals at the solver's own (tau, beta) pairs."""
    if statistic.k != 1:
        raise ValueError("conjugacy grid check supports scalar statistics")
    sigmas = np.asarray(tau_grid, dtype=float).ravel()
    betas = np.asarray(beta_grid, dtype=float).ravel()
    chi = np.array([
        _tilt_best(model, statistic, np.array([b]), grid_tol).chi for b in betas
    ])
    h_vals = np.empty(sigmas.size)
    estimates = np.empty(sigmas.size)
    matched = np.full(sigmas.size, np.nan)
    for i, sig in enumerate(sigmas):
        sp = solve(model, GammaTau(statistic, np.array([sig])))
        h_vals[i] = sp.h_star
        estimates[i] = float(np.min(chi + betas * sig))
        if sp.beta is not None:
            chi_b = _tilt_best(model, statistic, sp.beta, matched_tol).chi
            matched[i] = abs(chi_b + float(sp.beta[0]) * sig - sp.h_star)
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
                    beta_grid, tol: float = 1e-8) -> FamilyTrace:
    """Additive-model family: for each beta, the minimizer of
    beta' E_P T + d(P, P0), i.e. the natural tilt of the game made relative
    to the Bayes act of P0."""
    from .divergence import relative_model
    rel = relative_model(model, model.bayes_act(p0))
    rows = []
    for b in np.atleast_1d(np.asarray(beta_grid, dtype=float)):
        if rel.kind == "relative:log":
            # the tilted minimizer of beta' E T + KL(P, P0) is exact
            kappa, qw = _log_kappa(p0.w, statistic.matrix, np.array([b]))
            tr = TiltResult(beta=np.array([b]), q=Distribution(qw),
                            chi=float(kappa), gap=0.0, method="cumulant")
        else:
            tr = _tilt_best(rel, statistic, np.array([b]), tol=tol)
        tau = statistic.matrix @ tr.q.w
        g = GammaTau(statistic, tau)
        vs = vertices(g)
        h0 = rel.entropy(tr.q)
        sp = _finalize(rel, g, vs, tr.q.w, rel.bayes_act(tr.q), h0,
                       tr.chi, np.array([b]), tr.gap, "lafferty-tilt")
        rows.append(sp)
    rows.sort(key=lambda r: float(r.tau[0]))
    taus = np.array([r.tau for r in rows])
    return FamilyTrace(statistic=statistic, taus=taus, rows=tuple(rows),
                       model_kind=rel.kind)
