"""Newton iterations on stacks of targets, each row as a one-row stack of
it computes them, bit for bit.

The separable dual of the Brier, Bregman and log-face solvers
(`_separable_dual`) and the log dual (`_newton_tilt`) run on a whole tau
chunk at once.  A row that converged takes no further step, every product
is one BLAS or LAPACK call per row (`_matvecs`, `_dots`, stacked matmul
and gufuncs), and a row whose step raises keeps its exception while the
others go on (`_by_slice`).  `_slope_root` is the root finder of their
line searches and of the Frank-Wolfe line search.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .constraints import lstsq_stack
from .core import _dots
from .losses import ConvexGenerator

NEWTON_MAX_ITER = 100    # dual Newton steps in the log, Brier and Bregman solvers
DUAL_TOL = 1e-13         # dual gradient norm, relative to 1 + |tau|_inf
ROOT_MAX_ITER = 100      # slope evaluations per line search
ROOT_TOL = 1e-8          # relative bracket width, or slope against slope(0)


class NewtonDivergence(ArithmeticError):
    """Dual Newton iteration failed to reach the gradient tolerance."""


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


def _matvecs(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x[i] for every row of x (..., n): one BLAS matrix-vector product
    per row, the one a 1-D x takes, one row included; a product of whole
    stacks need not round as the 1-D one does."""
    return (a @ x[..., None])[..., 0]


def _by_slice(fn, *stacks):
    """(fn(*stacks), {}) for an fn whose outputs, a tuple of arrays, are
    stacked like its arguments, each slice computed alone (a gufunc); where
    that raises, fn runs on each slice alone instead, and the outputs hold
    zeros where a slice raised (None when every slice did), with
    {slice: the exception it raised}."""
    try:
        return fn(*stacks), {}
    except Exception:
        pass
    outs, failed = {}, {}
    for i in range(len(stacks[0])):
        try:
            outs[i] = fn(*(stack[i:i + 1] for stack in stacks))
        except Exception as exc:
            failed[i] = exc
    if not outs:
        return None, failed
    stacked = tuple(np.zeros((len(stacks[0]),) + out.shape[1:], out.dtype)
                    for out in next(iter(outs.values())))
    for i, out in outs.items():
        for whole, part in zip(stacked, out):
            whole[i] = part[0]
    return stacked, failed


def _separable_dual(rows: np.ndarray, targets: np.ndarray, mu: np.ndarray,
                    gen: ConvexGenerator, offset=0.0):
    """Maximize y'b - sum mu psi*(A'y - r) by regularized semismooth Newton,
    for every row b of `targets` (m, k+1) at once.

    psi* is the conjugate of the generator on [0, inf), r the entropy's
    linear `offset`, H(P) - P . r, so the gradient is b - A p with p =
    mu (psi')^-1(max(psi'(0), A'y - r)), and the generalized Hessian is
    A diag(mu dp/ds) A' over the active outcomes.  A full step is taken when
    it shrinks the gradient norm, else it is cut at the root of the
    non-increasing directional derivative; neither test compares dual
    values.  A row steps until its gradient norm is within `_dual_tol` of
    its target, or NEWTON_MAX_ITER times, and a row that got there takes no
    further step.  Each product is one BLAS or LAPACK call per row
    (`_matvecs`, stacked matmul, `lstsq_stack`), so every row's iterates
    are those of a one-row stack, bit for bit; the rows whose step was cut
    take their gradients again as a stack of their own.  Returns the last
    iterates (m, k+1), their p (m, n), their gradient norms (m,), and {row:
    the exception its Newton step raised}; such a row steps no further.
    """
    # psi'(0) may be -inf, and a trial step may overflow the density; the
    # gradient-norm test rejects such a step
    with np.errstate(divide="ignore", over="ignore"):
        m, k1 = targets.shape
        floor = float(gen.psi_prime(np.zeros(1))[0])
        tol = _dual_tol(targets)
        # x * 1 and x - 0 are x, bit for bit: a unit mu and a zero offset skip
        # them, which saves about 1 % of a Brier solve each
        unit = bool((mu == 1.0).all())
        shifted = not (isinstance(offset, float) and offset == 0.0)

        def density(s):   # mu (psi')^-1(max(psi'(0), s))
            d = gen.psi_prime_inv(np.maximum(s, floor))
            return d if unit else mu * d

        def gradient(v, b):   # (b - A p, its norm, p, A'v - r)
            s = _matvecs(rows.T, v)
            if shifted:
                s = s - offset
            p = density(s)
            r = b - _matvecs(rows, p)
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
                if cuts:
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


def _dual_tol(target: np.ndarray):
    """The dual gradient tolerance of a target [1; tau], or of each row of a stack."""
    return DUAL_TOL * (1.0 + np.maximum.reduce(np.abs(target), axis=-1))


def _log_kappa(mu: np.ndarray, neg: np.ndarray, beta: np.ndarray):
    """kappa(beta) = log sum mu exp(-beta' t) and the tilted distribution,
    for every row of beta (..., k); `neg` is -T'.  A one-row stack reduces
    as a vector, to scalars, which costs less than reductions along an axis."""
    expo = _matvecs(neg, beta)
    axis = None if expo.shape[0] == 1 and expo.ndim == 2 else -1
    shift = np.maximum.reduce(expo, axis=axis, keepdims=axis is not None)
    expo -= shift
    weights = np.exp(expo, out=expo)
    weights *= mu
    z = np.add.reduce(weights, axis=axis, keepdims=axis is not None)
    weights /= z
    kappa = np.log(z) + shift
    return (kappa[None] if axis is None else kappa[..., 0]), weights


def _newton_tilt(mu, tmat, taus, tol):
    """Minimize kappa(beta) + beta' tau for every row tau of taus (m, k);
    returns (beta, kappa, q, gradient norms) stacked, and {row: exception}.

    Damped Newton accepts a step on the Armijo test alone first, which
    keeps the iterates of every solve that converges that way.  One step
    short of tol the Armijo decrease can fall below float resolution; then
    Newton goes on from where it stopped and also takes any step that
    halves the gradient.  A row still above tol raises NewtonDivergence.
    The rows run as in `_separable_dual`: a row that reached tol takes no
    further step, each product is one BLAS or LAPACK call per row, and a
    row whose step raised keeps its exception; the others' values are
    those of a one-row stack, bit for bit.  A row with an exception keeps
    its last iterate and a zero norm.
    """
    neg = -tmat.T
    beta = np.zeros(taus.shape)
    kappa, q = _log_kappa(mu, neg, beta)
    rows = [beta, kappa, kappa + _dots(beta, taus), q, np.zeros(taus.shape[0])]
    failed = {}
    done = _newton_steps(mu, tmat, neg, taus, tol, rows, False, failed)
    if np.count_nonzero(done) < done.size:
        rest = np.array([j for j in np.flatnonzero(~done).tolist() if j not in failed], int)
        again, late = [x[rest] for x in rows], {}
        done[rest] = _newton_steps(mu, tmat, neg, taus[rest], tol, again, True, late)
        for x, part in zip(rows, again):
            x[rest] = part
        failed.update((int(rest[j]), exc) for j, exc in late.items())
        for j in np.flatnonzero(~done).tolist():
            failed.setdefault(j, NewtonDivergence(
                f"dual Newton stopped with gradient norm above {tol:g}"))
    beta, kappa, _, q, norm = rows
    return beta, kappa, q, norm, failed


def _newton_steps(mu, tmat, neg, taus, tol, rows: list, by_gradient: bool, failed: dict):
    """Newton iterations from every row of [beta, kappa, objective, q,
    gradient norm], which they update (or replace, when every row steps);
    returns the mask of the rows that reached tol.  A row also stops when
    its line search finds no step, and when its step raised, into `failed`."""
    m = taus.shape[0]
    norms = rows[4]
    done = np.zeros(m, dtype=bool)
    act = np.arange(m)
    for _ in range(NEWTON_MAX_ITER):
        at = slice(None) if act.size == m else act
        qa = rows[3][at]
        mean = _matvecs(tmat, qa)
        grad = taus[at] - mean
        norm = np.maximum.reduce(np.abs(grad), axis=1)
        reached = norm <= tol
        if np.count_nonzero(reached):
            done[act[reached]] = True
            norms[act[reached]] = norm[reached]
            more = ~reached
            act, qa, mean, grad, norm = act[more], qa[more], mean[more], grad[more], norm[more]
            at = act
            if not act.size:
                break
        centered = tmat.T - mean[:, None, :]   # each row's (T - T q)'
        cov = (centered * qa[:, :, None]).transpose(0, 2, 1) @ centered
        step, errors = _newton_solve(cov, -grad)
        if errors:
            for j, exc in errors.items():
                failed[int(act[j])] = exc
            more = np.ones(act.size, dtype=bool)
            more[list(errors)] = False
            act, grad, norm, step = act[more], grad[more], norm[more], step[more]
            at = act
            if not act.size:
                break
        slope = _dots(grad, step)
        finite = np.isfinite(step)
        if np.count_nonzero(slope < 0.0) < act.size or np.count_nonzero(finite) < finite.size:
            bad = ~finite.all(axis=1) | (slope >= 0.0)
            step[bad] = -grad[bad]
            slope[bad] = -_dots(grad[bad], grad[bad])
        stuck = _line_search(mu, tmat, neg, taus[at], rows, at, step, slope,
                             norm if by_gradient else None)
        if stuck is not None:   # a line search that found no step stops its row
            act = act[~stuck]
    return done


def _line_search(mu, tmat, neg, taus, rows: list, at, step, slope, norm):
    """Damped steps of `_newton_steps` for the rows `at` of [beta, kappa,
    objective, q]: each row's step length halves from 1, up to 60 times,
    until the Armijo test passes or, with `norm`, the gradient norm halves.
    The step lengths 1, 1/2 and 1/4 run one at a time (`_STEPS`), as most
    searches end there; the trials do not depend on one another, so the
    rest run in one stacked block, where a row takes its first passing
    trial.  The rows take their accepted steps; returns None when every row
    took one, else the mask over `at` of the rows that took none."""
    start, f_start = rows[0][at], rows[2][at]
    index = None   # the rows of beta still searching, once some have taken a step
    for gamma in _STEPS:
        if isinstance(gamma, float):
            cand = start + gamma * step
            kappa, q = _log_kappa(mu, neg, cand)
            f_new = kappa + _dots(cand, taus)
            ok = f_new <= f_start + 1e-4 * gamma * slope
            if norm is not None:
                ok |= np.maximum.reduce(np.abs(taus - _matvecs(tmat, q)), axis=1) <= 0.5 * norm
        else:
            cand = start[:, None, :] + gamma[:, None] * step[:, None, :]   # (row, trial, k)
            kappa, q = _log_kappa(mu, neg, cand)
            f_new = kappa + _dots(cand, taus[:, None, :])
            ok = f_new <= f_start[:, None] + (1e-4 * gamma) * slope[:, None]
            if norm is not None:
                ok |= (np.maximum.reduce(np.abs(taus[:, None, :] - _matvecs(tmat, q)), axis=-1)
                       <= 0.5 * norm[:, None])
            first = ok.argmax(axis=1)   # each row's first passing trial
            cand, kappa, f_new, q = (x[np.arange(len(first)), first]
                                     for x in (cand, kappa, f_new, q))
            ok = ok.any(axis=1)
        count = np.count_nonzero(ok)
        if count == ok.size:   # every row still searching takes this step
            if index is not None:
                rows[0][index], rows[1][index], rows[2][index], rows[3][index] = (
                    cand, kappa, f_new, q)
            elif isinstance(at, slice):   # every row: the new arrays take their place
                rows[:4] = cand, kappa, f_new, q
            else:
                rows[0][at], rows[1][at], rows[2][at], rows[3][at] = cand, kappa, f_new, q
            return None
        if count:
            if index is None:
                index = np.arange(rows[0].shape[0])[at]
                stuck = np.zeros(index.size, dtype=bool)
                searching = np.arange(index.size)   # positions in `at`
            took = index[ok]
            rows[0][took], rows[1][took], rows[2][took], rows[3][took] = (
                cand[ok], kappa[ok], f_new[ok], q[ok])
            wait = ~ok
            index, start, f_start, taus = index[wait], start[wait], f_start[wait], taus[wait]
            step, slope, searching = step[wait], slope[wait], searching[wait]
            norm = None if norm is None else norm[wait]
    if index is None:
        return np.ones(len(step), dtype=bool)
    stuck[searching] = True
    return stuck


# the step lengths of `_line_search`: 1, 1/2 and 1/4 one at a time, then
# 2^-3 ... 2^-59 in one block
_STEPS = (1.0, 0.5, 0.25, np.ldexp(1.0, -np.arange(3, 60)))


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _newton_solve(cov: np.ndarray, rhs: np.ndarray):
    """np.linalg.solve(cov[i], rhs[i]) for every row, in one call of its
    LAPACK gesv gufunc under its errstate; a singular cov[i] takes lstsq's
    solution instead, as in the 1-D call, and a row whose lstsq raises too
    gets a zero step and its exception in {row: exception}."""
    try:
        with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            return _umath_linalg.solve1(cov, rhs, signature="dd->d"), {}
    except np.linalg.LinAlgError:
        pass
    step, failed = np.zeros_like(rhs), {}
    for j in range(rhs.shape[0]):
        try:
            step[j] = np.linalg.solve(cov[j], rhs[j])
        except np.linalg.LinAlgError:
            try:
                step[j] = lstsq_stack(cov[j], rhs[j])[0][:, 0]
            except np.linalg.LinAlgError as exc:
                failed[j] = exc
    return step, failed
