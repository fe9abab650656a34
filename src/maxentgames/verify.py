"""Independent game-theoretic checks: LP values of finite zero-sum games,
restricted upper values, saddle-point certificates, and the equal-loss set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _simplex
from .constraints import (GammaTau, closed_under_conditioning, max_expectation,
                          max_expectations, min_max_expectation)
from .core import ACT_DISTRIBUTION, Act, Distribution, ext_dot, raised
from .losses import LossModel

DUALITY_TOL = 1e-9
BAYES_TOL = 1e-8     # largest bayes_margin of a certified saddle
VERTEX_TOL = 1e-7    # largest vertex_margin of a certified saddle
U_SET_TOL = 1e-8     # loss band of the set U, and the P* mass U may miss


@dataclass(frozen=True)
class GameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    row_guarantee: float   # min over columns of the row strategy's payoff
    col_guarantee: float   # max over rows of the column strategy's payoff


def lp_game_value(payoff) -> GameSolution:
    """Value and optimal mixed strategies of a finite zero-sum game.

    One LP, on the shifted-positive matrix Lp, by the in-house dense
    simplex: the column player's max 1'z s.t. Lp z + s = 1.  The row
    player's strategy is its dual, read off the reduced costs of the slack
    columns: u = max(reduced[s], 0) has Lp'u >= 1 and sum u = sum z at the
    optimum.  The strategies certify themselves: raises ArithmeticError
    when col_guarantee - row_guarantee exceeds DUALITY_TOL * max(1, |value|).
    """
    L = np.asarray(payoff, dtype=float)
    if L.ndim != 2:
        raise ValueError("payoff must be a matrix")
    m, n = L.shape
    if not np.all(np.isfinite(L)):
        raise ValueError("payoff entries must be finite")
    shift = 1.0 - float(L.min())
    a = np.hstack([L + shift, np.eye(m)])
    c = np.concatenate([-np.ones(n), np.zeros(m)])
    x, _, reduced = _simplex.solve_lp(c, a, np.ones(m))
    z = x[:n]
    u = np.maximum(reduced[n:], 0.0)
    v = 1.0 / float(z.sum())
    col = z * v
    row = u / float(u.sum())
    value = v - shift
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
    """The game of P in Gamma_tau against mixtures zeta of the point acts
    of L, payoff P @ L @ zeta: max over P of min_j P . L[:, j] is one LP,
    `min_max_expectation` with columns max L - L.  Returns (value, P*,
    zeta*), zeta* being the LP's dual weights on the columns."""
    top = float(L.max())
    (found,) = min_max_expectation(g.statistic.matrix, g.tau[None], top - L)
    value, p, _, zeta = raised(found)
    zeta = np.maximum(zeta, 0.0)
    return top - value, p, zeta / zeta.sum()


@dataclass(frozen=True)
class UpperValueResult:
    value: float
    method: str
    margin: float   # certificate slack; see restricted_upper_value


def restricted_upper_value(model: LossModel, g: GammaTau) -> UpperValueResult:
    """inf over acts of sup over Gamma_tau of the expected loss.

    Losses affine in a distribution act (zero-one): exact, as the value of
    the game of Gamma_tau against mixtures of point guesses, one LP
    (`point_act_saddle`).  Other models: the solver's act is certified by
    its worst-case loss over Gamma_tau, one LP (`max_expectation`); margin =
    that loss minus the claimed game value.
    """
    L = point_act_losses(model)
    if L is not None:
        return UpperValueResult(value=point_act_saddle(g, L)[0], method="lp", margin=0.0)
    from .maxent import solve  # deferred: maxent imports this module
    sp = solve(model, g)
    worst = max_expectation(g, model.loss_vector(sp.zeta_star))
    return UpperValueResult(value=worst, method="certificate", margin=worst - sp.h_star)


@dataclass(frozen=True)
class SaddleCheck:
    bayes_margin: float    # |L(P*, zeta*) - H(P*)|
    vertex_margin: float   # sup over Gamma_tau of L(P, zeta*) - L(P*, zeta*)
    is_saddle: bool        # both margins within BAYES_TOL and VERTEX_TOL


def verify_saddle(model: LossModel, g: GammaTau, p_star: Distribution,
                  zeta_star: Act) -> SaddleCheck:
    """Certify both saddle-point inequalities: the one-row call of
    `verify_grid`.

    The Bayes inequality is checked at P*.  The other one,
    sup over P in Gamma_tau of E_P L(X, zeta*) <= L(P*, zeta*), is one LP
    over Gamma_tau (`max_expectations`); its supremum sits at a vertex, but
    the vertex list is not built, so no size cap applies.
    """
    return raised(verify_grid(model, [g], [p_star], [zeta_star])[0])


def verify_grid(model: LossModel, gammas: list, p_stars: list, zeta_stars: list) -> list:
    """Both saddle-point inequalities at each (Gamma_tau, P*, zeta*): per
    row, its SaddleCheck or the exception it raises, in place.  One row is
    `verify_saddle`.

    The Bayes margin |L(P*, zeta*) - H(P*)| is checked row by row; the
    certificate LPs of sup over Gamma_tau of E_P L(X, zeta*) for all the
    rows run stacked (`max_expectations`), grouped by the mask of their
    finite losses, and the vertex margin is that supremum minus L(P*, zeta*).
    """
    out, pending = [], []
    for p_star, zeta_star in zip(p_stars, zeta_stars):
        try:
            lv = model.loss_vector(zeta_star)
            at_p = ext_dot(p_star.w, lv)
            out.append((lv, at_p, abs(at_p - model.entropy(p_star))))
            pending.append(len(out) - 1)
        except Exception as exc:
            out.append(exc)
    tops = max_expectations([gammas[i] for i in pending], [out[i][0] for i in pending])
    for i, top in zip(pending, tops):
        if isinstance(top, Exception):
            out[i] = top
            continue
        _, at_p, margin = out[i]
        vertex_margin = top - at_p
        out[i] = SaddleCheck(float(margin), vertex_margin,
                             bool(margin <= BAYES_TOL and vertex_margin <= VERTEX_TOL))
    return out


@dataclass(frozen=True)
class USetReport:
    u_set: np.ndarray        # outcome indices with L(x, zeta*) = H*
    p_star_mass: float
    supported: bool          # P*(U) >= 1 - U_SET_TOL
    applicable: bool | None  # requires Gamma closed under conditioning


def u_set_check(model: LossModel, zeta_star: Act, h_star: float,
                p_star: Distribution, g: GammaTau | None = None) -> USetReport:
    """U = {x : L(x, zeta*) = H*} must carry all P* mass.

    The conclusion relies on Gamma being closed under conditioning; when a
    constraint set is supplied the report says whether that premise holds.
    """
    lv = model.loss_vector(zeta_star)
    u = np.flatnonzero(np.abs(lv - h_star) <= U_SET_TOL)
    mass = float(p_star.w[u].sum())
    applicable = None if g is None else closed_under_conditioning(g)
    return USetReport(u, mass, bool(mass >= 1.0 - U_SET_TOL), applicable)
