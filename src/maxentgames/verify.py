"""Independent game-theoretic checks: restricted upper values, saddle-point
certificates, and the equal-loss set.  The point-act game is the solver's
(`maxent`); `lp_game_value` stays importable here for `perfbench/tracer.py`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import GammaTau, closed_under_conditioning, max_expectation, max_expectations
from .core import Act, Distribution, ext_dot, raised
from .losses import LossModel
from .maxent import lp_game_value, point_act_losses, point_act_saddle, solve

BAYES_TOL = 1e-8     # largest bayes_margin of a certified saddle
VERTEX_TOL = 1e-7    # largest vertex_margin of a certified saddle
U_SET_TOL = 1e-8     # loss band of the set U, and the P* mass U may miss


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
