"""Derived statistical games over a finite family of distributions.

Each member P_w of the family is a parameter value; the derived loss of an
act at w is the base-game discrepancy D(P_w, act).  The derived entropy of a
prior is the information value H(P_mix) - sum_w pi(w) H(P_w), and its maximum
over priors is the capacity of the family, attained together with a minimax
act (the Bayes act of the capacity-achieving mixture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Act, DimensionMismatch, Distribution, ext_dots, validate_distribution
from .divergence import discrepancy
from .losses import LogModel, LossModel
from .maxent import MaxIterExceeded, _mixture_max

UPSILON_TOL = 1e-6        # relative width of the top derived-loss band
EQUALIZATION_TOL = 1e-5
BA_MAX_ITER = 10000       # prior evaluations in blahut_arimoto
BA_RESTART_TOL = 1e-14    # relative drop of its lower bound that restarts the momentum
BA_LOG_FLOOR = -600.0     # its log prior weights, relative to the largest, are raised to this
FW_CAPACITY_FACTOR = 1e-3  # Frank-Wolfe gap target, relative to min(tol, UPSILON_TOL)


@dataclass(frozen=True)
class StatModel:
    """Finite family of distributions sharing a loss model."""

    model: LossModel
    omegas: tuple

    def __post_init__(self) -> None:
        members = tuple(
            p if isinstance(p, Distribution) else Distribution(np.asarray(p, float))
            for p in self.omegas
        )
        if not members:
            raise DimensionMismatch("a statistical model needs at least one member")
        n = self.model.space.n
        if any(p.n != n for p in members):
            raise DimensionMismatch("members must live on the model's sample space")
        matrix = np.array([p.w for p in members])
        matrix.flags.writeable = False
        entropies = np.array([self.model.entropy(p) for p in members])
        if not np.all(np.isfinite(entropies)):
            raise ArithmeticError("member entropies must be finite")
        entropies.flags.writeable = False
        object.__setattr__(self, "omegas", members)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_entropies", entropies)

    @property
    def m(self) -> int:
        return len(self.omegas)

    @property
    def labels(self) -> tuple:
        """("w0", "w1", ...), one label per member, in order."""
        return tuple(f"w{i}" for i in range(self.m))

    @property
    def member_matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def member_entropies(self) -> np.ndarray:
        return self._entropies

    def mixture(self, prior) -> Distribution:
        return Distribution(validate_distribution(prior, self.m).w @ self._matrix)


@dataclass(frozen=True)
class CapacityResult:
    pi_star: Distribution   # prior over the members
    act_star: Act
    i_star: float
    upsilon: np.ndarray   # members whose derived loss reaches i_star
    iterations: int
    gap: float
    method: str


def derived_loss(sm: StatModel, omega_index: int, act: Act) -> float:
    """Derived game loss at member omega_index: D(P_w, act) in the base game."""
    return discrepancy(sm.model, sm.omegas[omega_index], act)


def value_of_information(sm: StatModel, prior) -> float:
    """H(P_mix) - sum_w pi(w) H(P_w); nonnegative by concavity of H."""
    pi = validate_distribution(prior, sm.m)
    mix = sm.mixture(pi)
    return float(sm.model.entropy(mix) - pi.w @ sm.member_entropies)


def _upsilon(lhat: np.ndarray, value: float) -> np.ndarray:
    return np.flatnonzero(np.abs(lhat - value) <= UPSILON_TOL * max(1.0, abs(value)))


def _derived_losses(sm: StatModel, act: Act) -> np.ndarray:
    lv = sm.model.loss_vector(act)
    return ext_dots(sm.member_matrix, lv) - sm.member_entropies


def capacity_gap_target(tol: float) -> float:
    """The gap `capacity_solve` runs Frank-Wolfe to for a value tolerance tol."""
    return FW_CAPACITY_FACTOR * min(tol, UPSILON_TOL)


def capacity_solve(sm: StatModel, tol: float = 1e-6) -> CapacityResult:
    """Maximize the information value over priors.

    Two routes are exact, with `iterations` 0: Brier, quadratic loss and
    their relative games, whose information value is a concave quadratic
    (Brier's w . diag(G) - w' G w, G = V V', V the members), by the
    active-set QP over the prior simplex ("active-set"), and losses affine
    in a distribution act (zero-one) by the matrix game of members against
    pure point-guess acts ("matrix-game").  Every other
    loss runs pairwise conditional gradient, whose supergradient
    coordinate at w is the derived loss of the current mixture's Bayes
    act, to a gap of FW_CAPACITY_FACTOR * min(tol, UPSILON_TOL): a gap of
    tol alone can leave members with mass outside the upsilon band.  There
    `method` is "frank-wolfe" and `iterations` counts its iterations.  A
    certified gap above tol raises MaxIterExceeded carrying the result.
    """
    res = _mixture_max(sm.model, sm.member_matrix, sm.member_entropies,
                       capacity_gap_target(tol))
    if res.gap > tol:
        raise MaxIterExceeded(f"capacity iteration {res.how} with gap {res.gap:.3e}", res)
    w = res.weights
    pi = Distribution(np.maximum(w, 0.0) / max(w.sum(), 1e-300))
    return CapacityResult(
        pi_star=pi,
        act_star=res.act,
        i_star=res.value,
        upsilon=_upsilon(_derived_losses(sm, res.act), res.value),
        iterations=res.iterations,
        gap=res.gap,
        method=res.method,
    )


def blahut_arimoto(sm: StatModel, tol: float = 1e-10) -> CapacityResult:
    """Alternating-maximization capacity oracle for the log model.

    Blahut-Arimoto with restarted momentum on the log-prior u (accelerated
    as in Matz & Duhamel, ITW 2004; restarted as in O'Donoghue & Candes,
    Found. Comput. Math. 2015).  Each iteration evaluates KL(P_w || P_mix)
    at the prior pi proportional to exp(y), y = u + k / (k + 3) (u - u_prev),
    and the sandwich il = log sum_w pi_w exp(KL_w) <= capacity <= iu =
    max_w KL_w, which holds at every prior.  It stops at iu - il <= tol, with
    value il and `pi_star` that prior.  Otherwise it takes the textbook
    multiplicative step from y, u <- y + KL - max KL, and k grows by one;
    but where il falls more than BA_RESTART_TOL * max(1, |last|) below the
    il `last` of the last step taken, the step is dropped and k restarts at
    0: the next prior is exp(u), the textbook step from that point, whose il
    is no lower.  Log weights more than -BA_LOG_FLOOR below the largest are
    raised to the floor; such a weight moves neither bound, and it keeps
    P_mix positive where a member of vanishing weight alone charges an
    outcome.  KL(P_w || P_mix) is sum_x P_w log P_w, a per-member constant,
    minus P_w . log P_mix over the outcomes some member charges.  Nothing is
    read from the conditional-gradient route.  A gap above tol after
    BA_MAX_ITER evaluations raises MaxIterExceeded.
    """
    if not isinstance(sm.model, LogModel):
        raise ValueError("blahut_arimoto applies to the log model only")
    charged = sm.member_matrix[:, sm.member_matrix.any(axis=0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        neg = np.where(charged > 0.0, charged * np.log(charged), 0.0).sum(axis=1)
    u = u_prev = np.full(sm.m, -np.log(sm.m))
    k = 0
    last, il, iu = -np.inf, np.nan, np.nan
    for it in range(1, BA_MAX_ITER + 1):
        y = u + (k / (k + 3.0)) * (u - u_prev)
        pi = np.exp(np.maximum(y - y.max(), BA_LOG_FLOOR))
        pi /= pi.sum()
        kl = neg - charged @ np.log(pi @ charged)
        iu = float(kl.max())
        il = iu + float(np.log(pi @ np.exp(kl - iu)))
        if iu - il <= tol:
            break
        if il < last - BA_RESTART_TOL * max(1.0, abs(last)):
            k = 0
        else:
            last = il
            u_prev, u, k = u, y + kl - iu, k + 1
    else:
        raise MaxIterExceeded(f"alternating updates left gap {iu - il:.3e}")
    mixd = Distribution(pi @ sm.member_matrix)
    act = sm.model.bayes_act(mixd)
    lhat = _derived_losses(sm, act)
    value = float(il)
    return CapacityResult(
        pi_star=Distribution(pi),
        act_star=act,
        i_star=value,
        upsilon=_upsilon(lhat, value),
        iterations=it,
        gap=float(iu - il),
        method="blahut-arimoto",
    )


@dataclass(frozen=True)
class EqualizationReport:
    losses: np.ndarray            # derived loss of act_star at every member
    upsilon_spread: float
    upsilon_constant: bool
    is_equalizer: bool            # constant across the whole family
    slack_members: np.ndarray     # members with loss strictly below i_star


def equalization_report(result: CapacityResult, sm: StatModel) -> EqualizationReport:
    """Derived losses of the minimax act: constant on upsilon, and strictly
    smaller off it exactly when the act is not an equalizer over the family;
    both read within EQUALIZATION_TOL."""
    lhat = _derived_losses(sm, result.act_star)
    ups = result.upsilon
    if ups.size:
        spread = float(lhat[ups].max() - lhat[ups].min())
    else:
        spread = 0.0
    slack = np.flatnonzero(lhat < result.i_star - EQUALIZATION_TOL)
    is_eq = bool(np.max(np.abs(lhat - result.i_star)) <= EQUALIZATION_TOL)
    return EqualizationReport(
        losses=lhat,
        upsilon_spread=spread,
        upsilon_constant=bool(spread <= EQUALIZATION_TOL),
        is_equalizer=is_eq,
        slack_members=slack,
    )
