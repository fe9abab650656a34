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

from .core import ACT_DISTRIBUTION, Act, DimensionMismatch, Distribution
from .divergence import discrepancy
from .losses import LossModel
from .maxent import FW_MAX_ITER, MaxIterExceeded, _ext_dots, _fw_maximize
from .verify import point_act_game

UPSILON_TOL = 1e-6        # relative width of the top derived-loss band
EQUALIZATION_TOL = 1e-5
FW_CAPACITY_FACTOR = 1e-3  # Frank-Wolfe gap target, relative to min(tol, UPSILON_TOL)


@dataclass(frozen=True)
class StatModel:
    """Finite family of distributions sharing a loss model."""

    model: LossModel
    omegas: tuple
    labels: tuple | None = None

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
        labels = self.labels
        if labels is None:
            labels = tuple(f"w{i}" for i in range(len(members)))
        labels = tuple(str(u) for u in labels)
        if len(labels) != len(members):
            raise DimensionMismatch("one label per member required")
        matrix = np.array([p.w for p in members])
        matrix.flags.writeable = False
        entropies = np.array([self.model.entropy(p) for p in members])
        if not np.all(np.isfinite(entropies)):
            raise ArithmeticError("member entropies must be finite")
        entropies.flags.writeable = False
        object.__setattr__(self, "omegas", members)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_entropies", entropies)

    @property
    def m(self) -> int:
        return len(self.omegas)

    @property
    def member_matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def member_entropies(self) -> np.ndarray:
        return self._entropies

    def mixture(self, prior: "Prior") -> Distribution:
        pi = _as_prior(prior, self.m)
        return Distribution(pi.pi.w @ self._matrix)


@dataclass(frozen=True)
class Prior:
    """Probability vector over the members of a StatModel."""

    pi: Distribution

    def __post_init__(self) -> None:
        p = self.pi
        if not isinstance(p, Distribution):
            p = Distribution(np.asarray(p, dtype=float))
        object.__setattr__(self, "pi", p)

    @property
    def m(self) -> int:
        return self.pi.n

    @classmethod
    def uniform(cls, m: int) -> "Prior":
        return cls(Distribution.uniform(m))


def _as_prior(prior, m: int) -> Prior:
    if not isinstance(prior, Prior):
        prior = Prior(prior)
    if prior.m != m:
        raise DimensionMismatch(f"prior has {prior.m} weights for {m} members")
    return prior


@dataclass(frozen=True)
class CapacityResult:
    pi_star: Prior
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
    pi = _as_prior(prior, sm.m)
    mix = sm.mixture(pi)
    return float(sm.model.entropy(mix) - pi.pi.w @ sm.member_entropies)


def _upsilon(lhat: np.ndarray, value: float) -> np.ndarray:
    return np.flatnonzero(np.abs(lhat - value) <= UPSILON_TOL * max(1.0, abs(value)))


def _derived_losses(sm: StatModel, act: Act) -> np.ndarray:
    lv = sm.model.loss_vector(act)
    return _ext_dots(sm.member_matrix, lv) - sm.member_entropies


def capacity_solve(sm: StatModel, tol: float = 1e-6) -> CapacityResult:
    """Maximize the information value over priors.

    Losses affine in a distribution act (zero-one) are solved exactly, and
    first, by the matrix game of members against pure point-guess acts:
    `method` is "matrix-game" and `iterations` is 0.  Every other loss runs
    pairwise conditional gradient, whose supergradient coordinate at w is
    the derived loss of the current mixture's Bayes act, to a gap of
    FW_CAPACITY_FACTOR * min(tol, UPSILON_TOL): a gap of tol alone can
    leave members with mass outside the upsilon band.  There `method` is
    "frank-wolfe" and `iterations` counts its iterations.
    """
    mmat = sm.member_matrix
    ents = sm.member_entropies
    model = sm.model
    res = None
    act = None
    game = point_act_game(model, mmat, ents)
    if game is not None:
        pi_vec, value = game.row_strategy, float(game.value)
        act = Act(ACT_DISTRIBUTION, game.col_strategy)
        gap = max(0.0, float(_derived_losses(sm, act).max() - value))
        iters, method = 0, "matrix-game"
    else:
        def value_batch(block):
            w = np.maximum(block, 0.0)
            return model.entropy_batch(w @ mmat) - w @ ents

        def supergrad(pi):
            mix = np.maximum(pi @ mmat, 0.0)
            mixd = Distribution(mix / mix.sum())
            lv = model.loss_vector(model.bayes_act(mixd))
            return _ext_dots(mmat, lv) - ents

        res = _fw_maximize(np.eye(sm.m), value_batch, supergrad,
                           FW_CAPACITY_FACTOR * min(tol, UPSILON_TOL), FW_MAX_ITER)
        pi_vec, value, gap = res.point, res.value, res.gap
        iters, method = res.iterations, "frank-wolfe"
    if gap > tol:
        how = "stalled" if res is not None and res.stalled else f"after {iters} iterations"
        raise MaxIterExceeded(f"capacity iteration {how} with gap {gap:.3e}", res)
    pi = Prior(Distribution(np.maximum(pi_vec, 0.0) / max(pi_vec.sum(), 1e-300)))
    if act is None:
        act = model.bayes_act(sm.mixture(pi))
    lhat = _derived_losses(sm, act)
    return CapacityResult(
        pi_star=pi,
        act_star=act,
        i_star=float(value),
        upsilon=_upsilon(lhat, float(value)),
        iterations=iters,
        gap=float(gap),
        method=method,
    )


def blahut_arimoto(sm: StatModel, tol: float = 1e-10,
                   max_iter: int = 10000) -> CapacityResult:
    """Alternating-maximization capacity oracle for the log model.

    Standard multiplicative updates pi <- pi * exp(KL(P_w || P_mix)) with the
    log-sum / log-max sandwich as the stopping rule; independent of the
    conditional-gradient route.
    """
    if sm.model.kind != "log":
        raise ValueError("blahut_arimoto applies to the log model only")
    mmat = sm.member_matrix
    pi = np.full(sm.m, 1.0 / sm.m)
    il = iu = np.nan
    for it in range(1, max_iter + 1):
        mix = pi @ mmat
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(mmat > 0.0, mmat * np.log(mmat / mix), 0.0)
        kl = terms.sum(axis=1)
        shift = float(kl.max())
        c = np.exp(kl - shift)
        il = shift + float(np.log(pi @ c))
        iu = shift
        if iu - il <= tol:
            break
        pi = pi * c
        pi /= pi.sum()
    else:
        raise MaxIterExceeded(f"alternating updates left gap {iu - il:.3e}")
    prior = Prior(Distribution(pi))
    mixd = Distribution(pi @ mmat)
    act = sm.model.bayes_act(mixd)
    lhat = _derived_losses(sm, act)
    value = float(il)
    return CapacityResult(
        pi_star=prior,
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


def equalization_report(result: CapacityResult, sm: StatModel,
                        tol: float = EQUALIZATION_TOL) -> EqualizationReport:
    """Derived losses of the minimax act: constant on upsilon, and strictly
    smaller off it exactly when the act is not an equalizer over the family."""
    lhat = _derived_losses(sm, result.act_star)
    ups = result.upsilon
    if ups.size:
        spread = float(lhat[ups].max() - lhat[ups].min())
    else:
        spread = 0.0
    slack = np.flatnonzero(lhat < result.i_star - tol)
    is_eq = bool(np.max(np.abs(lhat - result.i_star)) <= tol)
    return EqualizationReport(
        losses=lhat,
        upsilon_spread=spread,
        upsilon_constant=bool(spread <= tol),
        is_equalizer=is_eq,
        slack_members=slack,
    )
