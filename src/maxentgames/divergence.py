"""Decision-theoretic discrepancies, divergences, relative games, and
Pythagorean / equalizer diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._newton import _by_slice
from .core import (
    Act,
    Distribution,
    _checked_rows,
    attempt,
    distribution_rows,
    ext_dot,
    ext_dots,
    raised,
    validate_distribution,
)
from .losses import LossModel

EQUALIZER_TOL = 1e-8
PYTHAGOREAN_TOL = 1e-8


class InfiniteReferenceLoss(ValueError):
    """Reference act must have a finite loss at every outcome."""


def discrepancy(model: LossModel, dist: Distribution, act: Act) -> float:
    """D(P, act) = E_P L(X, act) - H(P); nonnegative, zero iff act is Bayes."""
    return model.expected_loss(dist, act) - model.entropy(dist)


def div(model: LossModel, p: Distribution, q: Distribution) -> float:
    """d(P, Q) = D(P, zeta_Q), the divergence induced by the canonical Bayes act of Q."""
    return discrepancy(model, p, model.bayes_act(q))


@dataclass(frozen=True)
class MixtureIdentityReport:
    entropy_lhs: float
    entropy_rhs: float
    div_lhs: float
    div_rhs: float

    @property
    def entropy_residual(self) -> float:
        return abs(self.entropy_lhs - self.entropy_rhs)

    @property
    def div_residual(self) -> float:
        return abs(self.div_lhs - self.div_rhs)


def mixture_identities(model: LossModel, parts, weights, q: Distribution) -> MixtureIdentityReport:
    """Check the compensation identities for a finite mixture P-bar = sum w_i P_i:

    H(P-bar) = sum w_i H(P_i) + sum w_i d(P_i, P-bar)
    d(P-bar, Q) = sum w_i d(P_i, Q) - sum w_i d(P_i, P-bar)
    """
    parts = distribution_rows(parts, model.space.n)
    w = validate_distribution(weights, len(parts)).w
    terms = identity_terms(model, parts[None], w[None], q.w[None])
    return MixtureIdentityReport(*(float(t[0]) for t in terms))


def identity_terms(model: LossModel, parts: np.ndarray, weights: np.ndarray,
                   q: np.ndarray):
    """The two sides of both compensation identities for m mixtures at once:
    parts (m, r, N) and q (m, N) are checked laws, weights (m, r) the
    mixture weights.  Returns (entropy_lhs, entropy_rhs, div_lhs, div_rhs),
    each of shape (m,), as `mixture_identities` reports them per mixture.
    """
    m, r, n = parts.shape
    flat = parts.reshape(m * r, n)
    mixed = _checked_rows(np.matmul(weights[:, None, :], parts)[:, 0])
    mix_losses, q_losses = model.bayes_losses(mixed), model.bayes_losses(q)
    h_parts = model.entropy_batch(flat).reshape(m, r)
    h_mixed = model.entropy_batch(mixed)
    d_to_mix = ext_dots(flat, np.repeat(mix_losses, r, axis=0)).reshape(m, r) - h_parts
    d_to_q = ext_dots(flat, np.repeat(q_losses, r, axis=0)).reshape(m, r) - h_parts

    def mean(d):
        return np.einsum("ij,ij->i", weights, d)

    return (h_mixed, mean(h_parts) + mean(d_to_mix),
            ext_dots(mixed, q_losses) - h_mixed, mean(d_to_q) - mean(d_to_mix))


def find_neutral(model: LossModel) -> Act | None:
    """The Bayes act of the law mu / sum mu when its loss is finite and
    constant, else None.

    mu is the base measure of a separable entropy (`separable`), else the
    counting measure: the uniform forecast for the Brier and zero-one games,
    the constant density 1 / sum mu for the log and separable Bregman games.
    """
    sep = model.separable()
    mu = np.ones(model.space.n) if sep is None else sep[1]
    act = model.bayes_act(Distribution(mu / mu.sum()))
    lv = model.loss_vector(act)
    if not np.all(np.isfinite(lv)) or float(lv.max() - lv.min()) > 1e-9:
        return None
    return act


class RelativeModel(LossModel):
    """Loss model with a reference act's loss subtracted pointwise.

    Bayes acts are unchanged; H0(P) = -D(P, reference)."""

    def __init__(self, base: LossModel, reference_act: Act):
        ref_vec = base.loss_vector(reference_act)
        if not np.all(np.isfinite(ref_vec)):
            raise InfiniteReferenceLoss(
                "reference act has infinite loss at some outcome"
            )
        self.base = base
        self.reference_act = reference_act
        self.reference_losses = ref_vec
        self.space = base.space
        self.name = f"relative[{base.name}]"
        self.kind = f"relative:{base.kind}"
        self.act_kind = base.act_kind

    def loss_vector(self, act: Act) -> np.ndarray:
        return self.base.loss_vector(act) - self.reference_losses

    def _loss_matrix(self, block) -> np.ndarray:
        return self.base.loss_matrix(block) - self.reference_losses

    def bayes_act(self, dist: Distribution) -> Act:
        return self.base.bayes_act(dist)

    def entropy(self, dist: Distribution) -> float:
        return self.base.entropy(dist) - ext_dot(dist.w, self.reference_losses)

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.base.entropy_batch(rows) - np.einsum("ij,j->i", rows, self.reference_losses)

    def bayes_losses(self, rows: np.ndarray) -> np.ndarray:
        return self.base.bayes_losses(rows) - self.reference_losses

    def bayes_act_set(self, dist: Distribution):
        return self.base.bayes_act_set(dist)

    def random_act(self, rng: np.random.Generator) -> Act:
        return self.base.random_act(rng)

    def _random_acts(self, rng: np.random.Generator, trials: int):
        return self.base.random_acts(rng, trials)


def relative_model(model: LossModel, reference: Act) -> RelativeModel:
    return RelativeModel(model, reference)


@dataclass(frozen=True)
class EqualizerReport:
    is_equalizer: bool
    spread: float
    values: np.ndarray


@dataclass(frozen=True)
class PythagoreanReport:
    slacks: np.ndarray
    min_slack: float
    max_slack: float
    equality: bool


def equalizer_check(model: LossModel, test_points, act: Act,
                    tol: float = EQUALIZER_TOL) -> EqualizerReport:
    """Is E_P L(X, act) constant over the test points (within tol)?"""
    losses = [attempt(model.loss_vector, act)]
    return raised(equalizer_reports(model, [test_points], losses, tol)[0])


def pythagorean_check(model: LossModel, test_points, p_star: Distribution,
                      zeta_star: Act, zeta0: Act) -> PythagoreanReport:
    """Slack of D(P, zeta*) + D(P*, zeta0) <= D(P, zeta0) at each test point.

    slack(P) = D(P, zeta0) - D(P, zeta*) - D(P*, zeta0); nonnegative under a
    saddle point, identically ~0 exactly when zeta* is an equalizer in the
    relative game, read as every slack within PYTHAGOREAN_TOL of zero.
    """
    losses = [attempt(model.loss_vector, zeta_star)]
    return raised(pythagorean_reports(model, [test_points], [p_star], losses,
                                      attempt(model.loss_vector, zeta0))[0])


def equalizer_reports(model: LossModel, point_lists: list, losses: list,
                      tol: float = EQUALIZER_TOL) -> list:
    """`equalizer_check` of each entry of `point_lists` against the loss
    vector L(., act) in the same place of `losses`, or the exception that
    building it raised; each report, or the exception its check raises,
    kept in place.  The points are checked as one stack (`_point_blocks`)."""
    blocks = _point_blocks(point_lists, model.space.n)
    return [attempt(_equalizer_report, points, lv, tol) for points, lv in zip(blocks, losses)]


def _equalizer_report(points, lv, tol: float) -> EqualizerReport:
    vals = _expectations(points, lv)
    if np.isinf(vals).any():
        return EqualizerReport(False, float(np.inf), vals)
    spread = float(vals.max() - vals.min()) if vals.size else 0.0
    return EqualizerReport(spread <= tol, spread, vals)


def pythagorean_reports(model: LossModel, point_lists: list, p_stars: list, losses: list,
                        lv0) -> list:
    """`pythagorean_check` of each entry of `point_lists`, with the P* and
    the loss vector L(., zeta*) (or the exception that building it raised)
    in the same places of `p_stars` and `losses`, against one L(., zeta0),
    `lv0`, or the exception that building it raised; each report, or the
    exception its check raises, kept in place.  The points are checked as
    one stack (`_point_blocks`)."""
    blocks = _point_blocks(point_lists, model.space.n)
    return [attempt(_pythagorean_report, model, points, p_star, lv, lv0)
            for points, p_star, lv in zip(blocks, p_stars, losses)]


def _pythagorean_report(model: LossModel, points, p_star: Distribution, lv,
                        lv0) -> PythagoreanReport:
    points, lv0 = raised(points), raised(lv0)
    pivot = ext_dot(p_star.w, lv0) - model.entropy(p_star)   # D(P*, zeta0)
    # H(P) cancels from D(P, zeta0) - D(P, zeta*)
    slacks = _expectations(points, lv0) - _expectations(points, lv) - pivot
    min_slack = float(slacks.min()) if slacks.size else 0.0
    max_slack = float(slacks.max()) if slacks.size else 0.0
    equality = bool(abs(min_slack) <= PYTHAGOREAN_TOL and abs(max_slack) <= PYTHAGOREAN_TOL)
    return PythagoreanReport(slacks, min_slack, max_slack, equality)


def _loss_rows(model: LossModel, acts: list) -> list:
    """L(., act) for each act of the model's act kind, or the exception that
    building it raised, kept in place: one `loss_matrix` call, and one per
    act only where that raises (`_by_slice`)."""
    if not acts:
        return []
    found, errors = _by_slice(lambda block: (model.loss_matrix(block),),
                              np.array([act.payload for act in acts]))
    return [errors[i] if i in errors else found[0][i] for i in range(len(acts))]


def _point_blocks(point_lists: list, n: int) -> list:
    """`distribution_rows(points, n)` of each entry, or the exception it
    raises, kept in place: the blocks are checked as one stack, and one at a
    time only when the stack fails."""
    try:
        sizes = [len(points) for points in point_lists]
        stack = _checked_rows(np.concatenate(point_lists, dtype=float).reshape(sum(sizes), n))
    except Exception:
        return [attempt(distribution_rows, points, n) for points in point_lists]
    return [stack[end - size:end] for size, end in zip(sizes, accumulate(sizes))]


def _expectations(points, lv) -> np.ndarray:
    """ext_dots(points, lv) for a checked block of points, each argument
    possibly the exception kept in its place: points @ lv when lv is
    finite, which is what ext_dots computes then."""
    points, lv = raised(points), raised(lv)
    return points @ lv if np.isfinite(lv).all() else ext_dots(points, lv)
