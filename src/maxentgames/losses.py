"""Loss models on a finite outcome space.

Each model knows its pointwise loss, its Bayes acts, and the induced
generalized entropy H(P) = inf_a E_P L(X, a).  Bundled models:

- Brier score over probability forecasts, H(P) = 1 - sum p^2
- logarithmic score over densities against a base measure, H(P) = -sum p log(p / mu)
- zero-one loss over randomized point guesses, H(P) = 1 - max p
- squared-error loss over scalar point estimates, H(P) = Var_P(V)
- separable Bregman scores built from a convex generator psi
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    ACT_SCALAR,
    Act,
    BaseMeasure,
    DimensionMismatch,
    Distribution,
    NORM_TOL,
    NotNormalized,
    SampleSpace,
    WEIGHT_CLAMP,
    ext_dot,
)

MODE_TOL = 1e-9        # probability ties within this count as joint modes
STRICT = "strict"
SEMISTRICT = "semistrict"
NONSTRICT = "none"


class InvalidGenerator(ValueError):
    """Convex generator fails the convexity or derivative checks."""


class ProprietyViolation(ArithmeticError):
    """A forecast scored better than the truth against the truth."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class LossModel:
    """Interface shared by all loss models.  Instances are immutable."""

    name: str
    kind: str
    act_kind: str
    strictness: str
    space: SampleSpace

    def loss_vector(self, act: Act) -> np.ndarray:
        """Loss at every outcome; entries may be +inf."""
        raise NotImplementedError

    def loss(self, x: int, act: Act) -> float:
        return float(self.loss_vector(act)[x])

    def bayes_act(self, dist: Distribution) -> Act:
        """A canonical act attaining inf_a E_P L(X, a)."""
        raise NotImplementedError

    def entropy(self, dist: Distribution) -> float:
        """H(P) = E_P L(X, bayes_act(P)); overridden with closed forms."""
        return ext_dot(dist.w, self.loss_vector(self.bayes_act(dist)))

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        """H at every row of a nonnegative (m, N) block, each row normalized
        first; overridden with vectorized closed forms."""
        return np.array([self.entropy(Distribution(row / row.sum())) for row in rows])

    def bayes_act_set(self, dist: Distribution):
        """Descriptor of the Bayes-act set when non-unique, else None."""
        return None

    def expected_loss(self, dist: Distribution, act: Act) -> float:
        return ext_dot(dist.w, self.loss_vector(act))

    def random_act(self, rng: np.random.Generator) -> Act:
        raise NotImplementedError

    def _check_space(self, payload: np.ndarray) -> np.ndarray:
        arr = np.asarray(payload, dtype=float)
        if arr.shape != (self.space.n,):
            raise DimensionMismatch(
                f"act payload shape {arr.shape} does not match {self.space.n} outcomes"
            )
        return arr

    def _dist_payload(self, act: Act) -> np.ndarray:
        if act.kind != ACT_DISTRIBUTION:
            raise DimensionMismatch(f"{self.name} expects {ACT_DISTRIBUTION} acts")
        q = self._check_space(act.as_array())
        if float(q.min()) < -WEIGHT_CLAMP:
            raise DimensionMismatch("act weights must be nonnegative")
        q = np.where(q < 0.0, 0.0, q)
        if abs(float(q.sum()) - 1.0) > NORM_TOL:
            raise NotNormalized("act weights must sum to one")
        return q

    def _density_payload(self, act: Act) -> np.ndarray:
        if act.kind != ACT_DENSITY:
            raise DimensionMismatch(f"{self.name} expects {ACT_DENSITY} acts")
        q = self._check_space(act.as_array())
        if float(q.min()) < -WEIGHT_CLAMP:
            raise DimensionMismatch("density values must be nonnegative")
        q = np.where(q < 0.0, 0.0, q)
        mass = float(q @ self.base.weights)
        if abs(mass - 1.0) > NORM_TOL:
            raise NotNormalized(f"density integrates to {mass!r}, not 1")
        return q


@dataclass(frozen=True)
class ProprietyReport:
    trials: int
    min_margin: float


class BrierModel(LossModel):
    """S(x, Q) = sum_j q(j)^2 - 2 q(x) + 1."""

    def __init__(self, space: SampleSpace):
        self.space = space
        self.name = "brier"
        self.kind = "brier"
        self.act_kind = ACT_DISTRIBUTION
        self.strictness = STRICT

    def loss_vector(self, act: Act) -> np.ndarray:
        q = self._dist_payload(act)
        return float(q @ q) - 2.0 * q + 1.0

    def bayes_act(self, dist: Distribution) -> Act:
        return Act(ACT_DISTRIBUTION, dist.w)

    def entropy(self, dist: Distribution) -> float:
        return 1.0 - float(dist.w @ dist.w)

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        return 1.0 - np.einsum("ij,ij->i", rows, rows)

    def random_act(self, rng: np.random.Generator) -> Act:
        return Act(ACT_DISTRIBUTION, rng.dirichlet(np.ones(self.space.n)))


class LogModel(LossModel):
    """S(x, q) = -log q(x) for densities q against the base measure."""

    def __init__(self, space: SampleSpace, base: BaseMeasure | None = None):
        if base is None:
            base = BaseMeasure.counting(space.n)
        if base.n != space.n:
            raise DimensionMismatch("base measure does not match the sample space")
        self.space = space
        self.base = base
        self.name = "log"
        self.kind = "log"
        self.act_kind = ACT_DENSITY
        self.strictness = STRICT

    def loss_vector(self, act: Act) -> np.ndarray:
        q = self._density_payload(act)
        with np.errstate(divide="ignore"):
            return -np.log(q)

    def bayes_act(self, dist: Distribution) -> Act:
        return Act(ACT_DENSITY, dist.w / self.base.weights)

    def entropy(self, dist: Distribution) -> float:
        p = dist.w
        mask = p > 0.0
        return -float(p[mask] @ np.log(p[mask] / self.base.weights[mask]))

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(rows > 0.0, rows * np.log(rows / self.base.weights), 0.0)
        return -terms.sum(axis=1)

    def random_act(self, rng: np.random.Generator) -> Act:
        r = rng.dirichlet(np.ones(self.space.n))
        return Act(ACT_DENSITY, r / self.base.weights)


class ZeroOneModel(LossModel):
    """L(x, zeta) = 1 - zeta(x) for randomized point guesses zeta."""

    def __init__(self, space: SampleSpace):
        self.space = space
        self.name = "zero_one"
        self.kind = "zero_one"
        self.act_kind = ACT_DISTRIBUTION
        self.strictness = NONSTRICT

    def loss_vector(self, act: Act) -> np.ndarray:
        return 1.0 - self._dist_payload(act)

    def modes(self, dist: Distribution) -> np.ndarray:
        top = float(dist.w.max())
        return np.flatnonzero(dist.w >= top - MODE_TOL)

    def bayes_act(self, dist: Distribution) -> Act:
        # canonical representative: uniform over the modes
        m = self.modes(dist)
        z = np.zeros(dist.n)
        z[m] = 1.0 / m.size
        return Act(ACT_DISTRIBUTION, z)

    def entropy(self, dist: Distribution) -> float:
        return 1.0 - float(dist.w.max())

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        return 1.0 - rows.max(axis=1)

    def bayes_act_set(self, dist: Distribution) -> np.ndarray:
        # Bayes acts are exactly the zeta supported on the modes
        return self.modes(dist)

    def random_act(self, rng: np.random.Generator) -> Act:
        return Act(ACT_DISTRIBUTION, rng.dirichlet(np.ones(self.space.n)))


class QuadraticModel(LossModel):
    """L(x, a) = (v(x) - a)^2 for scalar point estimates a."""

    def __init__(self, space: SampleSpace, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (space.n,):
            raise DimensionMismatch("need one numeric value per outcome")
        self.space = space
        self.values = v
        self.name = "quadratic"
        self.kind = "quadratic"
        self.act_kind = ACT_SCALAR
        self.strictness = STRICT

    def loss_vector(self, act: Act) -> np.ndarray:
        if act.kind != ACT_SCALAR:
            raise DimensionMismatch("quadratic loss expects scalar acts")
        return (self.values - act.payload) ** 2

    def bayes_act(self, dist: Distribution) -> Act:
        return Act(ACT_SCALAR, float(self.values @ dist.w))

    def entropy(self, dist: Distribution) -> float:
        mean = float(self.values @ dist.w)
        return float(((self.values - mean) ** 2) @ dist.w)

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        mean = rows @ self.values
        return rows @ (self.values ** 2) - mean ** 2

    def random_act(self, rng: np.random.Generator) -> Act:
        lo, hi = float(self.values.min()), float(self.values.max())
        pad = 0.5 * max(hi - lo, 1.0)
        return Act(ACT_SCALAR, rng.uniform(lo - pad, hi + pad))


@dataclass(frozen=True)
class ConvexGenerator:
    """Convex psi on [0, inf) with derivative psi_prime and its inverse
    psi_prime_inv on [psi'(0), inf); all vectorized.

    The Bregman solver reads densities off psi_prime_inv.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    psi_prime_inv: Callable[[np.ndarray], np.ndarray]
    strictly_convex: bool = True


def _xlogx(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mask = s > 0.0
    out[mask] = s[mask] * np.log(s[mask])
    return out


def _xlogx_prime(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(s) + 1.0


def xlogx_generator() -> ConvexGenerator:
    """psi(s) = s log s; the induced score is the logarithmic score."""
    return ConvexGenerator("xlogx", _xlogx, _xlogx_prime,
                           lambda v: np.exp(np.asarray(v, float) - 1.0),
                           strictly_convex=True)


def square_generator(n: int) -> ConvexGenerator:
    """psi(s) = s^2 - 1/n; with counting base measure the score is the Brier score."""
    shift = 1.0 / n
    return ConvexGenerator(
        "square",
        lambda s: np.asarray(s, float) ** 2 - shift,
        lambda s: 2.0 * np.asarray(s, float),
        lambda v: 0.5 * np.asarray(v, float),
        strictly_convex=True,
    )


def power_generator(exponent: float) -> ConvexGenerator:
    """psi(s) = s^q, q > 1."""
    if exponent <= 1.0:
        raise InvalidGenerator("power generator needs exponent > 1")
    q = float(exponent)
    return ConvexGenerator(
        f"power{q:g}",
        lambda s: np.asarray(s, float) ** q,
        lambda s: q * np.asarray(s, float) ** (q - 1.0),
        lambda v: (np.asarray(v, float) / q) ** (1.0 / (q - 1.0)),
        strictly_convex=True,
    )


def _validate_generator(gen: ConvexGenerator) -> None:
    # convexity: second differences on a sample grid must not dip below -1e-8
    grid = np.linspace(1e-4, 3.0, 301)
    vals = np.asarray(gen.psi(grid), dtype=float)
    if vals.shape != grid.shape or not np.all(np.isfinite(vals)):
        raise InvalidGenerator("psi must be finite on (0, 3]")
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    if float(second.min()) < -1e-8:
        raise InvalidGenerator("psi fails the convexity check on the sample grid")
    # derivative consistency on a coarser interior grid
    pts = np.linspace(0.05, 3.0, 60)
    h = 1e-5
    numeric = (np.asarray(gen.psi(pts + h), float) - np.asarray(gen.psi(pts - h), float)) / (2 * h)
    claimed = np.asarray(gen.psi_prime(pts), dtype=float)
    scale = np.maximum(1.0, np.abs(claimed))
    if float(np.max(np.abs(numeric - claimed) / scale)) > 1e-6:
        raise InvalidGenerator("psi_prime disagrees with finite differences of psi")
    back = np.asarray(gen.psi_prime_inv(claimed), dtype=float)
    if float(np.max(np.abs(back - pts) / np.maximum(1.0, pts))) > 1e-9:
        raise InvalidGenerator("psi_prime_inv does not invert psi_prime")


class BregmanModel(LossModel):
    """Separable Bregman score built from a convex generator.

    S(x, q) = -psi'(q(x)) - sum_t [psi(q(t)) - q(t) psi'(q(t))] mu(t)
    for densities q against mu; H(P) = -sum_t psi(p(t)) mu(t).
    """

    def __init__(self, space: SampleSpace, generator: ConvexGenerator,
                 base: BaseMeasure | None = None):
        if base is None:
            base = BaseMeasure.counting(space.n)
        if base.n != space.n:
            raise DimensionMismatch("base measure does not match the sample space")
        _validate_generator(generator)
        self.space = space
        self.base = base
        self.generator = generator
        self.name = f"bregman[{generator.name}]"
        self.kind = "bregman"
        self.act_kind = ACT_DENSITY
        self.strictness = STRICT if generator.strictly_convex else SEMISTRICT

    def loss_vector(self, act: Act) -> np.ndarray:
        q = self._density_payload(act)
        psi_q = np.asarray(self.generator.psi(q), dtype=float)
        dpsi_q = np.asarray(self.generator.psi_prime(q), dtype=float)
        # q psi'(q) -> 0 as q -> 0 for the bundled generators; psi'(0) may be
        # -inf, so the product is formed only where q > 0
        pos = q > 0.0
        qdpsi = np.zeros_like(q)
        qdpsi[pos] = q[pos] * dpsi_q[pos]
        offset = float((psi_q - qdpsi) @ self.base.weights)
        return -dpsi_q - offset

    def bayes_act(self, dist: Distribution) -> Act:
        return Act(ACT_DENSITY, dist.w / self.base.weights)

    def entropy(self, dist: Distribution) -> float:
        dens = dist.w / self.base.weights
        return -float(np.asarray(self.generator.psi(dens), float) @ self.base.weights)

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        dens = rows / self.base.weights
        return -(np.asarray(self.generator.psi(dens), float) @ self.base.weights)

    def random_act(self, rng: np.random.Generator) -> Act:
        r = rng.dirichlet(np.ones(self.space.n))
        return Act(ACT_DENSITY, r / self.base.weights)


def brier_model(space: SampleSpace) -> BrierModel:
    return BrierModel(space)


def log_model(space: SampleSpace, base: BaseMeasure | None = None) -> LogModel:
    return LogModel(space, base)


def zero_one_model(space: SampleSpace) -> ZeroOneModel:
    return ZeroOneModel(space)


def quadratic_model(space: SampleSpace, values=None) -> QuadraticModel:
    if values is None:
        try:
            values = [float(u) for u in space.labels]
        except ValueError as exc:
            raise DimensionMismatch(
                "outcome labels are not numeric; pass values explicitly"
            ) from exc
    return QuadraticModel(space, values)


def bregman_model(space: SampleSpace, generator: ConvexGenerator,
                  base: BaseMeasure | None = None) -> BregmanModel:
    return BregmanModel(space, generator, base)


def check_proper(model: LossModel, trials: int = 400, seed: int = 0) -> ProprietyReport:
    """Sample (P, act) pairs and verify E_P L(X, act) >= H(P) - 1e-9.

    Raises ProprietyViolation with the witness pair on failure; returns the
    worst margin seen otherwise.
    """
    rng = np.random.default_rng(seed)
    n = model.space.n
    worst = np.inf
    for _ in range(trials):
        p = Distribution(rng.dirichlet(np.ones(n)))
        act = model.random_act(rng)
        margin = model.expected_loss(p, act) - model.entropy(p)
        if margin < -1e-9:
            raise ProprietyViolation(
                f"{model.name}: margin {margin:.3e} below -1e-9", witness=(p, act)
            )
        if margin < worst:
            worst = margin
    return ProprietyReport(trials=trials, min_margin=float(worst))
