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

import math
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
    _checked_rows,
    _dots,
    ext_dot,
    ext_dots,
)

MODE_TOL = 1e-9        # probability ties within this count as joint modes


class InvalidGenerator(ValueError):
    """Convex generator fails the convexity or derivative checks."""


class ProprietyViolation(ArithmeticError):
    """A forecast scored better than the truth against the truth."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class LossModel:
    """Interface shared by all loss models.  Instances are immutable.

    `loss_matrix` and `random_acts` are the block forms of `loss_vector` and
    `random_act`.  A class supplies a vectorized block form as
    `_loss_matrix` or `_random_acts`; it is used only while the per-act
    method in use is the one it was written for, so a subclass or an
    instance that puts its own `loss_vector` or `random_act` in place gets
    the default block form, a loop over its per-act method.
    """

    name: str
    kind: str
    act_kind: str
    space: SampleSpace
    _vectorized = frozenset()   # the per-act methods whose block forms apply

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)

        def owner(name):
            return next(c for c in cls.__mro__ if name in vars(c))

        cls._vectorized = frozenset(
            single for single, block in (("loss_vector", "_loss_matrix"),
                                         ("random_act", "_random_acts"))
            if issubclass(owner(block), owner(single)))

    def loss_vector(self, act: Act) -> np.ndarray:
        """Loss at every outcome; entries may be +inf."""
        raise NotImplementedError

    def loss_matrix(self, block) -> np.ndarray:
        """L(., act) for the act of each payload in a block, one row each:
        row i is loss_vector(Act(act_kind, block[i])) bit for bit, and a
        payload that loss_vector refuses raises the class it raises there."""
        if self._applies("loss_vector"):
            return self._loss_matrix(block)
        return LossModel._loss_matrix(self, block)

    def _loss_matrix(self, block) -> np.ndarray:
        out = np.empty((len(block), self.space.n))
        for i, payload in enumerate(block):
            out[i] = self.loss_vector(Act(self.act_kind, payload))
        return out

    def _applies(self, single: str) -> bool:
        """True when the block form of the per-act method `single` was
        written for the `single` in use: the class that defines the block
        form also defines or inherits it, and the instance has none of its
        own."""
        return single in self._vectorized and single not in vars(self)

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

    def bayes_losses(self, rows: np.ndarray) -> np.ndarray:
        """L(., zeta_P) for every row P of a checked (m, N) block of laws:
        row i is loss_vector(bayes_act(P_i)); overridden with closed forms."""
        out = np.empty(rows.shape)
        for i, row in enumerate(rows):
            out[i] = self.loss_vector(self.bayes_act(Distribution.of_checked(row)))
        return out

    def bayes_act_set(self, dist: Distribution):
        """Descriptor of the Bayes-act set when non-unique, else None."""
        return None

    def separable(self):
        """(generator, mu) when H(P) = -sum mu psi(p / mu), else None.

        A separable entropy has a one-dimensional dual for its natural tilts
        and a (k+1)-dimensional dual for its saddle points."""
        return None

    def expected_loss(self, dist: Distribution, act: Act) -> float:
        return ext_dot(dist.w, self.loss_vector(act))

    def random_act(self, rng: np.random.Generator) -> Act:
        raise NotImplementedError

    def random_acts(self, rng: np.random.Generator, trials: int):
        """(laws, payloads): `trials` laws P ~ Dirichlet(1), one row each, and
        the payloads of as many random acts, drawn law then act per trial."""
        if self._applies("random_act"):
            return self._random_acts(rng, trials)
        return LossModel._random_acts(self, rng, trials)

    def _random_acts(self, rng: np.random.Generator, trials: int):
        laws, acts = np.empty((trials, self.space.n)), []
        for i in range(trials):
            laws[i] = rng.dirichlet(np.ones(self.space.n))
            acts.append(self.random_act(rng).payload)
        if not acts:   # no payload to take the block's shape from
            return laws, np.empty((0,) if self.act_kind == ACT_SCALAR else (0, self.space.n))
        return laws, np.array(acts)

    def _act_payload(self, act: Act, kind: str, weights=None) -> np.ndarray:
        """The payload of a `kind` act of N entries: the one-row call of
        `_payloads`."""
        if act.kind != kind:
            raise DimensionMismatch(f"{self.name} expects {kind} acts")
        q = act.as_array()
        if q.shape != (self.space.n,):
            raise DimensionMismatch(
                f"act payload shape {q.shape} does not match {self.space.n} outcomes")
        return self._payloads(q[None], kind, weights)[0]

    def _payloads(self, block, kind: str, weights=None) -> np.ndarray:
        """An (m, N) block of `kind` act payloads, each row finite,
        nonnegative and of mass one: its sum, or its integral against
        `weights` for a density.  Entries down to -WEIGHT_CLAMP read as 0."""
        q = np.ascontiguousarray(block, dtype=float)
        if q.ndim != 2 or q.shape[1:] != (self.space.n,):
            raise DimensionMismatch(
                f"act payload block shape {q.shape} does not match {self.space.n} outcomes")
        low = q.min(initial=0.0)
        if not low >= -WEIGHT_CLAMP:
            raise DimensionMismatch(f"{kind} act values must be finite and nonnegative")
        if low < 0.0:
            q = np.where(q < 0.0, 0.0, q)
        mass = q.sum(axis=1) if weights is None else _dots(q, weights)
        off = abs(mass - 1.0)
        if off.max(initial=0.0) > NORM_TOL:
            raise NotNormalized(f"{kind} act has mass {float(mass[off > NORM_TOL][0])!r}, not 1")
        return q

    def _dirichlet_acts(self, rng: np.random.Generator, trials: int, weights=None):
        """`random_acts` for acts drawn as Dirichlet(1) laws, divided by the
        base weights for densities: one block of 2 * trials draws, whose
        even rows are the laws and odd rows the acts, is the stream of the
        per-trial loop."""
        draws = rng.dirichlet(np.ones(self.space.n), size=2 * trials)
        acts = draws[1::2]
        return draws[0::2], (acts if weights is None else acts / weights)


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

    def loss_vector(self, act: Act) -> np.ndarray:
        q = self._act_payload(act, ACT_DISTRIBUTION)
        return float(q @ q) - 2.0 * q + 1.0

    def _loss_matrix(self, block) -> np.ndarray:
        q = self._payloads(block, ACT_DISTRIBUTION)
        return _dots(q, q)[:, None] - 2.0 * q + 1.0

    def bayes_act(self, dist: Distribution) -> Act:
        return Act(ACT_DISTRIBUTION, dist.w)

    def entropy(self, dist: Distribution) -> float:
        return 1.0 - float(dist.w @ dist.w)

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        return 1.0 - np.einsum("ij,ij->i", rows, rows)

    def bayes_losses(self, rows: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", rows, rows)[:, None] - 2.0 * rows + 1.0

    def separable(self):
        return square_generator(self.space.n), np.ones(self.space.n)

    def random_act(self, rng: np.random.Generator) -> Act:
        return Act(ACT_DISTRIBUTION, rng.dirichlet(np.ones(self.space.n)))

    def _random_acts(self, rng: np.random.Generator, trials: int):
        return self._dirichlet_acts(rng, trials)


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

    def loss_vector(self, act: Act) -> np.ndarray:
        q = self._act_payload(act, ACT_DENSITY, self.base.weights)
        with np.errstate(divide="ignore"):
            return -np.log(q)

    def _loss_matrix(self, block) -> np.ndarray:
        q = self._payloads(block, ACT_DENSITY, self.base.weights)
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

    def bayes_losses(self, rows: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return -np.log(rows / self.base.weights)

    def separable(self):
        return xlogx_generator(), self.base.weights

    def random_act(self, rng: np.random.Generator) -> Act:
        r = rng.dirichlet(np.ones(self.space.n))
        return Act(ACT_DENSITY, r / self.base.weights)

    def _random_acts(self, rng: np.random.Generator, trials: int):
        return self._dirichlet_acts(rng, trials, self.base.weights)


class ZeroOneModel(LossModel):
    """L(x, zeta) = 1 - zeta(x) for randomized point guesses zeta."""

    def __init__(self, space: SampleSpace):
        self.space = space
        self.name = "zero_one"
        self.kind = "zero_one"
        self.act_kind = ACT_DISTRIBUTION

    def loss_vector(self, act: Act) -> np.ndarray:
        return 1.0 - self._act_payload(act, ACT_DISTRIBUTION)

    def _loss_matrix(self, block) -> np.ndarray:
        return 1.0 - self._payloads(block, ACT_DISTRIBUTION)

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

    def bayes_losses(self, rows: np.ndarray) -> np.ndarray:
        # the uniform point guess over each row's modes, as `bayes_act`
        modes = rows >= rows.max(axis=1)[:, None] - MODE_TOL
        return 1.0 - modes / np.count_nonzero(modes, axis=1)[:, None]

    def bayes_act_set(self, dist: Distribution) -> np.ndarray:
        # Bayes acts are exactly the zeta supported on the modes
        return self.modes(dist)

    def random_act(self, rng: np.random.Generator) -> Act:
        return Act(ACT_DISTRIBUTION, rng.dirichlet(np.ones(self.space.n)))

    def _random_acts(self, rng: np.random.Generator, trials: int):
        return self._dirichlet_acts(rng, trials)


class QuadraticModel(LossModel):
    """L(x, a) = (v(x) - a)^2 for scalar point estimates a."""

    def __init__(self, space: SampleSpace, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (space.n,) or not np.isfinite(v).all():
            raise DimensionMismatch("need one finite numeric value per outcome")
        self.space = space
        self.values = v
        self.name = "quadratic"
        self.kind = "quadratic"
        self.act_kind = ACT_SCALAR

    def loss_vector(self, act: Act) -> np.ndarray:
        if act.kind != ACT_SCALAR:
            raise DimensionMismatch("quadratic loss expects scalar acts")
        if not math.isfinite(act.payload):
            raise DimensionMismatch("a scalar act must be finite")
        return (self.values - act.payload) ** 2

    def _loss_matrix(self, block) -> np.ndarray:
        a = np.asarray(block, dtype=float)
        if a.ndim != 1:
            raise DimensionMismatch("quadratic loss expects scalar acts")
        if not np.isfinite(a).all():
            raise DimensionMismatch("a scalar act must be finite")
        return (self.values - a[:, None]) ** 2

    def bayes_act(self, dist: Distribution) -> Act:
        return Act(ACT_SCALAR, float(self.values @ dist.w))

    def entropy(self, dist: Distribution) -> float:
        mean = float(self.values @ dist.w)
        return float(((self.values - mean) ** 2) @ dist.w)

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        mean = rows @ self.values
        return rows @ (self.values ** 2) - mean ** 2

    def bayes_losses(self, rows: np.ndarray) -> np.ndarray:
        return (self.values - (rows @ self.values)[:, None]) ** 2

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
                           lambda v: np.exp(np.asarray(v, float) - 1.0))


def square_generator(n: int) -> ConvexGenerator:
    """psi(s) = s^2 - 1/n; with counting base measure the score is the Brier score."""
    shift = 1.0 / n
    return ConvexGenerator(
        "square",
        lambda s: np.asarray(s, float) ** 2 - shift,
        lambda s: 2.0 * np.asarray(s, float),
        lambda v: 0.5 * np.asarray(v, float),
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

    def loss_vector(self, act: Act) -> np.ndarray:
        return self._scores(self._act_payload(act, ACT_DENSITY, self.base.weights))

    def _loss_matrix(self, block) -> np.ndarray:
        return self._scores(self._payloads(block, ACT_DENSITY, self.base.weights), _dots)

    def _scores(self, q: np.ndarray, dots=np.matmul) -> np.ndarray:
        """The score of every density q along the last axis; `dots` sums
        each row's offset terms against mu."""
        psi_q = np.asarray(self.generator.psi(q), dtype=float)
        dpsi_q = np.asarray(self.generator.psi_prime(q), dtype=float)
        # q psi'(q) -> 0 as q -> 0 for the bundled generators; psi'(0) may be
        # -inf, so the product is kept only where q > 0
        with np.errstate(invalid="ignore"):
            qdpsi = np.where(q > 0.0, q * dpsi_q, 0.0)
        offset = dots(psi_q - qdpsi, self.base.weights)
        return -dpsi_q - offset[..., None]

    def bayes_act(self, dist: Distribution) -> Act:
        return Act(ACT_DENSITY, dist.w / self.base.weights)

    def entropy(self, dist: Distribution) -> float:
        dens = dist.w / self.base.weights
        return -float(np.asarray(self.generator.psi(dens), float) @ self.base.weights)

    def entropy_batch(self, rows: np.ndarray) -> np.ndarray:
        dens = rows / self.base.weights
        psi = np.asarray(self.generator.psi(dens), float)
        return -np.einsum("ij,j->i", psi, self.base.weights)

    def bayes_losses(self, rows: np.ndarray) -> np.ndarray:
        return self._scores(rows / self.base.weights)

    def separable(self):
        return self.generator, self.base.weights

    def random_act(self, rng: np.random.Generator) -> Act:
        r = rng.dirichlet(np.ones(self.space.n))
        return Act(ACT_DENSITY, r / self.base.weights)

    def _random_acts(self, rng: np.random.Generator, trials: int):
        return self._dirichlet_acts(rng, trials, self.base.weights)


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

    Each trial draws P ~ Dirichlet(1), then the model's random act; the
    draws come as one block (`random_acts`) and are scored as one
    (`loss_matrix`).  Raises ProprietyViolation with the witness pair of the
    first failing trial; returns the worst margin seen otherwise.
    """
    laws, acts = model.random_acts(np.random.default_rng(seed), trials)
    laws = _checked_rows(laws)
    margins = ext_dots(laws, model.loss_matrix(acts)) - model.entropy_batch(laws)
    bad = np.flatnonzero(margins < -1e-9)
    if bad.size:
        i = int(bad[0])
        raise ProprietyViolation(
            f"{model.name}: margin {margins[i]:.3e} below -1e-9",
            witness=(Distribution(laws[i]), Act(model.act_kind, acts[i])),
        )
    # a NaN margin fails no trial and is passed over, as a comparison would
    worst = np.fmin.reduce(margins, initial=np.inf)
    return ProprietyReport(trials=trials, min_margin=float(worst))
