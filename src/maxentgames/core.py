"""Finite-outcome primitives: sample spaces, distributions, statistics, acts.

Losses take values in (-inf, +inf].  Expectations follow the extended-real
conventions 0 * inf = 0 and (+inf) + (-inf) = undefined (raises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

WEIGHT_CLAMP = 1e-12   # entries no more negative than this are squashed to zero
NORM_TOL = 1e-9        # allowed |sum(w) - 1| for a probability vector
SUPPORT_TOL = 1e-12    # weights above this count as support

ExtReal = float        # a real number or +inf


class DimensionMismatch(ValueError):
    """Vector or matrix shape does not match the sample space."""


class NegativeWeight(ValueError):
    """A weight is more negative than the clamping tolerance allows."""


class NotNormalized(ValueError):
    """Weights do not sum to one within tolerance."""


class LambdaOutOfRange(ValueError):
    """Mixture coefficient outside [0, 1]."""


class UndefinedExpectation(ArithmeticError):
    """Expectation mixes +inf and -inf contributions."""


class ZeroBaseMass(ValueError):
    """Base measure must give positive mass to every outcome."""


class Infeasible(ArithmeticError):
    """No distribution satisfies the constraints."""


class CombinatorialBlowup(RuntimeError):
    """Requested enumeration exceeds the configured size cap."""


@dataclass(frozen=True)
class SampleSpace:
    """Ordered finite outcome set.  Labels are strings; positions are indices."""

    labels: tuple

    def __post_init__(self) -> None:
        labels = tuple(str(u) for u in self.labels)
        if not labels:
            raise DimensionMismatch("sample space must have at least one outcome")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(str(label))

    @classmethod
    def of(cls, labels: Iterable) -> "SampleSpace":
        return cls(tuple(labels))


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BaseMeasure:
    """Strictly positive weights; need not sum to one."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionMismatch("base measure weights must be a vector")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ZeroBaseMass("base measure weights must be finite and positive")
        object.__setattr__(self, "weights", _frozen_array(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total - 1.0) <= NORM_TOL

    @classmethod
    def counting(cls, n: int) -> "BaseMeasure":
        return cls(np.ones(n))

    @classmethod
    def uniform_probability(cls, n: int) -> "BaseMeasure":
        return cls(np.full(n, 1.0 / n))


def _checked_rows(w: np.ndarray) -> np.ndarray:
    """w with tiny negative weights clamped to 0, each row along the last
    axis a probability vector; raises as `Distribution` does on any row."""
    if not np.isfinite(w).all():
        raise NegativeWeight("distribution weights must be finite")
    if w.min(initial=0.0) < -WEIGHT_CLAMP:
        raise NegativeWeight(
            f"weight {w.min():.3e} below clamping tolerance -{WEIGHT_CLAMP:g}"
        )
    w = np.where(w < 0.0, 0.0, w)
    totals = w.sum(axis=-1)
    off = abs(totals - 1.0) > NORM_TOL
    if off.any():
        raise NotNormalized(f"weights sum to {float(np.extract(off, totals)[0])!r}, not 1")
    return w


@dataclass(frozen=True)
class Distribution:
    """Probability vector.  Tiny negative weights (>= -1e-12) are clamped."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DimensionMismatch("distribution weights must be a nonempty vector")
        object.__setattr__(self, "w", _frozen_array(_checked_rows(w)))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def support(self, tol: float = SUPPORT_TOL) -> np.ndarray:
        return np.flatnonzero(self.w > tol)

    @classmethod
    def of_checked(cls, w: np.ndarray) -> "Distribution":
        """Wrap weights that are already checked and read-only (a row of a
        frozen `distribution_rows` block) without checking them again."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "w", w)
        return dist

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index: int, n: int) -> "Distribution":
        w = np.zeros(n)
        w[index] = 1.0
        return cls(w)


@dataclass(frozen=True)
class Statistic:
    """Real statistic T: one row per component, one column per outcome."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim == 1:
            m = m[None, :]
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionMismatch("statistic must be a k x N matrix with k >= 1")
        if not np.all(np.isfinite(m)):
            raise DimensionMismatch("statistic entries must be finite")
        object.__setattr__(self, "matrix", _frozen_array(m))

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


ACT_DISTRIBUTION = "distribution"
ACT_DENSITY = "density"
ACT_SCALAR = "scalar"


@dataclass(frozen=True)
class Act:
    """Decision: a probability vector, a density against a base measure, or a scalar."""

    kind: str
    payload: object

    def __post_init__(self) -> None:
        if self.kind not in (ACT_DISTRIBUTION, ACT_DENSITY, ACT_SCALAR):
            raise ValueError(f"unknown act kind {self.kind!r}")
        if self.kind == ACT_SCALAR:
            object.__setattr__(self, "payload", float(self.payload))
        else:
            object.__setattr__(self, "payload", _frozen_array(np.asarray(self.payload, float)))

    def as_array(self) -> np.ndarray:
        if self.kind == ACT_SCALAR:
            raise DimensionMismatch("scalar act has no vector payload")
        return self.payload


def validate_distribution(weights, n: int | None = None) -> Distribution:
    """Check weights, or a Distribution, and return a Distribution; raises
    on any violation."""
    w = weights.w if isinstance(weights, Distribution) else np.asarray(weights, dtype=float)
    if n is not None and w.shape != (n,):
        raise DimensionMismatch(f"expected {n} weights, got shape {w.shape}")
    return weights if isinstance(weights, Distribution) else Distribution(w)


def mixture(lam: float, first: Distribution, second: Distribution) -> Distribution:
    """(1 - lam) * first + lam * second.  lam must lie in [0, 1]."""
    if not (0.0 <= lam <= 1.0):
        raise LambdaOutOfRange(f"mixture coefficient {lam!r} outside [0, 1]")
    if first.n != second.n:
        raise DimensionMismatch("mixture components live on different spaces")
    return Distribution((1.0 - lam) * first.w + lam * second.w)


def ext_dot(weights, values) -> ExtReal:
    """sum_i w_i v_i with 0 * inf = 0; raises if +inf and -inf both contribute."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    if w.shape != v.shape:
        raise DimensionMismatch(f"shapes {w.shape} and {v.shape} differ")
    if np.isnan(v).any() or np.isnan(w).any():
        raise UndefinedExpectation("nan encountered in expectation")
    active = w != 0.0
    va = v[active]
    wa = w[active]
    inf_mask = np.isinf(va)
    if inf_mask.any():
        signs = np.sign(wa[inf_mask]) * np.sign(va[inf_mask])
        if (signs > 0).any() and (signs < 0).any():
            raise UndefinedExpectation("expectation mixes +inf and -inf")
        return float(np.inf) if (signs > 0).any() else float(-np.inf)
    return float(wa @ va)


def ext_dots(rows, values) -> np.ndarray:
    """ext_dot of every nonnegative row of an (m, N) block with values in
    (-inf, +inf]: one vector for every row, or an (m, N) block paired row by
    row with the laws; a NaN or -inf value raises UndefinedExpectation."""
    rows, v = np.asarray(rows, dtype=float), np.asarray(values, dtype=float)
    if rows.ndim != 2 or v.shape not in (rows.shape[1:], rows.shape):
        raise DimensionMismatch(f"rows of shape {rows.shape} against values {v.shape}")
    if np.isnan(v).any() or np.isneginf(v).any() or np.isnan(rows).any():
        raise UndefinedExpectation("nan or -inf encountered in expectation")
    finite = np.isfinite(v)
    if v.ndim == 2:
        hits = (~finite & (rows > 0.0)).any(axis=1)
        return np.where(hits, np.inf, np.einsum("ij,ij->i", rows, np.where(finite, v, 0.0)))
    if finite.all():
        return rows @ v
    hits = (rows[:, ~finite] > 0.0).any(axis=1)
    return np.where(hits, np.inf, rows[:, finite] @ v[finite])


def _dots(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x[i] @ z[i] for every pair of rows, broadcast: one BLAS dot product
    each, as the 1-D product of the pair rounds, one pair included."""
    return (x[..., None, :] @ z[..., :, None])[..., 0, 0]


def attempt(fn, *args):
    """fn(*args), or the exception it raised, kept in place for the caller
    to raise at its turn (`raised`)."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def raised(found):
    """`found`, unless it is an exception kept in place: then it is raised."""
    if isinstance(found, Exception):
        raise found
    return found


def moment(dist: Distribution, statistic: Statistic) -> np.ndarray:
    """E_P T as a length-k vector."""
    if statistic.n != dist.n:
        raise DimensionMismatch(
            f"statistic has {statistic.n} columns but distribution has {dist.n} outcomes"
        )
    return statistic.matrix @ dist.w


def distribution_rows(points, n: int) -> np.ndarray:
    """A Distribution, a sequence of Distributions or weight vectors, or an
    (m, n) array as an (m, n) block of probability rows, each checked as
    `Distribution` checks one; rows of another width raise DimensionMismatch."""
    if isinstance(points, Distribution):
        points = [points]
    if not isinstance(points, np.ndarray):
        points = [p.w if isinstance(p, Distribution) else p for p in points]
    try:
        block = np.asarray(points, dtype=float).reshape(len(points), n)
    except ValueError:   # ragged rows, or rows of another width
        raise DimensionMismatch(f"test points are not rows of {n} weights") from None
    return _checked_rows(block)
