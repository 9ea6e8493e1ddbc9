"""Sampled paths with values in finite-dimensional normed spaces.

A :class:`SampledPath` stores strictly increasing time stamps with one vector
value per stamp and denotes the right-continuous step function that holds each
value until the next stamp.  All variation functionals in this package are
computed on the sample values, which coincides with the corresponding
functional of the step completion.  :class:`OperatorPath` is the matrix-valued
analogue used for integrands, measured in the operator norm induced by the
chosen vector norm.  Both share one private base, ``_Path``, which holds the
validation, step evaluation, increments, distance matrix and restriction; a
subclass fixes only the rank of its values and the norm that measures them.
The two are siblings, not parent and child: the integrators tell an
integrand from an integrator by class.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "NormKind",
    "SampledPath",
    "OperatorPath",
    "vector_norm",
    "operator_norm",
    "oscillation",
    "gen_fixture",
    "gen_alpha_stable",
    "compose",
    "write_path_csv",
    "read_path_csv",
    "write_path_json",
    "read_path_json",
]

FIXTURE_NAMES = ("circle3", "stepSplit", "logSeq")


class NormKind(str, Enum):
    """Vector norm choice; also fixes the induced operator norm."""

    euclidean = "euclidean"
    supremum = "sup"
    l1 = "l1"

    @classmethod
    def parse(cls, name) -> "NormKind":
        if isinstance(name, cls):
            return name
        aliases = {"euclidean": cls.euclidean, "sup": cls.supremum,
                   "supremum": cls.supremum, "l1": cls.l1}
        try:
            return aliases[str(name)]
        except KeyError:
            raise DomainError(f"unknown norm {name!r}; expected euclidean|sup|l1") from None


def vector_norm(vecs: np.ndarray, kind: NormKind | str) -> np.ndarray:
    """Norm of vectors along the last axis; ``kind`` is a NormKind or its name."""
    kind = NormKind.parse(kind)
    v = np.asarray(vecs, dtype=float)
    if kind is NormKind.euclidean:
        return np.sqrt(np.sum(v * v, axis=-1))
    if kind is NormKind.supremum:
        return np.max(np.abs(v), axis=-1)
    return np.sum(np.abs(v), axis=-1)


def operator_norm(mats: np.ndarray, kind: NormKind | str) -> np.ndarray:
    """Operator norm (induced by ``kind``) along the last two axes.

    euclidean -> spectral norm (largest singular value, from LAPACK's SVD),
    sup -> max absolute row sum, l1 -> max absolute column sum.
    """
    kind = NormKind.parse(kind)
    m = np.asarray(mats, dtype=float)
    if kind is NormKind.euclidean:
        if m.shape[-1] == 1:
            return np.abs(m[..., 0, 0])
        return np.linalg.norm(m, ord=2, axis=(-2, -1))
    if kind is NormKind.supremum:
        return np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    return np.max(np.sum(np.abs(m), axis=-2), axis=-1)


def _validate_times(times: np.ndarray) -> None:
    if times.ndim != 1 or times.size < 1:
        raise DomainError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise DomainError("times must be strictly increasing")


@dataclass(frozen=True)
class _Path:
    """Sampled path: strictly increasing finite times, one finite value per time.

    The subclasses fix the rank of ``values`` (time axis included), the
    message for values of the wrong shape, and ``norm_of``.
    """

    times: np.ndarray
    values: np.ndarray
    norm: NormKind = NormKind.euclidean

    _rank = 2
    _shape_error = "values must align with times and have dimension >= 1"

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=float))
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape((values.size,) + (1,) * (self._rank - 1))
        values = np.ascontiguousarray(values)
        _validate_times(times)
        if (values.ndim != self._rank or values.shape[0] != times.size
                or values.shape[1] < 1 or len(set(values.shape[1:])) != 1):
            raise DomainError(self._shape_error)
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "norm", NormKind.parse(self.norm))

    # -- basic geometry -------------------------------------------------
    @property
    def n(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def a(self) -> float:
        return float(self.times[0])

    @property
    def b(self) -> float:
        return float(self.times[-1])

    def eval_at(self, t) -> np.ndarray:
        """Step evaluation: value at the nearest sample time <= t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        # written so that NaN fails the test
        if t.size and not (t.min() >= self.a and t.max() <= self.b):
            raise DomainError("evaluation time outside the sampled range")
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.values[np.clip(idx, 0, self.n - 1)]

    def increments(self) -> np.ndarray:
        """Norms of the one-step value differences, length n-1."""
        if self.n < 2:
            return np.zeros(0)
        return self.norm_of(np.diff(self.values, axis=0))

    def distance_matrix(self) -> np.ndarray:
        """(n, n) matrix of pairwise value distances."""
        return self.norm_of(self.values[None] - self.values[:, None])

    def jump_times(self) -> np.ndarray:
        """Times of the nonzero jumps of the step completion."""
        if self.n < 2:
            return np.zeros(0)
        return self.times[1:][self.increments() > 0.0]

    def restrict(self, c: float, d: float) -> "_Path":
        """Resample the step completion on the subinterval [c, d], both ends kept."""
        if not (self.a <= c < d <= self.b):
            raise DomainError("restriction interval must satisfy a <= c < d <= b")
        inner = self.times[(self.times > c) & (self.times < d)]
        times = np.concatenate(([c], inner, [d]))
        return type(self)(times, self.eval_at(times), self.norm)


class SampledPath(_Path):
    """Vector-valued sampled path; semantically a right-continuous step function."""

    def norm_of(self, vecs: np.ndarray) -> np.ndarray:
        return vector_norm(vecs, self.norm)

    def scaled(self, factor: float) -> "SampledPath":
        return SampledPath(self.times, factor * self.values, self.norm)


class OperatorPath(_Path):
    """Matrix-valued sampled path, measured in the induced operator norm."""

    _rank = 3  # values are (n, d, d)
    _shape_error = "operator values must be (n, d, d) aligned with times"

    def norm_of(self, mats: np.ndarray) -> np.ndarray:
        return operator_norm(mats, self.norm)

    @classmethod
    def from_scalar_path(cls, path: SampledPath) -> "OperatorPath":
        """Promote a scalar path to a 1x1 operator path (same norm)."""
        if path.dim != 1:
            raise DomainError("only scalar paths promote to 1x1 operator paths")
        return cls(path.times, path.values[:, :, None], path.norm)

    @classmethod
    def from_flat_path(cls, path: SampledPath) -> "OperatorPath":
        """Reshape a d^2-column path into (d, d) row-major operator values."""
        d = math.isqrt(path.dim)
        if d * d != path.dim:
            raise DomainError("flattened operator path needs a square number of columns")
        return cls(path.times, path.values.reshape(path.n, d, d), path.norm)


def _distance_columns(path):
    """Yield (j, distance_matrix()[:j, j]) for j = 1..n-1, the same floats
    built one column at a time, so the memory is O(n), not O(n^2)."""
    values = path.values
    for j in range(1, path.n):
        yield j, path.norm_of(values[j] - values[:j])


def oscillation(path) -> float:
    """Largest distance between any two values of the path."""
    values = path.values
    if values.ndim == 2 and values.shape[1] == 1:
        return float(values.max() - values.min())
    return max((float(dist.max()) for _, dist in _distance_columns(path)), default=0.0)


# ---------------------------------------------------------------------------
# fixtures and generators
# ---------------------------------------------------------------------------

def gen_fixture(name: str, p: float | None = None, n: int | None = None) -> SampledPath:
    """Construct one of the built-in reference paths.

    circle3
        Three planar points at the cube roots of unity, mutual euclidean
        distance sqrt(3), sampled at times 0, 1, 2.
    stepSplit
        Scalar values (0, 1, -1) at times (-1, 0, 1); its truncated variation
        over [-1, 1] is (1-c)_+ + (2-c)_+.
    logSeq
        Requires ``p > 1`` and spike count ``n >= 2``: value (ln k / k)^(1/p)
        at t = 1/k for k = 2..n+1, and 0 at t = 0, at t = 1, and at the
        midpoints between consecutive spikes, so every spike is an isolated
        excursion from zero.  Hence, with x_k = (ln k / k)^(1/p), the discrete
        phi-variation has the closed form V_phi = 2 * sum_{k=2}^{n+1} phi(x_k)
        for every nondecreasing phi with phi(0) = 0 (a jump between two
        spikes never beats passing through the zero between them); the
        q-variation is the case phi(x) = x^q.
    """
    if name == "circle3":
        s = math.sqrt(3.0) / 2.0  # exact cos/sin of 2*pi/3 up to rounding
        values = [(1.0, 0.0), (-0.5, s), (-0.5, -s)]
        return SampledPath(np.array([0.0, 1.0, 2.0]), np.array(values), NormKind.euclidean)
    if name == "stepSplit":
        return SampledPath(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, -1.0]),
                           NormKind.euclidean)
    if name == "logSeq":
        if p is None or n is None:
            raise DomainError("logSeq requires parameters p and n")
        if not p > 1.0:
            raise DomainError("logSeq requires p > 1")
        if n < 2:
            raise DomainError("logSeq requires n >= 2")
        ks = np.arange(n + 1, 1, -1)          # n+1 down to 2: spike times ascending
        spike_t = 1.0 / ks
        spike_v = (np.log(ks) / ks) ** (1.0 / p)
        times = [0.0]
        vals = [0.0]
        for i, (t, v) in enumerate(zip(spike_t, spike_v)):
            times.append(t)
            vals.append(float(v))
            nxt = spike_t[i + 1] if i + 1 < spike_t.size else 1.0
            times.append(0.5 * (t + nxt))
            vals.append(0.0)
        times.append(1.0)
        vals.append(0.0)
        return SampledPath(np.array(times), np.array(vals), NormKind.euclidean)
    raise DomainError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")


def gen_alpha_stable(n: int, alpha: float, scale: float = 1.0, seed=0,
                     horizon: float = 1.0) -> SampledPath:
    """Scalar symmetric alpha-stable path on a uniform grid over [0, horizon].

    Increments are i.i.d. draws of the Chambers-Mallows-Stuck transform for
    the symmetric S(alpha, beta=0, sigma=1, mu=0) law,

        X = sin(alpha V) / cos(V)^(1/alpha) * (cos((1-alpha) V) / W)^((1-alpha)/alpha)

    with V uniform on (-pi/2, pi/2) and W standard exponential, scaled by
    ``scale * (horizon/(n-1))**(1/alpha)``.  Under this parametrisation the
    alpha = 2 case is N(0, 2 sigma^2), so increments of the generated path
    have variance ``2 * scale**2 * step``.  Randomness comes from numpy's
    seeded 64-bit PCG64 generator, so equal arguments give identical paths.
    """
    if n < 2:
        raise DomainError("n must be at least 2")
    if not (0.0 < alpha <= 2.0):
        raise DomainError("alpha must lie in (0, 2]")
    if scale <= 0.0 or horizon <= 0.0:
        raise DomainError("scale and horizon must be positive")
    rng = np.random.default_rng(seed)
    m = n - 1
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, m)
    w = rng.exponential(1.0, m)
    draws = (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
             * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))
    step = horizon / m
    incs = scale * step ** (1.0 / alpha) * draws
    values = np.concatenate(([0.0], np.cumsum(incs)))
    return SampledPath(np.linspace(0.0, horizon, n), values, NormKind.euclidean)


def _apply_map(fn: Callable, xs: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(xs), dtype=float)
    if out.shape != xs.shape:  # scalar-only callable
        out = np.asarray([fn(float(x)) for x in xs.ravel()], dtype=float).reshape(xs.shape)
    return out


def compose(path: SampledPath, time_change: Callable,
            point_map: Callable | None = None) -> SampledPath:
    """Resample ``G(X(A(t)))`` on the path's own time grid.

    ``time_change`` must map the grid into [a, b] (piecewise monotone with
    finitely many pieces; not checked); values are read off by nearest-left
    sample lookup and ``point_map`` is applied coordinatewise.
    """
    warped = _apply_map(time_change, path.times)
    if warped.min() < path.a or warped.max() > path.b:
        raise DomainError("time change leaves the sampled range")
    looked_up = path.eval_at(warped)
    if point_map is not None:
        looked_up = _apply_map(point_map, looked_up)
    return SampledPath(path.times, looked_up, path.norm)


# ---------------------------------------------------------------------------
# CSV / JSON path formats
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def _opened(file, mode: str, **kwargs):
    """``file`` itself, or the file of that name, opened for the block and closed."""
    if isinstance(file, (str, bytes)):
        with open(file, mode, **kwargs) as fh:
            yield fh
    else:
        yield file


def write_path_csv(path: SampledPath, file) -> None:
    """CSV with header ``time,v1,...,vd``, one row per sample, LF endings."""
    with _opened(file, "w", newline="") as fh:
        fh.write("time," + ",".join(f"v{i+1}" for i in range(path.dim)) + "\n")
        for t, row in zip(path.times, path.values):
            fh.write(_fmt(t) + "," + ",".join(_fmt(x) for x in row) + "\n")


def read_path_csv(file, norm: NormKind = NormKind.euclidean) -> SampledPath:
    with _opened(file, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "time":
        raise DomainError("malformed path CSV: expected header time,v1,...,vd")
    body = [r for r in rows[1:] if r]
    if not body or any(len(r) != len(rows[0]) for r in body):
        raise DomainError("malformed path CSV: ragged rows")
    try:
        data = np.array([[float(x) for x in r] for r in body])
    except ValueError as exc:
        raise DomainError(f"malformed path CSV: {exc}") from None
    return SampledPath(data[:, 0], data[:, 1:], norm)


def path_to_json_dict(path: SampledPath) -> dict:
    return {
        "times": [float(t) for t in path.times],
        "values": [[float(x) for x in row] for row in path.values],
        "norm": path.norm.value,
    }


def path_from_json_dict(obj: dict) -> SampledPath:
    try:
        return SampledPath(np.asarray(obj["times"], dtype=float),
                           np.asarray(obj["values"], dtype=float),
                           NormKind.parse(obj.get("norm", "euclidean")))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed path JSON: {exc}") from None


def write_path_json(path: SampledPath, file) -> None:
    with _opened(file, "w", newline="") as fh:
        json.dump(path_to_json_dict(path), fh)
        fh.write("\n")


def read_path_json(file) -> SampledPath:
    with _opened(file, "r") as fh:
        return path_from_json_dict(json.load(fh))
