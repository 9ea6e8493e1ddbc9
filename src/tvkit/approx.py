"""Greedy uniform approximation with total-variation control.

The skeleton walks the samples and restarts its reference value whenever the
path moves more than c/2 away from it.  At a stop with a small one-step move
(< c/2) the reference stays at the current sample and the next stop is the
first later sample farther than c/2 from it; a one-step move >= c/2 makes the
successor sample itself the next stop ("big jump": the reference rides the
jump).  The induced step approximant stays within c/2 of the path at every
sample, moves by at least c/2 between consecutive distinct values (except on
the final stretch, where it simply holds its last reference), and its total
variation is at most lam * TTV(path, (lam-1) c / (2 lam)) for every lam > 1.

A piecewise-linear variant shares the same knots and the exact same total
variation; between knots it either holds the segment reference (when the
increment into the next knot exceeds the continuity threshold, or when
interpolating would leave the distance c to some sample) or interpolates
linearly to it.

The walk, both approximants and their evaluation on the grid are O(n) in the
number of samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .paths import SampledPath
from .variation import ttv_profile

__all__ = [
    "GreedySkeleton",
    "Approximant",
    "SandwichReport",
    "greedy_skeleton",
    "step_approx",
    "linear_approx",
    "sandwich",
]

SMALL = "small-jump"
BIG = "big-jump"


@dataclass(frozen=True)
class GreedySkeleton:
    """Stopping times of the greedy walk, with the branch taken at each step."""

    taus: np.ndarray            # skeleton times, tau_0 = a
    indices: np.ndarray         # sample indices of the taus
    branch: tuple[str, ...]     # per step between consecutive taus
    c: float

    @property
    def steps(self) -> int:
        return len(self.branch)


def greedy_skeleton(path: SampledPath, c: float) -> GreedySkeleton:
    if not c > 0.0:
        raise DomainError("c must be positive")
    half = 0.5 * c
    steps = path.increments().tolist()
    n = path.n
    idx = [0]
    branch: list[str] = []
    i = 0
    while i < n - 1:
        if steps[i] >= half:
            j = i + 1
            branch.append(BIG)
        else:
            j = _first_exit(path, i, half)
            if j is None:
                break
            branch.append(SMALL)
        idx.append(j)
        i = j
    indices = np.asarray(idx, dtype=int)
    return GreedySkeleton(taus=path.times[indices], indices=indices,
                          branch=tuple(branch), c=float(c))


_FIRST_WINDOW = 16


def _first_exit(path: SampledPath, i: int, half: float) -> int | None:
    """First index j > i with ||x_j - x_i|| > half, or None if there is none.

    Scans consecutive windows of doubling width, so the cost is linear in
    j - i rather than in the n - i samples left; summed over the walk's stops
    that makes the skeleton O(n).
    """
    values = path.values
    n = path.n
    lo, width = i + 1, _FIRST_WINDOW
    while lo < n:
        hi = min(n, lo + width)
        far = path.norm_of(values[lo:hi] - values[i]) > half
        k = int(far.argmax())
        if far[k]:
            return lo + k
        lo, width = hi, 2 * width
    return None


@dataclass(frozen=True)
class Approximant:
    """A step or piecewise-linear approximant of a sampled path.

    For kind "step", ``path`` holds the approximant resampled on the source
    grid.  For kind "linear" the knot data describe it exactly on
    [knot_times[0], end_time]: on each open inter-knot interval the value is
    either held at ``seg_anchor`` (held segment) or interpolated from the
    anchor to the next knot value; past the last knot the tail anchor is held
    to the source path's end time.
    """

    kind: str
    skeleton: GreedySkeleton
    tv: float
    sup_distance: float
    path: SampledPath | None = None
    knot_times: np.ndarray | None = None
    knot_values: np.ndarray | None = None
    seg_anchor: np.ndarray | None = None
    seg_held: tuple[bool, ...] | None = None
    tail_anchor: np.ndarray | None = None
    end_time: float | None = None

    def eval_at(self, t) -> np.ndarray:
        if self.kind == "step":
            return self.path.eval_at(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        knots, kv = self.knot_times, self.knot_values
        if ts.size and not (ts.min() >= knots[0] and ts.max() <= self.end_time):
            raise DomainError("evaluation time outside the approximant range")
        pos = np.searchsorted(knots, ts)
        at_knot = knots[np.minimum(pos, knots.size - 1)] == ts
        tail = ~at_knot & (pos == knots.size)
        inner = ~at_knot & ~tail
        out = np.empty((ts.size, kv.shape[1]))
        out[at_knot] = kv[pos[at_knot]]
        if tail.any():
            out[tail] = self.tail_anchor
        s = pos[inner] - 1
        anchor = self.seg_anchor[s]
        lam = ((ts[inner] - knots[s]) / (knots[s + 1] - knots[s]))[:, None]
        held = np.array(self.seg_held, dtype=bool)[s, None]
        out[inner] = np.where(held, anchor, (1.0 - lam) * anchor + lam * kv[s + 1])
        return out


def _segment_layout(path: SampledPath, sk: GreedySkeleton):
    """Segment start and end indices, segment anchors, last knot, tail anchor."""
    starts, ends = sk.indices[:-1], sk.indices[1:]
    big = np.array([b == BIG for b in sk.branch], dtype=bool)
    anchors = path.values[starts + big]
    last = int(sk.indices[-1])
    tail = path.values[last] if last < path.n - 1 else None
    return starts, ends, anchors, last, tail


def _trace_tv(path: SampledPath, ends, anchors, tail) -> float:
    """Total variation of the approximant as the walk's value trace
    x_0, anchor_0, x_end_0, anchor_1, x_end_1, ..., tail."""
    m = anchors.shape[0]
    trace = np.empty((1 + 2 * m + (tail is not None), path.dim))
    trace[0] = path.values[0]
    trace[1:2 * m + 1:2] = anchors
    trace[2:2 * m + 2:2] = path.values[ends]
    if tail is not None:
        trace[-1] = tail
    if trace.shape[0] < 2:
        return 0.0
    return float(np.sum(path.norm_of(np.diff(trace, axis=0))))


def step_approx(path: SampledPath, c: float) -> Approximant:
    """Greedy step approximant, resampled on the source grid."""
    sk = greedy_skeleton(path, c)
    starts, ends, anchors, last, tail = _segment_layout(path, sk)
    values = path.values
    w = np.empty_like(values)
    w[:last] = anchors[np.repeat(np.arange(starts.size), ends - starts)]
    w[starts] = values[starts]
    w[last:] = values[last]
    approx_path = SampledPath(path.times, w, path.norm)
    # the trace reduction makes tv bit-identical with the linear variant's;
    # the grid representation's jump sum equals it up to summation order
    tv = _trace_tv(path, ends, anchors, tail)
    sup_dist = float(np.max(path.norm_of(w - values)))
    return Approximant(kind="step", skeleton=sk, tv=tv, sup_distance=sup_dist,
                       path=approx_path)


def linear_approx(path: SampledPath, c: float, eps_cont: float = 0.0) -> Approximant:
    """Greedy piecewise-linear approximant with the same total variation.

    A segment interpolates to its terminal knot only when the one-step
    increment into that knot is <= eps_cont (the sampled notion of arriving
    continuously) and the interpolant stays within c of every sample on the
    segment; otherwise the segment holds its anchor and jumps at the knot.
    Held segments stay within c/2, so the approximant is always within c.
    With the default eps_cont = 0 every segment is held.
    """
    if not eps_cont >= 0.0:
        raise DomainError("eps_cont must be nonnegative")
    sk = greedy_skeleton(path, c)
    starts, ends, anchors, last, tail = _segment_layout(path, sk)
    values = path.values
    held = path.increments()[ends - 1] > eps_cont
    approx = Approximant(
        kind="linear", skeleton=sk, tv=_trace_tv(path, ends, anchors, tail),
        sup_distance=0.0, knot_times=path.times[sk.indices],
        knot_values=values[sk.indices], seg_anchor=anchors,
        seg_held=tuple(held.tolist()), tail_anchor=tail, end_time=path.b,
    )
    err = path.norm_of(approx.eval_at(path.times) - values)
    if not held.all():
        held |= np.maximum.reduceat(err[:last], starts) > c
        approx = replace(approx, seg_held=tuple(held.tolist()))
        err = path.norm_of(approx.eval_at(path.times) - values)
    return replace(approx, sup_distance=float(np.max(err)))


@dataclass(frozen=True)
class SandwichReport:
    """Lower bound, greedy witness, and lambda-grid upper bound."""

    lower: float
    upper: float
    witness_tv: float
    c: float
    lambdas: tuple[float, ...]


def sandwich(path: SampledPath, c: float, lambdas=(2.0,)) -> SandwichReport:
    """Bracket the least total variation within uniform distance c/2.

    lower = TTV(path, c) <= inf TV over the c/2-ball <= witness (the greedy
    step approximant's TV) <= upper = min over the grid of
    lam * TTV(path, (lam-1) c / (2 lam)).  The gap lower < witness can be
    strict for vector-valued paths (the circle3 fixture at c = sqrt(3)).
    """
    if not c > 0.0:
        raise DomainError("c must be positive")
    lams = tuple(float(l) for l in lambdas)
    if not lams or not all(l > 1.0 for l in lams):
        raise DomainError("each lambda must exceed 1")
    reads = ttv_profile(path).ttv([c] + [(l - 1.0) * c / (2.0 * l) for l in lams])
    lower = float(reads[0])
    upper = min(l * float(t) for l, t in zip(lams, reads[1:]))
    witness = step_approx(path, c).tv
    return SandwichReport(lower=lower, upper=upper, witness_tv=witness,
                          c=float(c), lambdas=lams)
