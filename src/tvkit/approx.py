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
increment into the next knot exceeds the continuity threshold) or
interpolates linearly to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .paths import SampledPath
from .variation import ttv

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
    values = path.values
    n = path.n
    idx = [0]
    branch: list[str] = []
    i = 0
    while i < n - 1:
        one_step = float(path.norm_of(values[i + 1] - values[i]))
        if one_step >= half:
            j = i + 1
            branch.append(BIG)
        else:
            dists = path.norm_of(values[i + 1:] - values[i])
            hits = np.nonzero(dists > half)[0]
            if hits.size == 0:
                break
            j = i + 1 + int(hits[0])
            branch.append(SMALL)
        idx.append(j)
        i = j
    indices = np.asarray(idx, dtype=int)
    return GreedySkeleton(taus=path.times[indices], indices=indices,
                          branch=tuple(branch), c=float(c))


@dataclass(frozen=True)
class Approximant:
    """A step or piecewise-linear approximant of a sampled path.

    For kind "step", ``path`` holds the approximant resampled on the source
    grid.  For kind "linear" the knot data describe it exactly: on each open
    inter-knot interval the value is either held at ``seg_anchor`` (held
    segment, i.e. the source jumps into the next knot) or interpolated from
    the anchor to the next knot value; past the last knot the tail anchor is
    held to the end.
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

    def eval_at(self, t) -> np.ndarray:
        if self.kind == "step":
            return self.path.eval_at(t)
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        knots = self.knot_times
        out = np.empty((ts.size, self.knot_values.shape[1]))
        for row, x in enumerate(ts):
            pos = int(np.searchsorted(knots, x))
            if pos < knots.size and knots[pos] == x:
                out[row] = self.knot_values[pos]
            elif pos == 0:
                raise DomainError("evaluation time outside the approximant range")
            elif pos >= knots.size:
                if self.tail_anchor is None:
                    raise DomainError("evaluation time outside the approximant range")
                out[row] = self.tail_anchor
            else:
                s = pos - 1
                if self.seg_held[s]:
                    out[row] = self.seg_anchor[s]
                else:
                    lam = (x - knots[s]) / (knots[s + 1] - knots[s])
                    out[row] = (1.0 - lam) * self.seg_anchor[s] + lam * self.knot_values[s + 1]
        return out


def _segment_layout(path: SampledPath, sk: GreedySkeleton):
    """Per-segment (start_idx, end_idx_or_None, anchor) for the skeleton."""
    values = path.values
    segs = []
    for m, start in enumerate(sk.indices[:-1]):
        anchor = values[start + 1] if sk.branch[m] == BIG else values[start]
        segs.append((int(start), int(sk.indices[m + 1]), anchor))
    last = int(sk.indices[-1])
    tail = values[last] if last < path.n - 1 else None
    return segs, last, tail


def _trace_tv(path: SampledPath, sk: GreedySkeleton) -> float:
    """Total variation of the approximant as the walk's value trace."""
    segs, last, tail = _segment_layout(path, sk)
    trace = [path.values[sk.indices[0]]]
    for _, end, anchor in segs:
        trace.append(anchor)
        trace.append(path.values[end])
    if tail is not None:
        trace.append(tail)
    trace = np.asarray(trace)
    if trace.shape[0] < 2:
        return 0.0
    return float(np.sum(path.norm_of(np.diff(trace, axis=0))))


def step_approx(path: SampledPath, c: float) -> Approximant:
    """Greedy step approximant, resampled on the source grid."""
    sk = greedy_skeleton(path, c)
    segs, last, tail = _segment_layout(path, sk)
    w = np.empty_like(path.values)
    for start, end, anchor in segs:
        w[start] = path.values[start]
        w[start + 1:end] = anchor
    w[last:] = path.values[last]
    approx_path = SampledPath(path.times, w, path.norm)
    # the trace reduction makes tv bit-identical with the linear variant's;
    # the grid representation's jump sum equals it up to summation order
    tv = _trace_tv(path, sk)
    sup_dist = float(np.max(path.norm_of(w - path.values)))
    return Approximant(kind="step", skeleton=sk, tv=tv, sup_distance=sup_dist,
                       path=approx_path)


def linear_approx(path: SampledPath, c: float, eps_cont: float = 0.0) -> Approximant:
    """Greedy piecewise-linear approximant with the same total variation.

    A segment interpolates to its terminal knot only when the one-step
    increment into that knot is <= eps_cont (the sampled notion of arriving
    continuously); otherwise the segment holds its anchor and jumps at the
    knot.  With the default eps_cont = 0 only exactly repeated values count
    as continuous arrivals.
    """
    if not eps_cont >= 0.0:
        raise DomainError("eps_cont must be nonnegative")
    sk = greedy_skeleton(path, c)
    segs, last, tail = _segment_layout(path, sk)
    values = path.values
    anchors = []
    held = []
    for start, end, anchor in segs:
        step_in = float(path.norm_of(values[end] - values[end - 1]))
        anchors.append(anchor)
        held.append(step_in > eps_cont)
    knot_idx = sk.indices
    knot_values = values[knot_idx]
    tv = _trace_tv(path, sk)

    approx = Approximant(
        kind="linear", skeleton=sk, tv=tv, sup_distance=0.0,
        knot_times=path.times[knot_idx],
        knot_values=knot_values,
        seg_anchor=np.asarray(anchors) if anchors else np.zeros((0, path.dim)),
        seg_held=tuple(held),
        tail_anchor=tail,
    )
    on_grid = approx.eval_at(path.times)
    sup_dist = float(np.max(path.norm_of(on_grid - values)))
    object.__setattr__(approx, "sup_distance", sup_dist)
    return approx


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
    lower = ttv(path, c)
    upper = min(l * ttv(path, (l - 1.0) * c / (2.0 * l)) for l in lams)
    witness = step_approx(path, c).tv
    return SandwichReport(lower=lower, upper=upper, witness_tv=witness,
                          c=float(c), lambdas=lams)
