"""Revenue curves in quantile space, ironing, and ironed virtual values.

The revenue curve of a discrete distribution is piecewise linear with one
breakpoint per atom; ironing replaces it by its upper concave envelope.
The ironed virtual value of a value v is the envelope's right derivative
at the quantile of v. A ValueDist derives its atoms' ironed virtual values
once, when it is built, with the envelope routine of the dist module; the
virtual table here reads them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import total_ordering

from .dist import ValueDist, _hull, _rank, _revenue_points


@total_ordering
class _NegInf:
    """Sentinel ordered below every float. Arithmetic is deliberately undefined."""

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __eq__(self, other):
        return isinstance(other, _NegInf)

    def __hash__(self):
        return hash("myersonlab.NEG_INF")

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInf()


@dataclass(frozen=True)
class RevenueCurve:
    """Piecewise-linear curve on [0, 1] given by (quantile, revenue) breakpoints."""

    breakpoints: tuple[tuple[float, float], ...]

    def value_at(self, q: float) -> float:
        """Linear interpolation between breakpoints."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        bps = self.breakpoints
        idx = bisect_right([p[0] for p in bps], q) - 1
        if idx >= len(bps) - 1:
            return bps[-1][1]
        (q0, r0), (q1, r1) = bps[idx], bps[idx + 1]
        return r0 + (r1 - r0) * (q - q0) / (q1 - q0)

    def to_json(self) -> list:
        return [[q, r] for q, r in self.breakpoints]


def revenue_curve(d: ValueDist) -> RevenueCurve:
    """Revenue curve of d: breakpoint (Pr[u >= v], v * Pr[u >= v]) per atom.

    Atoms are walked in descending value order so quantiles increase; the
    leading breakpoint is (0, 0) and the final quantile is exactly 1.
    """
    return RevenueCurve(_revenue_points(d))


def iron(c: RevenueCurve) -> RevenueCurve:
    """Upper concave envelope of the curve over its breakpoints (see dist._hull).

    The output breakpoints are a subset of the input breakpoints (collinear
    interior points are dropped).
    """
    return RevenueCurve(tuple(_hull(c.breakpoints)))


@dataclass(frozen=True)
class VirtualTable:
    """Ironed virtual values as a right-continuous step function of value.

    Segment j covers [thresholds[j], thresholds[j+1]); the last segment
    extends past the top atom, and values below thresholds[0] map to the
    NEG_INF sentinel (segment index -1).
    """

    thresholds: tuple[float, ...]
    slopes: tuple[float, ...]

    def segment(self, v: float) -> int:
        return _rank(self.thresholds, v) - 1

    def at(self, v: float):
        idx = self.segment(v)
        return NEG_INF if idx < 0 else self.slopes[idx]


def virtual_table(d: ValueDist) -> VirtualTable:
    """The ironed virtual value of each support value, which d derived when it was built."""
    return VirtualTable(d.support, d._slopes)


def ironed_virtual(d: ValueDist, v: float):
    """Right derivative of the ironed revenue curve at the quantile of v.

    Values strictly below the lowest atom sit at quantile 1 where no curve
    mass follows; they get the NEG_INF sentinel. Values above the top atom
    sit at quantile 0 and get the envelope's first slope.
    """
    return virtual_table(d).at(v)


def ironing_intervals(d: ValueDist) -> list[tuple[float, float]]:
    """Maximal quantile intervals where the envelope sits strictly above the curve.

    An envelope segment counts as ironed when some raw breakpoint strictly
    inside it lies more than 1e-12 below the envelope. The envelope's
    breakpoints are raw breakpoints, so one walk over the raw curve visits
    each segment's interior points in turn.
    """
    curve = revenue_curve(d)
    return _intervals(curve, iron(curve))


def _intervals(curve: RevenueCurve, ironed: RevenueCurve) -> list[tuple[float, float]]:
    """ironing_intervals of a revenue curve and its ironed envelope."""
    raw, hull = curve.breakpoints, ironed.breakpoints
    out = []
    j = 0
    for (q0, r0), (q1, r1) in zip(hull, hull[1:]):
        slope = (r1 - r0) / (q1 - q0)
        ironed_here = False
        while raw[j][0] < q1:
            q, r = raw[j]
            if q0 < q and r0 + slope * (q - q0) - r > 1e-12:
                ironed_here = True
            j += 1
        if ironed_here:
            out.append((q0, q1))
    return out


def monopoly(d: ValueDist) -> tuple[float, float]:
    """Best take-it-or-leave-it price over the support, ties toward the larger price."""
    revenue, price = max((v * q, v) for v, q in zip(d.support, d._above))
    return price, revenue
