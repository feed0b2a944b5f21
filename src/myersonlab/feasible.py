"""Feasible allocation systems: set systems, the exchange check, fractional vertex sets.

A feasible system is stored by the vertices of its allocation polytope
and its rank. For linear objectives (virtual welfare) randomization never
beats a vertex, so the auction optimizes over vertices only. When every
vertex is 0/1, the system also gets a set-system view as bitmasks,
derived from the vertices when it is built; explicit families are meant
for n up to about 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

_MAX_SETS = 2**18  # most sets uniform_matroid lists: (18, 9) has 155,382, (20, 10) 616,666


@dataclass(frozen=True)
class FeasibleSet:
    """Vertices of the allocation polytope in [0, 1]^n, and its rank.

    rank is the maximum l1 norm over vertices. It is passed explicitly,
    because summing a vertex is not exact: the vertices of
    all_or_nothing(10, 3) sum to 2.9999999999999996. Derived once, when the
    object is built: n, the common length of the vertices; sets_view, the
    distinct vertices as ascending bidder bitmasks, present exactly when
    every coordinate is 0 or 1; and _ranked, the read-only matrix of the
    vertices in the order of myerson's tie rule.
    """

    vertices: tuple[tuple[float, ...], ...]
    rank: float
    n: int = field(init=False, repr=False, compare=False)
    sets_view: tuple[int, ...] | None = field(init=False, repr=False, compare=False)
    _ranked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("at least one vertex is required")
        n = len(self.vertices[0])
        for v in self.vertices:
            if len(v) != n:
                raise ValueError("vertices of mixed dimension")
            for x in v:
                if not 0.0 <= x <= 1.0:
                    raise ValueError(f"allocation coordinate {x!r} outside [0, 1]")
        view = None
        if all(v.count(0.0) + v.count(1.0) == n for v in self.vertices):
            view = tuple(sorted({_mask(i for i, x in enumerate(v) if x) for v in self.vertices}))
        ranked = np.array(self.vertices, order="F")
        order = np.lexsort((*ranked.T[::-1], [-sum(v) for v in self.vertices]))  # stable
        for col in ranked.T:  # in place, so that one matrix is held at a time
            col[:] = col[order]
        ranked.setflags(write=False)
        for name, value in (("n", n), ("sets_view", view), ("_ranked", ranked)):
            object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        if self.sets_view is not None:
            return {
                "type": "sets",
                "n": self.n,
                "sets": [sorted(members(m)) for m in self.sets_view],
            }
        return {"type": "vertices", "vectors": [list(v) for v in self.vertices]}


def members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask  # the lowest set bit
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mask(subset) -> int:
    m = 0
    for i in subset:
        m |= 1 << i
    return m


def from_independent_sets(n: int, sets) -> FeasibleSet:
    """Binary system from an explicit list of allocatable bidder subsets."""
    if n < 0:
        raise ValueError(f"bidder count n={n} is negative")
    masks = set()
    for s in sets:
        s = tuple(s)
        for i in s:
            if not 0 <= i < n:
                raise ValueError(f"bidder index {i} out of range for n={n}")
        masks.add(_mask(s))
    vertices = tuple(tuple(float(m >> i & 1) for i in range(n)) for m in sorted(masks))
    return FeasibleSet(vertices, float(max((m.bit_count() for m in masks), default=0)))


def from_vertices(vectors) -> FeasibleSet:
    """System from explicit allocation vectors in [0, 1]^n; 0/1 vectors give a set system."""
    vertices = tuple(tuple(float(x) for x in v) for v in vectors)
    fs = FeasibleSet(vertices, max((sum(v) for v in vertices), default=0.0))
    if fs.sets_view is None:
        return fs
    return from_independent_sets(fs.n, map(members, fs.sets_view))


def uniform_matroid(n: int, k: int) -> FeasibleSet:
    """All bidder subsets of size at most k, refused when there are more than _MAX_SETS."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} outside 1..{n}")
    count = sum(comb(n, r) for r in range(k + 1))
    if count > _MAX_SETS:
        raise ValueError(f"uniform matroid n={n} k={k} has {count} sets, more than {_MAX_SETS}")
    sets = [c for r in range(k + 1) for c in combinations(range(n), r)]
    return from_independent_sets(n, sets)


def minimum_non_matroid() -> FeasibleSet:
    """Three bidders A, B, C: allocate to A alone, or to any subset of {B, C}."""
    return from_independent_sets(3, [(), (0,), (1,), (2,), (1, 2)])


def all_or_nothing(n: int, k: int) -> FeasibleSet:
    """Two vertices: the zero vector and the constant k/n vector."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} outside 1..{n}")
    return FeasibleSet(((0.0,) * n, (k / n,) * n), float(k))


def is_downward_closed(fs: FeasibleSet) -> bool:
    """Whether every subset of a feasible set is feasible; binary set systems only."""
    if fs.sets_view is None:
        raise ValueError("downward-closure check needs a binary set system")
    have = set(fs.sets_view)
    for m in fs.sets_view:
        for i in members(m):
            if m & ~(1 << i) not in have:
                return False
    return True


def _exchange_violation(fs: FeasibleSet) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Witness (S, S') of a failed exchange with |S| = |S'| + 1, or None.

    fs must be a binary system already known to be downward closed. Among
    violating pairs, returns one maximizing |S & S'|, breaking ties
    lexicographically on the sorted member tuples. A failed exchange
    between any two sizes shrinks to one between sizes one apart, so a
    family that holds the empty set is a matroid exactly when this is None.
    ext[S'] holds the bidders x outside S' for which S' + x is feasible, so
    (S, S') violates exchange exactly when S & ext[S'] is empty.
    """
    ext = dict.fromkeys(fs.sets_view, 0)
    by_size: dict[int, list[int]] = {}
    for m in fs.sets_view:
        by_size.setdefault(m.bit_count(), []).append(m)
        for i in members(m):
            ext[m & ~(1 << i)] |= 1 << i  # in the view, since the system is downward closed
    best = None
    best_key = None
    for sz, bigs in by_size.items():
        for s in bigs:
            for sp in by_size.get(sz - 1, []):
                if not s & ext[sp]:
                    common = -(s & sp).bit_count()
                    if best_key is None or common <= best_key[0]:  # spare members() otherwise
                        key = (common, members(s), members(sp))
                        if best_key is None or key < best_key:
                            best, best_key = key[1:], key
    return best


def feasible_from_json(obj: dict) -> FeasibleSet:
    if not isinstance(obj, dict):
        raise ValueError("a feasible system is an object with a 'type' field")
    kind = obj.get("type")
    try:
        if kind == "sets":
            return from_independent_sets(obj["n"], obj["sets"])
        if kind == "uniform_matroid":
            return uniform_matroid(obj["n"], obj["k"])
        if kind == "all_or_nothing":
            return all_or_nothing(obj["n"], obj["k"])
        if kind == "vertices":
            return from_vertices(obj["vectors"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind!r} feasible system ({exc})") from exc
    raise ValueError(f"unknown feasible-set type {kind!r}")
