"""Feasible allocation systems: set systems, the exchange check, fractional vertex sets.

A feasible system is one read-only matrix of the vertices of its allocation
polytope, and its rank. For linear objectives (virtual welfare) randomization
never beats a vertex, so the auction optimizes over vertices only. A 0/1 matrix
is a set system, read as bitmasks by masks; explicit families suit n up to 20.
"""

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb

import numpy as np

from .dist import _numbers

_MAX_SETS = 2**18  # most sets uniform_matroid lists: (18, 9) has 155,382, (20, 10) 616,666


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Vertices of the allocation polytope in [0, 1]^n, and its rank.

    vertices, given as equal-length vectors, is kept as a read-only,
    F-contiguous (m, n) float matrix in myerson's tie order: descending total
    summed left to right, then lexicographic, then input position. rank is
    the largest l1 norm of a vertex, passed because sums are inexact.
    """

    vertices: np.ndarray
    rank: float

    def __post_init__(self):
        v = _matrix(self.vertices)
        totals = reduce(np.subtract, v.T, np.zeros(len(v)))  # negated, each summed left to right
        order = np.lexsort((*v.T[::-1], totals))  # stable
        for col in v.T:  # in place, so that one matrix is held at a time
            col[:] = col[order]
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    def to_json(self) -> dict:
        sets = masks(self.vertices)
        if sets is not None:
            return {"type": "sets", "n": self.n, "sets": [sorted(members(m)) for m in sets]}
        return {"type": "vertices", "vectors": self.vertices.tolist()}


def _matrix(vertices) -> np.ndarray:
    """A fresh F-order float matrix of the vertices, refused unless every one is in [0, 1]^n."""
    try:
        v = np.array(vertices, dtype=float, order="F")
    except ValueError as exc:
        raise ValueError(f"vertices of mixed dimension or not numbers ({exc})") from None
    if v.ndim != 2 or not len(v):
        raise ValueError("vertices must be a list of at least one vertex, each a list of numbers")
    bad = v[~((v >= 0.0) & (v <= 1.0))]  # NaN included
    if bad.size:
        raise ValueError(f"allocation coordinate {bad[0].item()!r} outside [0, 1]")
    return v


def masks(vertices: np.ndarray) -> list[int] | None:
    """The distinct 0/1 rows as ascending bitmasks, exact for any n; None if a row is fractional."""
    if not ((vertices == 0.0) | (vertices == 1.0)).all():
        return None
    rows = np.packbits(vertices != 0.0, axis=1, bitorder="little").tolist()
    return sorted({int.from_bytes(row, "little") for row in rows})


def members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask  # the lowest set bit
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _from_masks(n: int, family) -> FeasibleSet:
    """Binary system with one vertex per mask in a collection of distinct masks, in one unpack."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in family), np.uint8)
    rows = np.unpackbits(packed.reshape(len(family), width), axis=1, count=n, bitorder="little")
    return FeasibleSet(rows, float(max((m.bit_count() for m in family), default=0)))


def from_independent_sets(n: int, sets) -> FeasibleSet:
    """Binary system from an explicit list of allocatable bidder subsets."""
    if n < 0:
        raise ValueError(f"bidder count n={n} is negative")
    family = set()
    for s in sets:
        m = 0
        for i in map(operator.index, s):  # a numpy integer would wrap in the shift
            if not 0 <= i < n:
                raise ValueError(f"bidder index {i} out of range for n={n}")
            m |= 1 << i
        family.add(m)
    return _from_masks(n, family)


def from_vertices(vectors) -> FeasibleSet:
    """System from explicit allocation vectors in [0, 1]^n; 0/1 vectors give a set system."""
    v = _matrix(vectors)
    family = masks(v)
    if family is None:
        return FeasibleSet(v, max(sum(row) for row in v.tolist()))
    return _from_masks(v.shape[1], family)


def uniform_matroid(n: int, k: int) -> FeasibleSet:
    """All bidder subsets of size at most k, refused when there are more than _MAX_SETS."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} outside 1..{n}")
    count = sum(comb(n, r) for r in range(k + 1))
    if count > _MAX_SETS:
        raise ValueError(f"uniform matroid n={n} k={k} has {count} sets, more than {_MAX_SETS}")
    bits = [1 << i for i in range(n)]
    return _from_masks(n, [sum(c) for r in range(k + 1) for c in combinations(bits, r)])


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
    sets = masks(fs.vertices)
    if sets is None:
        raise ValueError("downward-closure check needs a binary set system")
    have = set(sets)
    return all(m & ~(1 << i) in have for m in sets for i in members(m))


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
    sets = masks(fs.vertices)
    ext = dict.fromkeys(sets, 0)
    by_size: dict[int, list[int]] = {}
    for m in sets:
        by_size.setdefault(m.bit_count(), []).append(m)
        for i in members(m):
            ext[m & ~(1 << i)] |= 1 << i  # in the family, since the system is downward closed
    best = None
    for sz, bigs in by_size.items():
        for s in bigs:
            for sp in by_size.get(sz - 1, []):
                if not s & ext[sp]:
                    common = -(s & sp).bit_count()
                    if best is None or common <= best[0]:  # spare members() otherwise
                        key = (common, members(s), members(sp))
                        if best is None or key < best:
                            best = key
    return None if best is None else best[1:]


def feasible_from_json(obj: dict) -> FeasibleSet:
    if not isinstance(obj, dict):
        raise ValueError("a feasible system is an object with a 'type' field")
    kind = obj.get("type")
    try:
        if kind == "sets":
            return from_independent_sets(_numbers(obj["n"], "n"), _numbers(obj["sets"], "sets"))
        if kind == "uniform_matroid":
            return uniform_matroid(_numbers(obj["n"], "n"), _numbers(obj["k"], "k"))
        if kind == "all_or_nothing":
            return all_or_nothing(_numbers(obj["n"], "n"), _numbers(obj["k"], "k"))
        if kind == "vertices":
            return from_vertices(_numbers(obj["vectors"], "vectors"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind!r} feasible system ({exc})") from exc
    raise ValueError(f"unknown feasible-set type {kind!r}")
