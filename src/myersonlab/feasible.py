"""Feasible allocation systems: set systems, matroid checks, fractional vertex sets.

A feasible system is stored by the vertices of its allocation polytope.
For linear objectives (virtual welfare) randomization never beats a
vertex, so the auction optimizes over vertices only. Binary systems keep
a parallel set-system view encoded as bitmasks; explicit families are
meant for n up to about 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product


@dataclass(frozen=True)
class FeasibleSet:
    """Vertices of the allocation polytope, with an optional set-system view.

    sets_view holds bidder subsets as bitmasks and is present exactly when
    every vertex is 0/1. rank is the maximum l1 norm over vertices, carried
    explicitly so constructors can keep it exact.
    """

    n: int
    vertices: tuple[tuple[float, ...], ...]
    sets_view: tuple[int, ...] | None
    rank: float

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
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _mask(subset) -> int:
    m = 0
    for i in subset:
        m |= 1 << i
    return m


def _indicator(n: int, mask: int) -> tuple[float, ...]:
    return tuple(1.0 if mask >> i & 1 else 0.0 for i in range(n))


def from_independent_sets(n: int, sets) -> FeasibleSet:
    """Binary system from an explicit list of allocatable bidder subsets."""
    sets = list(sets)
    if not sets:
        raise ValueError("at least one feasible subset is required")
    masks = set()
    for s in sets:
        s = tuple(s)
        for i in s:
            if not 0 <= i < n:
                raise ValueError(f"bidder index {i} out of range for n={n}")
        masks.add(_mask(s))
    view = tuple(sorted(masks))
    vertices = tuple(_indicator(n, m) for m in view)
    rank = max(bin(m).count("1") for m in view)
    return FeasibleSet(n, vertices, view, float(rank))


def from_vertices(vectors) -> FeasibleSet:
    """System from explicit allocation vectors in [0, 1]^n."""
    vertices = tuple(tuple(float(x) for x in v) for v in vectors)
    if not vertices:
        raise ValueError("at least one vertex is required")
    n = len(vertices[0])
    for v in vertices:
        if len(v) != n:
            raise ValueError("vertices of mixed dimension")
        for x in v:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"allocation coordinate {x!r} outside [0, 1]")
    binary = all(x in (0.0, 1.0) for v in vertices for x in v)
    view = None
    if binary:
        view = tuple(sorted({_mask(i for i, x in enumerate(v) if x > 0) for v in vertices}))
        vertices = tuple(_indicator(n, m) for m in view)
    rank = max(sum(v) for v in vertices)
    return FeasibleSet(n, vertices, view, rank)


def uniform_matroid(n: int, k: int) -> FeasibleSet:
    """All bidder subsets of size at most k."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} outside 1..{n}")
    sets = [c for r in range(k + 1) for c in combinations(range(n), r)]
    return from_independent_sets(n, sets)


def minimum_non_matroid() -> FeasibleSet:
    """Three bidders A, B, C: allocate to A alone, or to any subset of {B, C}."""
    return from_independent_sets(3, [(), (0,), (1,), (2,), (1, 2)])


def all_or_nothing(n: int, k: int) -> FeasibleSet:
    """Two vertices: the zero vector and the constant k/n vector."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} outside 1..{n}")
    zero = (0.0,) * n
    full = (k / n,) * n
    view = None
    if k == n:
        view = (0, _mask(range(n)))
    return FeasibleSet(n, (zero, full), view, float(k))


def disjoint_union(parts: list[FeasibleSet]) -> FeasibleSet:
    """Independent copies side by side; feasible sets are unions of per-part sets."""
    if any(p.sets_view is None for p in parts):
        raise ValueError("disjoint union needs binary systems")
    n = sum(p.n for p in parts)
    masks = []
    offsets = []
    off = 0
    for p in parts:
        offsets.append(off)
        off += p.n
    for combo in product(*[p.sets_view for p in parts]):
        m = 0
        for part_mask, shift in zip(combo, offsets):
            m |= part_mask << shift
        masks.append(m)
    view = tuple(sorted(set(masks)))
    vertices = tuple(_indicator(n, m) for m in view)
    rank = sum(p.rank for p in parts)
    return FeasibleSet(n, vertices, view, rank)


def is_downward_closed(fs: FeasibleSet) -> bool:
    """Whether shrinking any feasible allocation stays feasible.

    Binary systems get the exact subset check. Fractional systems are
    checked on the vertex list: zeroing any positive coordinate of any
    vertex must give another vertex.
    """
    if fs.sets_view is not None:
        have = set(fs.sets_view)
        for m in fs.sets_view:
            for i in members(m):
                if m & ~(1 << i) not in have:
                    return False
        return True
    have_v = set(fs.vertices)
    for v in fs.vertices:
        for i, x in enumerate(v):
            if x > 0.0 and v[:i] + (0.0,) + v[i + 1 :] not in have_v:
                return False
    return True


def is_matroid(fs: FeasibleSet) -> bool:
    """Empty set present, downward closed, and the exchange property holds.

    In a downward-closed family a failed exchange between any two sizes
    shrinks to one between sizes one apart, so find_exchange_violation
    decides the exchange property.
    """
    if fs.sets_view is None:
        raise ValueError("matroid check needs a binary set system")
    return 0 in fs.sets_view and is_downward_closed(fs) and find_exchange_violation(fs) is None


def find_exchange_violation(
    fs: FeasibleSet,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Witness (S, S') of a failed exchange with |S| = |S'| + 1, or None.

    Among violating pairs, returns one maximizing |S & S'|, breaking ties
    lexicographically on the sorted member tuples. Requires a
    downward-closed binary system; on a matroid returns None.
    """
    if fs.sets_view is None:
        raise ValueError("exchange check needs a binary set system")
    if not is_downward_closed(fs):
        raise ValueError("exchange check needs a downward-closed system")
    have = set(fs.sets_view)
    by_size: dict[int, list[int]] = {}
    for m in fs.sets_view:
        by_size.setdefault(bin(m).count("1"), []).append(m)
    best = None
    best_key = None
    for sz, bigs in by_size.items():
        for s in bigs:
            for sp in by_size.get(sz - 1, []):
                violated = True
                for i in members(s & ~sp):
                    if sp | (1 << i) in have:
                        violated = False
                        break
                if s & ~sp and violated:
                    key = (-bin(s & sp).count("1"), members(s), members(sp))
                    if best_key is None or key < best_key:
                        best, best_key = (members(s), members(sp)), key
    return best


def demand_reduce(fs: FeasibleSet, d: float) -> FeasibleSet:
    """Scale every allocation by 1/d; rank scales exactly by 1/d."""
    top = max(x for v in fs.vertices for x in v)
    if d < top:
        raise ValueError(f"demand {d!r} smaller than coordinate {top!r}")
    if d == 1.0:
        return fs
    vertices = tuple(tuple(x / d for x in v) for v in fs.vertices)
    binary = all(x in (0.0, 1.0) for v in vertices for x in v)
    view = fs.sets_view if binary else None
    return FeasibleSet(fs.n, vertices, view, fs.rank / d)


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
