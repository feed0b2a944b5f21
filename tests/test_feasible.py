"""Allocation systems: constructors, matroid checks, exchange violations."""

from itertools import combinations

import numpy as np
import pytest

from myersonlab.feasible import (
    all_or_nothing,
    demand_reduce,
    disjoint_union,
    feasible_from_json,
    find_exchange_violation,
    from_independent_sets,
    from_vertices,
    is_downward_closed,
    is_matroid,
    members,
    minimum_non_matroid,
    uniform_matroid,
)

import oracles

MINNON_SETS = [(), (0,), (1,), (2,), (1, 2)]


class TestConstructors:
    def test_minimum_non_matroid(self):
        fs = minimum_non_matroid()
        assert fs.n == 3
        assert fs.rank == 2
        assert len(fs.vertices) == 5
        assert (0.0, 1.0, 1.0) in fs.vertices
        assert is_downward_closed(fs)
        assert not is_matroid(fs)

    def test_from_independent_sets_single_item(self):
        fs = from_independent_sets(2, [(), (0,), (1,)])
        assert fs.rank == 1 and len(fs.vertices) == 3

    def test_from_independent_sets_dedupes(self):
        fs = from_independent_sets(2, [(), (0,), (0,)])
        assert len(fs.vertices) == 2

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_independent_sets(2, [(2,)])
        with pytest.raises(ValueError, match="at least one"):
            from_independent_sets(2, [])

    def test_uniform_matroid_counts(self):
        assert len(uniform_matroid(3, 1).sets_view) == 4
        assert len(uniform_matroid(3, 2).sets_view) == 7
        assert len(uniform_matroid(2, 2).sets_view) == 4
        assert uniform_matroid(3, 2).rank == 2
        with pytest.raises(ValueError):
            uniform_matroid(3, 4)

    def test_all_or_nothing(self):
        fs = all_or_nothing(2, 1)
        assert fs.vertices == ((0.0, 0.0), (0.5, 0.5))
        assert fs.sets_view is None
        assert fs.rank == 1
        assert not is_downward_closed(fs)
        with pytest.raises(ValueError):
            all_or_nothing(2, 3)

    def test_from_vertices_binary_gets_sets_view(self):
        fs = from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert fs.sets_view is not None
        assert fs.rank == 1

    def test_from_vertices_fractional(self):
        fs = from_vertices([[0.0, 0.0], [0.5, 0.5]])
        assert fs.sets_view is None
        with pytest.raises(ValueError, match="outside"):
            from_vertices([[1.5, 0.0]])


class TestDownwardClosed:
    def test_examples(self):
        assert is_downward_closed(uniform_matroid(3, 2))
        assert is_downward_closed(minimum_non_matroid())
        assert not is_downward_closed(from_independent_sets(2, [(), (0, 1)]))

    def test_fractional_vertex_check(self):
        assert not is_downward_closed(all_or_nothing(3, 2))
        assert is_downward_closed(from_vertices([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]))


class TestMatroid:
    def test_uniform_is_matroid(self):
        assert is_matroid(uniform_matroid(4, 2))

    def test_minimum_non_matroid(self):
        assert not is_matroid(minimum_non_matroid())

    def test_exchange_failure(self):
        fs = from_independent_sets(3, [(), (0,), (1,), (0, 1), (2,)])
        assert not is_matroid(fs)

    def test_fractional_raises(self):
        with pytest.raises(ValueError, match="binary"):
            is_matroid(all_or_nothing(2, 1))


class TestExchangeViolation:
    def test_minimum_non_matroid_pair(self):
        assert find_exchange_violation(minimum_non_matroid()) == ((1, 2), (0,))

    def test_matroid_has_none(self):
        assert find_exchange_violation(uniform_matroid(3, 2)) is None

    def test_padded_with_two_dummies_maximizes_intersection(self):
        sets = [
            tuple(sorted(set(s) | set(t)))
            for s in MINNON_SETS
            for t in [(), (3,), (4,), (3, 4)]
        ]
        fs = from_independent_sets(5, sets)
        s_big, s_small = find_exchange_violation(fs)
        assert len(set(s_big) & set(s_small)) == 2
        assert set(s_big) - set(s_small) == {1, 2}
        assert set(s_small) - set(s_big) == {0}

    def test_requires_downward_closed(self):
        with pytest.raises(ValueError, match="downward-closed"):
            find_exchange_violation(from_independent_sets(2, [(), (0, 1)]))
        with pytest.raises(ValueError, match="binary"):
            find_exchange_violation(all_or_nothing(2, 1))

    def _all_downward_closed(self, n):
        universe = list(range(1 << n))
        for bits in range(1, 1 << (1 << n)):
            fam = [m for m in universe if bits >> m & 1]
            if 0 not in fam:
                continue
            closed = all(
                (m & ~(1 << i)) in fam for m in fam for i in members(m)
            )
            if closed:
                yield fam

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_violation_iff_non_matroid(self, n):
        for fam in self._all_downward_closed(n):
            fs = from_independent_sets(n, [members(m) for m in fam])
            expected = oracles.is_matroid(fam)
            assert (find_exchange_violation(fs) is None) == expected
            assert is_matroid(fs) == expected

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_violation_iff_non_matroid(self, n):
        rng = np.random.default_rng(n)
        for _ in range(120):
            # random downward-closed family from random maximal sets
            maximal = [
                int(m)
                for m in rng.integers(0, 1 << n, size=int(rng.integers(1, 4)))
            ]
            fam = {0}
            for m in maximal:
                mem = members(m)
                for r in range(len(mem) + 1):
                    for sub in combinations(mem, r):
                        fam.add(sum(1 << i for i in sub))
            fs = from_independent_sets(n, [members(m) for m in sorted(fam)])
            assert is_downward_closed(fs)
            expected = oracles.is_matroid(fam)
            assert (find_exchange_violation(fs) is None) == expected
            assert is_matroid(fs) == expected


class TestDemandReduce:
    def test_identity(self):
        fs = uniform_matroid(2, 1)
        assert demand_reduce(fs, 1.0) is fs

    def test_halving(self):
        fs = demand_reduce(all_or_nothing(2, 2), 2.0)
        assert fs.vertices == ((0.0, 0.0), (0.5, 0.5))
        assert fs.rank == 1.0

    def test_uniform_matroid_halved(self):
        fs = demand_reduce(uniform_matroid(2, 1), 2.0)
        assert (0.5, 0.0) in fs.vertices
        assert fs.sets_view is None

    def test_rank_scales_exactly(self):
        for d in (2.0, 3.0, 7.0):
            fs = uniform_matroid(3, 3)
            assert demand_reduce(fs, d).rank == fs.rank / d

    def test_demand_too_small(self):
        with pytest.raises(ValueError, match="smaller"):
            demand_reduce(uniform_matroid(2, 1), 0.5)


class TestDisjointUnion:
    def test_two_single_item_copies(self):
        fs = disjoint_union([uniform_matroid(1, 1), uniform_matroid(1, 1)])
        assert fs.n == 2
        assert fs.rank == 2
        assert len(fs.sets_view) == 4


class TestJson:
    def test_sets_round_trip(self):
        fs = minimum_non_matroid()
        obj = fs.to_json()
        assert obj["type"] == "sets"
        assert feasible_from_json(obj).sets_view == fs.sets_view

    def test_named_families(self):
        fs = feasible_from_json({"type": "uniform_matroid", "n": 3, "k": 2})
        assert fs.rank == 2
        fs = feasible_from_json({"type": "all_or_nothing", "n": 4, "k": 2})
        assert fs.vertices[1] == (0.5, 0.5, 0.5, 0.5)

    def test_vertices_type(self):
        fs = feasible_from_json({"type": "vertices", "vectors": [[0, 0], [0.5, 0.5]]})
        assert fs.sets_view is None

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown"):
            feasible_from_json({"type": "nope"})

    @pytest.mark.parametrize(
        "obj",
        [
            [{"type": "uniform_matroid", "n": 3, "k": 2}],
            {"type": "uniform_matroid", "n": 3},
            {"type": "sets", "n": 3, "sets": [[0], 1]},
            {"type": "vertices", "vectors": [0.5, 0.5]},
        ],
    )
    def test_malformed_shape(self, obj):
        with pytest.raises(ValueError):
            feasible_from_json(obj)
