"""Allocation systems: constructors, matroid checks, exchange violations."""

import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from myersonlab.feasible import (
    FeasibleSet,
    _exchange_violation,
    all_or_nothing,
    feasible_from_json,
    from_independent_sets,
    from_vertices,
    is_downward_closed,
    masks,
    members,
    minimum_non_matroid,
    uniform_matroid,
)

from myersonlab.lab import PreconditionError, embed_counterexample

import oracles
from fuzz import downward_closed_families, random_downward_closed

MINNON_SETS = [(), (0,), (1,), (2,), (1, 2)]


def in_tie_order(system, rows):
    """Whether the system's matrix holds rows in the counting oracle's tie order, bit for bit."""
    ranked = np.array([rows[j] for j in oracles.tie_order(rows)], dtype=float)
    return system.vertices.shape == ranked.shape and system.vertices.tobytes() == ranked.tobytes()


def uniform_sets(n, k):
    """Every subset of range(n) of size at most k, as member tuples."""
    return [c for r in range(k + 1) for c in combinations(range(n), r)]


def same_matrix(a, b):
    """Whether two matrices agree in shape and bit for bit."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConstructors:
    def test_minimum_non_matroid(self):
        fs = minimum_non_matroid()
        assert fs.n == 3
        assert fs.rank == 2
        assert len(fs.vertices) == 5
        assert [0.0, 1.0, 1.0] in fs.vertices.tolist()
        assert is_downward_closed(fs)
        assert _exchange_violation(fs) is not None

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

    def test_negative_bidder_count(self):
        for sets in ([[]], [[0]], []):
            with pytest.raises(ValueError, match=r"^bidder count n=-1 is negative$"):
                from_independent_sets(-1, sets)
        assert from_independent_sets(0, [[]]).vertices.shape == (1, 0)  # no bidders stays allowed

    def test_uniform_matroid_counts(self):
        assert len(masks(uniform_matroid(3, 1).vertices)) == 4
        assert len(masks(uniform_matroid(3, 2).vertices)) == 7
        assert len(masks(uniform_matroid(2, 2).vertices)) == 4
        assert uniform_matroid(3, 2).rank == 2
        with pytest.raises(ValueError):
            uniform_matroid(3, 4)

    def test_uniform_matroid_counts_its_sets_before_listing_them(self):
        with pytest.raises(ValueError, match="n=40 k=20 has 618679078298 sets, more than 262144"):
            uniform_matroid(40, 20)
        # the largest balanced family holds its matrix and little else
        tracemalloc.start()
        try:
            fs = uniform_matroid(18, 9)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fs.vertices.shape == (155_382, 18)
        assert held <= 1.25 * fs.vertices.nbytes, (held, fs.vertices.nbytes)

    def test_all_or_nothing(self):
        fs = all_or_nothing(2, 1)
        assert fs.vertices.tolist() == [[0.5, 0.5], [0.0, 0.0]]
        assert masks(fs.vertices) is None
        assert fs.rank == 1
        with pytest.raises(ValueError):
            all_or_nothing(2, 3)

    def test_from_vertices_binary_gets_sets_view(self):
        fs = from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert masks(fs.vertices) == [0, 1, 2]
        assert fs.rank == 1

    def test_from_vertices_fractional(self):
        fs = from_vertices([[0.0, 0.0], [0.5, 0.5]])
        assert masks(fs.vertices) is None
        with pytest.raises(ValueError, match="outside"):
            from_vertices([[1.5, 0.0]])

    def test_view_and_n_are_derived_from_the_vertices(self):
        # the masks come from the matrix alone, so a matroid's vertices make a matroid
        fs = FeasibleSet(uniform_matroid(3, 2).vertices, 2.0)
        assert fs.n == 3 and masks(fs.vertices) == masks(uniform_matroid(3, 2).vertices)
        assert is_downward_closed(fs) and _exchange_violation(fs) is None
        assert masks(FeasibleSet(((0.0, 1.0), (1.0, 0.0), (0.0, 1.0)), 1.0).vertices) == [1, 2]
        assert masks(FeasibleSet(((0.0, 0.5),), 0.5).vertices) is None
        # the read-only matrix holds the rows passed in, in the counting oracle's tie order
        fractional = [(0.0, 0.0), (0.6, 0.0), (0.6, 0.4), (0.0, 1.0), (0.5, 0.5)]
        repeated = [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
        for system, rows in (
            (fs, oracles.set_vertices(3, uniform_sets(3, 2))),
            (minimum_non_matroid(), oracles.set_vertices(3, MINNON_SETS)),
            (uniform_matroid(4, 2), oracles.set_vertices(4, uniform_sets(4, 2))),
            (all_or_nothing(10, 3), [(0.0,) * 10, (0.3,) * 10]),
            (FeasibleSet(tuple(repeated), 1.0), repeated),
            (from_vertices(fractional), fractional),
        ):
            assert in_tie_order(system, rows)
            assert not system.vertices.flags.writeable

    def test_tie_order_of_many_tied_systems_matches_the_counting_oracle(self):
        # repeated vertices, equal totals, fractional and -0.0 coordinates, and no bidders
        rng = np.random.default_rng(17)
        levels = [(0.0, 1.0), (0.0, 0.5, 1.0), (0.1, 0.2, 0.3, 0.7), (0.0, -0.0, 1.0, 1 / 3, 2 / 3)]
        row_lists = [
            [(), ()],
            [(0.5, 0.5), (0.0, 1.0), (1.0, -0.0), (0.5, 0.5), (-0.0, 1.0)],
            oracles.set_vertices(7, uniform_sets(7, 3)),
        ]
        for _ in range(200):
            n, count = int(rng.integers(1, 8)), int(rng.integers(1, 31))
            level = levels[int(rng.integers(len(levels)))]
            row_lists.append(list(map(tuple, rng.choice(level, size=(count, n)).tolist())))
        for rows in row_lists:
            system = FeasibleSet(tuple(rows), 1.0)
            assert in_tie_order(system, rows)
            assert system.vertices.flags.f_contiguous and not system.vertices.flags.writeable

    def test_every_constructor_matches_the_lexsort_oracle(self):
        # each built matrix equals one lexsort of the float tuples its sets or vectors expand to
        rng = np.random.default_rng(23)
        cases = [
            (minimum_non_matroid(), oracles.set_vertices(3, MINNON_SETS)),
            (all_or_nothing(10, 3), [(0.0,) * 10, (0.3,) * 10]),
            (from_vertices([[0, 1], [1, 0], [0, 0], [0, 1]]),
             oracles.set_vertices(2, [(1,), (0,), ()])),
            (from_vertices([[0.0, 0.0], [0.5, 0.5]]), [(0.0, 0.0), (0.5, 0.5)]),
            (feasible_from_json({"type": "sets", "n": 3, "sets": MINNON_SETS}),
             oracles.set_vertices(3, MINNON_SETS)),
            (feasible_from_json({"type": "all_or_nothing", "n": 4, "k": 2}),
             [(0.0,) * 4, (0.5,) * 4]),
        ]
        for n, k in ((1, 1), (5, 2), (12, 6), (14, 7), (70, 1)):
            rows = oracles.set_vertices(n, uniform_sets(n, k))
            cases.append((uniform_matroid(n, k), rows))
            cases.append((feasible_from_json({"type": "uniform_matroid", "n": n, "k": k}), rows))
        for _ in range(100):
            n = int(rng.integers(0, 9))
            draws = rng.random((int(rng.integers(1, 20)), n)) < 0.5
            sets = [tuple(np.flatnonzero(row).tolist()) for row in draws]
            rows = oracles.set_vertices(n, sets)
            cases.append((from_independent_sets(n, sets), rows))
            cases.append((from_vertices(rows[::-1] + rows[:1]), rows))
            cases.append((feasible_from_json(from_independent_sets(n, sets).to_json()), rows))
        for system, rows in cases:
            assert same_matrix(system.vertices, oracles.lexsorted(rows))
            assert system.vertices.flags.f_contiguous and not system.vertices.flags.writeable

    def test_numpy_and_python_bidder_indices_give_the_same_system(self):
        # 1 << np.int64(65) wraps in int64, which once turned {65} into the empty set
        python = from_independent_sets(70, [[65], [3]])
        numpy = from_independent_sets(70, [[np.int64(65)], [np.int64(3)]])
        assert same_matrix(numpy.vertices, python.vertices)
        assert masks(numpy.vertices) == [1 << 3, 1 << 65]

    def test_masks_stay_exact_past_62_bidders(self):
        fs = uniform_matroid(70, 1)
        assert masks(fs.vertices) == [0] + [1 << i for i in range(70)]
        assert masks(fs.vertices) == oracles.row_masks(fs)
        assert is_downward_closed(fs) and _exchange_violation(fs) is None
        obj = json.loads(json.dumps(fs.to_json()))
        assert obj["sets"] == [[]] + [[i] for i in range(70)]
        again = feasible_from_json(obj)
        assert same_matrix(again.vertices, fs.vertices) and again.to_json() == fs.to_json()

    def test_members_match_the_shift_loop(self):
        for mask in range(2**12):
            assert members(mask) == oracles.members(mask)
        for mask in (1 << 61, 1 << 63 | 1, (1 << 64) - 1, 1 << 100 | 1 << 61 | 1 << 3 | 1, 0xF0F << 55):
            assert members(mask) == oracles.members(mask)

    @pytest.mark.parametrize(
        "vertices, match",
        [
            ((), "at least one vertex"),
            (((0.0, 1.0), (1.0,)), "mixed dimension"),
            (((0.0, 1.5),), "outside"),
            (((-0.5, 1.0),), "outside"),
            (((math.nan, 1.0),), "outside"),
        ],
    )
    def test_direct_construction_checks_the_vertices(self, vertices, match):
        with pytest.raises(ValueError, match=match):
            FeasibleSet(vertices, 1.0)


class TestDownwardClosed:
    def test_examples(self):
        assert is_downward_closed(uniform_matroid(3, 2))
        assert is_downward_closed(minimum_non_matroid())
        assert not is_downward_closed(from_independent_sets(2, [(), (0, 1)]))

    def test_fractional_vertex_check(self):
        # the polytope x1 <= 0.6, x1 + x2 <= 1 is downward closed, and still refused
        polytope = from_vertices([[0, 0], [0.6, 0], [0.6, 0.4], [0, 1]])
        for fs in (all_or_nothing(3, 2), polytope):
            with pytest.raises(ValueError, match="binary set system"):
                is_downward_closed(fs)


class TestMatroid:
    """A downward-closed family with the empty set is a matroid when no exchange fails."""

    def test_uniform_is_matroid(self):
        assert _exchange_violation(uniform_matroid(4, 2)) is None

    def test_minimum_non_matroid(self):
        assert _exchange_violation(minimum_non_matroid()) is not None

    def test_exchange_failure(self):
        fs = from_independent_sets(3, [(), (0,), (1,), (0, 1), (2,)])
        assert _exchange_violation(fs) is not None

    def test_fractional_raises(self):
        # downward closure, which the exchange search assumes, is defined for set systems only
        with pytest.raises(ValueError, match="binary"):
            is_downward_closed(all_or_nothing(2, 1))


class TestExchangeViolation:
    def test_minimum_non_matroid_pair(self):
        assert _exchange_violation(minimum_non_matroid()) == ((1, 2), (0,))

    def test_matroid_has_none(self):
        assert _exchange_violation(uniform_matroid(3, 2)) is None

    def test_padded_with_two_dummies_maximizes_intersection(self):
        sets = [
            tuple(sorted(set(s) | set(t)))
            for s in MINNON_SETS
            for t in [(), (3,), (4,), (3, 4)]
        ]
        fs = from_independent_sets(5, sets)
        s_big, s_small = _exchange_violation(fs)
        assert len(set(s_big) & set(s_small)) == 2
        assert set(s_big) - set(s_small) == {1, 2}
        assert set(s_small) - set(s_big) == {0}

    def test_requires_downward_closed(self):
        # embed checks what the search assumes before it searches
        with pytest.raises(PreconditionError, match="downward-closed"):
            embed_counterexample(from_independent_sets(2, [(), (0, 1)]))
        with pytest.raises(PreconditionError, match="binary"):
            embed_counterexample(all_or_nothing(2, 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_violation_iff_non_matroid(self, n):
        for fam in downward_closed_families(n):
            if not fam:
                continue
            fs = from_independent_sets(n, [members(m) for m in fam])
            expected = oracles.is_matroid(fam)
            assert (_exchange_violation(fs) is None) == expected

    def test_exhaustive_witness_matches_member_tuple_search(self):
        for fam in downward_closed_families(4):
            if not fam:
                continue
            fs = from_independent_sets(4, [members(m) for m in fam])
            assert _exchange_violation(fs) == oracles.find_exchange_violation(fs)

    def test_witness_matches_member_tuple_search_at_embed_size(self):
        rng = np.random.default_rng(10)
        found = 0
        for _ in range(50):
            fs = random_downward_closed(rng, 10)
            witness = _exchange_violation(fs)
            assert witness == oracles.find_exchange_violation(fs), fs.to_json()
            found += witness is not None
        assert found == 31  # the draws hold matroids and non-matroids

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
            assert (_exchange_violation(fs) is None) == expected
            assert _exchange_violation(fs) == oracles.find_exchange_violation(fs)


def demand_reduce(fs: FeasibleSet, d: float) -> FeasibleSet:
    """Scale every allocation by 1/d; rank scales exactly by 1/d."""
    top = fs.vertices.max().item()
    if d < top:
        raise ValueError(f"demand {d!r} smaller than coordinate {top!r}")
    if not d > 0.0:  # reached only when every coordinate is 0, or at a NaN
        raise ValueError(f"demand {d!r} must be positive")
    return FeasibleSet(fs.vertices / d, fs.rank / d)


class TestDemandReduce:
    def test_identity(self):
        fs = uniform_matroid(2, 1)
        reduced = demand_reduce(fs, 1.0)
        assert same_matrix(reduced.vertices, fs.vertices) and reduced.rank == fs.rank

    def test_halving(self):
        fs = demand_reduce(all_or_nothing(2, 2), 2.0)
        assert fs.vertices.tolist() == [[0.5, 0.5], [0.0, 0.0]]
        assert fs.rank == 1.0

    def test_uniform_matroid_halved(self):
        fs = demand_reduce(uniform_matroid(2, 1), 2.0)
        assert [0.5, 0.0] in fs.vertices.tolist()
        assert masks(fs.vertices) is None

    def test_halved_vertices_that_turn_binary_get_a_view(self):
        fs = demand_reduce(from_vertices([[0.0, 0.0], [0.5, 0.0]]), 0.5)
        assert masks(fs.vertices) == [0, 1] and _exchange_violation(fs) is None

    def test_rank_scales_exactly(self):
        for d in (2.0, 3.0, 7.0):
            fs = uniform_matroid(3, 3)
            assert demand_reduce(fs, d).rank == fs.rank / d

    def test_demand_too_small(self):
        with pytest.raises(ValueError, match="smaller"):
            demand_reduce(uniform_matroid(2, 1), 0.5)

    @pytest.mark.parametrize("d", [0.0, -0.0, math.nan])
    def test_nonpositive_demand_on_the_empty_system(self, d):
        # every coordinate is 0, so no coordinate exceeds d
        with pytest.raises(ValueError, match=f"demand {d!r} must be positive"):
            demand_reduce(from_independent_sets(2, [()]), d)


class TestDisjointUnion:
    def test_two_single_item_copies(self):
        fs = oracles.disjoint_union([uniform_matroid(1, 1), uniform_matroid(1, 1)])
        assert fs.n == 2
        assert fs.rank == 2
        assert len(masks(fs.vertices)) == 4


class TestJson:
    def test_sets_round_trip(self):
        fs = minimum_non_matroid()
        obj = fs.to_json()
        assert obj["type"] == "sets"
        assert same_matrix(feasible_from_json(obj).vertices, fs.vertices)

    def test_named_families(self):
        fs = feasible_from_json({"type": "uniform_matroid", "n": 3, "k": 2})
        assert fs.rank == 2
        fs = feasible_from_json({"type": "all_or_nothing", "n": 4, "k": 2})
        assert fs.vertices[0].tolist() == [0.5, 0.5, 0.5, 0.5]

    def test_vertices_type(self):
        fs = feasible_from_json({"type": "vertices", "vectors": [[0, 0], [0.5, 0.5]]})
        assert masks(fs.vertices) is None

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
