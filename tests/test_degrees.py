from itertools import product

import pytest

from kgraph import Degree, add, join, leq, meet, ones, positive_part, subtract, unit, zero
from kgraph.degrees import MAX_ENTRY
from kgraph.errors import DegreeError, RankMismatchError


def all_degrees(k, top):
    return [Degree(t) for t in product(range(top + 1), repeat=k)]


def test_construction_and_accessors():
    d = Degree([10, 2])
    assert type(d) is tuple
    assert len(d) == 2
    assert sum(d) == 12
    assert d == (10, 2)
    assert d[0] == 10
    assert any(d)
    assert not any(zero(3))
    assert ones(3) == (1, 1, 1)
    assert unit(3, 2) == (0, 1, 0)
    results = [zero(2), ones(2), unit(2, 1), join(d, (0, 5)), meet(d, (0, 5))]
    results += [add(d, (1, 1)), subtract(d, (1, 1)), *positive_part((-1, 2))]
    assert all(type(r) is tuple for r in results)


def test_negative_entries_rejected():
    with pytest.raises(DegreeError):
        Degree((1, -1))
    with pytest.raises(DegreeError):
        Degree(())
    with pytest.raises(DegreeError):
        Degree((2**31, 0))


@pytest.mark.parametrize(
    "make, coords",
    [
        (Degree, (1.7, True)),
        (Degree, (1, True)),
        (Degree, (1.0, 0)),
        (Degree, ("1", 0)),
        (positive_part, (1.7, -1)),
        (positive_part, (True, 0)),
        (positive_part, (-1.0, 2)),
    ],
    ids=["float-bool", "bool", "float", "str", "signed-float", "signed-bool", "signed-float-negative"],
)
def test_non_int_entries_rejected(make, coords):
    # bool is an int subclass and float truncates; neither is a degree entry
    with pytest.raises(DegreeError):
        make(coords)


@pytest.mark.parametrize(
    "call",
    [
        lambda: unit(2, 0),
        lambda: unit(2, 3),
        lambda: add((MAX_ENTRY, 0), (1, 0)),
        lambda: positive_part(()),
        lambda: positive_part((-MAX_ENTRY - 1, 0)),
    ],
    ids=["color-0", "color-past-k", "add-overflow", "signed-empty", "signed-past-cap"],
)
def test_out_of_range_rejected(call):
    with pytest.raises(DegreeError):
        call()


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        join(Degree((1, 0)), Degree((1, 0, 0)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lattice_laws_exhaustive(k):
    top = 4 if k == 1 else 2
    degrees = all_degrees(k, top)
    for m in degrees:
        for n in degrees:
            j = join(m, n)
            mt = meet(m, n)
            assert leq(m, j) and leq(n, j)
            assert leq(mt, m) and leq(mt, n)
            assert j == join(n, m)
            assert mt == meet(n, m)
            # join is least, meet greatest among the candidates
            for c in degrees:
                if leq(m, c) and leq(n, c):
                    assert leq(j, c)
                if leq(c, m) and leq(c, n):
                    assert leq(c, mt)
            assert add(subtract(j, m), m) == j


def test_subtract_requires_domination():
    with pytest.raises(DegreeError):
        subtract(Degree((1, 0)), Degree((0, 1)))


def test_positive_part_splits_signed_vectors():
    for p in product(range(-2, 3), repeat=2):
        if all(c == 0 for c in p):
            with pytest.raises(DegreeError):
                positive_part(p)
            continue
        m, n = positive_part(p)
        assert tuple(n[i] - m[i] for i in range(2)) == p
        assert not any(meet(m, n))
        assert m != n


def test_degree_is_hashable_and_ordered_partially():
    a, b = Degree((1, 2)), Degree((2, 1))
    assert len({a, b, Degree((1, 2))}) == 2
    assert not leq(a, b) and not leq(b, a)
    # Tuple order is lexicographic, which is why comparisons go through leq.
    assert a < b


def test_json_round_trip():
    d = Degree((3, 0, 7))
    assert list(d) == [3, 0, 7]
    assert Degree(list(d)) == d
