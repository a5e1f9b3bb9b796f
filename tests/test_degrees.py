from itertools import product

import pytest

from kgraph import add, factor, join, leq, ones, positive_part, subtract
from kgraph.degrees import MAX_ENTRY
from kgraph.errors import ContractViolationError


def all_degrees(k, top):
    return list(product(range(top + 1), repeat=k))


def test_construction_and_accessors():
    d = (10, 2)
    assert not any((0,) * 3)
    assert ones(3) == (1, 1, 1)
    results = [(0,) * 2, ones(2), join(d, (0, 5))]
    results += [add(d, (1, 1)), subtract(d, (1, 1)), *positive_part((-1, 2))]
    assert all(type(r) is tuple for r in results)


def _rejected_at_entry(g, coords, message="needs int entries"):
    """A caller's degree is checked where it enters: paths_from and factor."""
    with pytest.raises(ContractViolationError, match=message):
        g.paths_from("v", coords)
    with pytest.raises(ContractViolationError, match=message):
        factor(g.path("v", ["b0", "r0"]), coords)


def test_negative_entries_rejected(f):
    _rejected_at_entry(f, (1, -1))
    _rejected_at_entry(f, (), "degree rank 0 does not match graph rank 2")
    _rejected_at_entry(f, (2**31, 0))


@pytest.mark.parametrize(
    "make, coords",
    [
        (None, (1.7, True)),
        (None, (1, True)),
        (None, (1.0, 0)),
        (None, ("1", 0)),
        (positive_part, (1.7, -1)),
        (positive_part, (True, 0)),
        (positive_part, (-1.0, 2)),
    ],
    ids=["float-bool", "bool", "float", "str", "signed-float", "signed-bool", "signed-float-negative"],
)
def test_non_int_entries_rejected(f, make, coords):
    # bool is an int subclass and float truncates; neither is a degree entry
    if make is None:
        _rejected_at_entry(f, coords)
        return
    with pytest.raises(ContractViolationError, match="are not all ints"):
        make(coords)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: add((MAX_ENTRY, 0), (1, 0)), "degree addition overflow"),
        (lambda: positive_part(()), "empty vector"),
        (lambda: positive_part((-MAX_ENTRY - 1, 0)), "signed entry out of range"),
    ],
    ids=["add-overflow", "signed-empty", "signed-past-cap"],
)
def test_out_of_range_rejected(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()


def test_rank_mismatch():
    with pytest.raises(ContractViolationError, match="rank 2 vs 3"):
        join((1, 0), (1, 0, 0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lattice_laws_exhaustive(k):
    top = 4 if k == 1 else 2
    degrees = all_degrees(k, top)
    for m in degrees:
        for n in degrees:
            j = join(m, n)
            assert leq(m, j) and leq(n, j)
            assert j == join(n, m)
            # join is least among the upper bounds
            for c in degrees:
                if leq(m, c) and leq(n, c):
                    assert leq(j, c)
            assert add(subtract(j, m), m) == j


def test_subtract_requires_domination():
    with pytest.raises(ContractViolationError, match="not below it"):
        subtract((1, 0), (0, 1))


def test_positive_part_splits_signed_vectors():
    for p in product(range(-2, 3), repeat=2):
        if all(c == 0 for c in p):
            with pytest.raises(ContractViolationError, match="zero vector is undefined"):
                positive_part(p)
            continue
        m, n = positive_part(p)
        assert tuple(n[i] - m[i] for i in range(2)) == p
        assert not any(a and b for a, b in zip(m, n))  # disjoint support
        assert m != n


def test_positive_part_refuses_what_is_not_a_sequence():
    for p in (None, 5):
        with pytest.raises(ContractViolationError, match="is not a sequence of ints"):
            positive_part(p)


def test_degree_is_hashable_and_ordered_partially():
    a, b = (1, 2), (2, 1)
    assert len({a, b, (1, 2)}) == 2
    assert not leq(a, b) and not leq(b, a)
    # Tuple order is lexicographic, which is why comparisons go through leq.
    assert a < b
