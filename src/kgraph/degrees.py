"""Degree vectors and their lattice.

A degree is a plain tuple of k nonnegative integers under the
coordinatewise partial order.  Paths in a rank-k graph are graded by
degrees, so all of the bookkeeping about "how far" a path extends in each
color lives here.  Compare degrees with `leq`, never with `<=`: tuple
order is lexicographic, not the lattice order.

`KGraph.require_rank` validates a caller's degree where it enters the
path calculus; the operations below trust their operands apart from a
rank check.  Entries are capped below 2**31 and addition is
overflow-checked; the cap is far beyond anything the decision procedures
produce, it just keeps serialized certificates inside plain 32-bit range.
"""

from .errors import ContractViolationError

MAX_ENTRY = 2**31 - 1


def ones(k):
    return (1,) * k


def _paired(m, n):
    if len(m) != len(n):
        raise ContractViolationError(f"rank {len(m)} vs {len(n)}")
    return zip(m, n)


def leq(m, n):
    """Coordinatewise order; incomparable pairs are simply not leq either way."""
    return all(a <= b for a, b in _paired(m, n))


def join(m, n):
    return tuple(max(a, b) for a, b in _paired(m, n))


def add(m, n):
    out = tuple(a + b for a, b in _paired(m, n))
    if any(c > MAX_ENTRY for c in out):
        raise ContractViolationError(f"degree addition overflow: {out}")
    return out


def subtract(m, n):
    """m - n, defined only when n <= m."""
    out = tuple(a - b for b, a in _paired(n, m))
    for c in out:
        if c < 0:
            raise ContractViolationError(f"cannot subtract {n!r} from {m!r}: not below it")
    return out


def positive_part(p):
    """Split a signed integer vector p into (minus, plus) with plus - minus = p.

    The two parts have disjoint support (no coordinate is nonzero in
    both), so they form the canonical minimal pair for the difference
    vector p.  The zero vector has no such pair and is rejected.
    """
    try:
        p = tuple(p)
    except TypeError:
        raise ContractViolationError(f"signed vector {p!r} is not a sequence of ints") from None
    if any(type(c) is not int for c in p):
        raise ContractViolationError(f"signed entries {p!r} are not all ints")
    if not p:
        raise ContractViolationError("empty vector")
    if all(c == 0 for c in p):
        raise ContractViolationError("positive_part of the zero vector is undefined")
    if any(abs(c) > MAX_ENTRY for c in p):
        raise ContractViolationError("signed entry out of range")
    minus = tuple(-c if c < 0 else 0 for c in p)
    plus = tuple(c if c > 0 else 0 for c in p)
    return minus, plus
