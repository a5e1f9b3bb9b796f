"""Built-in example graphs used by tests, docs, and the CLI.

All four are rank 2 with color 1 drawn as blue and color 2 as red.

T2  one vertex, one loop of each color.  A single infinite path, so every
    shift pair is locally periodic; cofinal; not simple.
F   one vertex, blue loops b0/b1 and red loops r0/r1, with squares
    flipping the blue index when any red edge moves past: r_y.b_x =
    b_{1-x}.r_y.  Blue branching kills blue shift collapses and red
    branching kills red ones, so no shift pair is periodic; aperiodic,
    cofinal, simple.  (A single red loop would not do: crossing two reds
    restores every blue letter and sigma^(0,2) fixes all paths.)
D   two vertices u and w, each carrying its own T2 loops and nothing
    between them.  {u} and {w} are saturated hereditary, so not cofinal.
D2  a copy of F at u (loops bu*/ru*), a copy of T2 at w (bw/rw), and one
    connecting edge of each color with range w and source u (cb, cr;
    matrix commutation forces the counts to match).  {u} is saturated
    hereditary and the quotient by it is the T2 copy at w; {w} is not
    hereditary (cb enters it from outside); D2 itself is aperiodic.
"""

from .errors import ContractViolationError
from .factorization import SquareTable
from .skeleton import Edge, Skeleton

# name -> (vertices, edge rows (id, color, range, source), square rows (pair, image))
_FIXTURES = {
    "T2": (["v"], [
        ("b", 1, "v", "v"),
        ("r", 2, "v", "v"),
    ], [
        (("b", "r"), ("r", "b")),
    ]),
    "F": (["v"], [
        ("b0", 1, "v", "v"),
        ("b1", 1, "v", "v"),
        ("r0", 2, "v", "v"),
        ("r1", 2, "v", "v"),
    ], [
        (("b0", "r0"), ("r0", "b1")),
        (("b0", "r1"), ("r1", "b1")),
        (("b1", "r0"), ("r0", "b0")),
        (("b1", "r1"), ("r1", "b0")),
    ]),
    "D": (["u", "w"], [
        ("bu", 1, "u", "u"),
        ("ru", 2, "u", "u"),
        ("bw", 1, "w", "w"),
        ("rw", 2, "w", "w"),
    ], [
        (("bu", "ru"), ("ru", "bu")),
        (("bw", "rw"), ("rw", "bw")),
    ]),
    "D2": (["u", "w"], [
        ("bu0", 1, "u", "u"),
        ("bu1", 1, "u", "u"),
        ("ru0", 2, "u", "u"),
        ("ru1", 2, "u", "u"),
        ("bw", 1, "w", "w"),
        ("rw", 2, "w", "w"),
        ("cb", 1, "w", "u"),
        ("cr", 2, "w", "u"),
    ], [
        (("bu0", "ru0"), ("ru0", "bu1")),
        (("bu0", "ru1"), ("ru1", "bu1")),
        (("bu1", "ru0"), ("ru0", "bu0")),
        (("bu1", "ru1"), ("ru1", "bu0")),
        (("bw", "rw"), ("rw", "bw")),
        (("cb", "ru0"), ("cr", "bu0")),
        (("cb", "ru1"), ("cr", "bu1")),
        (("bw", "cr"), ("rw", "cb")),
    ]),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture_parts(name):
    """(Skeleton, SquareTable) for a fixture name, built afresh on each call."""
    try:
        vertices, edges, squares = _FIXTURES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ContractViolationError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}") from None
    return Skeleton(2, vertices, [Edge(*row) for row in edges]), SquareTable(squares)
