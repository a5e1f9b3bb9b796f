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

from .factorization import SquareTable
from .skeleton import Edge, Skeleton

FIXTURE_NAMES = ("T2", "F", "D", "D2")


def _edges(rows):
    return [Edge(id=i, color=c, range=r, source=s) for i, c, r, s in rows]


def _t2():
    skel = Skeleton(2, ["v"], _edges([("b", 1, "v", "v"), ("r", 2, "v", "v")]))
    squares = SquareTable([(("b", "r"), ("r", "b"))])
    return skel, squares


def _f():
    skel = Skeleton(
        2,
        ["v"],
        _edges(
            [
                ("b0", 1, "v", "v"),
                ("b1", 1, "v", "v"),
                ("r0", 2, "v", "v"),
                ("r1", 2, "v", "v"),
            ]
        ),
    )
    squares = SquareTable(
        [
            (("b0", "r0"), ("r0", "b1")),
            (("b0", "r1"), ("r1", "b1")),
            (("b1", "r0"), ("r0", "b0")),
            (("b1", "r1"), ("r1", "b0")),
        ]
    )
    return skel, squares


def _d():
    skel = Skeleton(
        2,
        ["u", "w"],
        _edges(
            [
                ("bu", 1, "u", "u"),
                ("ru", 2, "u", "u"),
                ("bw", 1, "w", "w"),
                ("rw", 2, "w", "w"),
            ]
        ),
    )
    squares = SquareTable(
        [
            (("bu", "ru"), ("ru", "bu")),
            (("bw", "rw"), ("rw", "bw")),
        ]
    )
    return skel, squares


def _d2():
    skel = Skeleton(
        2,
        ["u", "w"],
        _edges(
            [
                ("bu0", 1, "u", "u"),
                ("bu1", 1, "u", "u"),
                ("ru0", 2, "u", "u"),
                ("ru1", 2, "u", "u"),
                ("bw", 1, "w", "w"),
                ("rw", 2, "w", "w"),
                ("cb", 1, "w", "u"),
                ("cr", 2, "w", "u"),
            ]
        ),
    )
    squares = SquareTable(
        [
            (("bu0", "ru0"), ("ru0", "bu1")),
            (("bu0", "ru1"), ("ru1", "bu1")),
            (("bu1", "ru0"), ("ru0", "bu0")),
            (("bu1", "ru1"), ("ru1", "bu0")),
            (("bw", "rw"), ("rw", "bw")),
            (("cb", "ru0"), ("cr", "bu0")),
            (("cb", "ru1"), ("cr", "bu1")),
            (("bw", "cr"), ("rw", "cb")),
        ]
    )
    return skel, squares


_BUILDERS = {"T2": _t2, "F": _f, "D": _d, "D2": _d2}


def fixture_parts(name):
    """(Skeleton, SquareTable) for a fixture name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}") from None
    return builder()
