"""Robinson-Schensted correspondence by row insertion, the shapes of
all of S_n at once, and the Knuth class of a window: the windows that
share its insertion tableau."""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .permutations import Permutation


# The rows of the insertion tableau P and of the recording tableau Q,
# and their common shape: row lengths, weakly decreasing.
TableauPair = namedtuple('TableauPair', 'insertion recording shape')


def rsk(w: Permutation) -> TableauPair:
    """Insert the window word w(1), ..., w(n).

    >>> rsk(Permutation('312')).shape
    (2, 1)
    >>> rsk(Permutation('312')).insertion
    ((1, 2), (3,))
    """
    p_rows: list = []
    q_rows: list = []
    for step, value in enumerate(w.window, start=1):
        for row, q_row in zip(p_rows, q_rows):
            spot = bisect_right(row, value)
            if spot == len(row):
                row.append(value)
                q_row.append(step)
                break
            row[spot], value = value, row[spot]
        else:
            p_rows.append([value])
            q_rows.append([step])
    return TableauPair(
        insertion=tuple(tuple(r) for r in p_rows),
        recording=tuple(tuple(r) for r in q_rows),
        shape=tuple(len(r) for r in p_rows),
    )


def window_shapes(n: int) -> tuple:
    """(shapes, ids): the shapes of rsk(w) over S_n, and for each w in
    window order the index of its shape in shapes, one byte each.

    The prefix tree of S_n is walked in window order.  Row insertion of
    a value depends only on the insertion tableau of the prefix, and
    that tableau holds exactly the values used, so the shape ids of all
    completions of a prefix are a function of its tableau: each one is
    worked out once (7,193 tableaux at n = 8, against 8! leaves).

    >>> shapes, ids = window_shapes(3)
    >>> [shapes[i] for i in ids]
    [(3,), (2, 1), (2, 1), (2, 1), (2, 1), (1, 1, 1)]
    """
    shapes: dict = {}
    memo: dict = {}

    def completions(rows: tuple, rest: tuple) -> bytes:
        got = memo.get(rows)
        if got is None:
            if rest:
                got = b''.join([
                    completions(_insert(rows, v), rest[:i] + rest[i + 1:])
                    for i, v in enumerate(rest)])
            else:
                shape = tuple(map(len, rows))
                got = bytes((shapes.setdefault(shape, len(shapes)),))
            memo[rows] = got
        return got

    ids = completions((), tuple(range(1, n + 1)))
    return tuple(shapes), ids


def _insert(rows: tuple, value: int) -> tuple:
    """The insertion tableau rows (a tuple of tuples) after row
    inserting value, which it does not hold."""
    for r, row in enumerate(rows):
        spot = bisect_right(row, value)
        if spot == len(row):
            return rows[:r] + (row + (value,),) + rows[r + 1:]
        rows = rows[:r] + (row[:spot] + (value,) + row[spot + 1:],) \
            + rows[r + 1:]
        value = row[spot]
    return rows + ((value,),)


def knuth_class(window: tuple) -> tuple:
    """The windows that share the insertion tableau of window, in window
    order.  By Knuth's theorem (Pacific J. Math. 34 (1970)) they are the
    windows that elementary Knuth moves connect to it, found here by a
    breadth-first walk.  In three adjacent letters a, b, c, a move swaps
    b and c when a lies between them (y x z <-> y z x), and otherwise
    swaps a and b when c lies between them (x z y <-> z x y).

    >>> knuth_class((2, 1, 3))
    ((2, 1, 3), (2, 3, 1))
    """
    queue = [tuple(window)]
    seen = set(queue)
    for w in queue:
        for i in range(len(w) - 2):
            a, b, c = w[i:i + 3]
            if b < a < c or c < a < b:
                u = w[:i] + (a, c, b) + w[i + 3:]
            elif a < c < b or b < c < a:
                u = w[:i] + (b, a, c) + w[i + 3:]
            else:
                continue
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return tuple(sorted(seen))
