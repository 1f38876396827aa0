"""Robinson-Schensted correspondence by row insertion, its inverse, the
standard tableaux of a shape, and the shapes of all of S_n at once."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .permutations import Permutation


@dataclass(frozen=True)
class TableauPair:
    """Insertion tableau, recording tableau, and their common shape."""

    insertion: tuple  # rows of the P tableau
    recording: tuple  # rows of the Q tableau
    shape: tuple      # row lengths, weakly decreasing


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


def inverse_rsk(insertion: tuple, recording: tuple) -> tuple:
    """The window whose rsk is (insertion, recording): for step = n down
    to 1, take the entry of the insertion tableau where the recording
    tableau holds step, and bump it back up through the rows above.

    >>> inverse_rsk(((1, 2), (3,)), ((1, 3), (2,)))
    (3, 1, 2)
    """
    rows = [list(r) for r in insertion]
    row_of = {step: r for r, q_row in enumerate(recording) for step in q_row}
    window = []
    for step in range(len(row_of), 0, -1):
        r = row_of[step]
        value = rows[r].pop()
        for row in reversed(rows[:r]):
            spot = bisect_left(row, value) - 1
            row[spot], value = value, row[spot]
        window.append(value)
    return tuple(reversed(window))


def standard_tableaux(shape: tuple) -> list:
    """Every standard tableau of the given shape, as rows: the largest
    entry goes into each outer corner in turn.

    >>> standard_tableaux((2, 1))
    [((1, 3), (2,)), ((1, 2), (3,))]
    """
    n = sum(shape)
    if n == 0:
        return [tuple(() for _ in shape)]
    out = []
    for r, length in enumerate(shape):
        if length and (r + 1 == len(shape) or shape[r + 1] < length):
            smaller = shape[:r] + (length - 1,) + shape[r + 1:]
            out.extend(t[:r] + (t[r] + (n,),) + t[r + 1:]
                       for t in standard_tableaux(smaller))
    return out
