"""Row insertion and the cell invariants it carries."""

import itertools
import math

from kostantpv.permutations import enumerate_group, longest_element, identity
from kostantpv.tableaux import inverse_rsk, rsk, standard_tableaux


def _is_partition(shape, n):
    return (
        sum(shape) == n
        and all(a >= b for a, b in zip(shape, shape[1:]))
        and all(p > 0 for p in shape)
    )


def test_shapes_are_partitions():
    for n in range(1, 6):
        for w in enumerate_group(n):
            pair = rsk(w)
            assert _is_partition(pair.shape, n)
            assert tuple(len(r) for r in pair.insertion) == pair.shape
            assert tuple(len(r) for r in pair.recording) == pair.shape


def test_rows_and_columns_increase():
    for w in enumerate_group(4):
        for tab in (rsk(w).insertion, rsk(w).recording):
            for row in tab:
                assert list(row) == sorted(row)
            for upper, lower in zip(tab, tab[1:]):
                for a, b in zip(upper, lower):
                    assert a < b


def test_extremes():
    for n in range(1, 6):
        assert rsk(identity(n)).shape == (n,)
        assert rsk(longest_element(n)).shape == (1,) * n


def test_injective():
    for n in range(1, 6):
        seen = {rsk(w) for w in enumerate_group(n)}
        assert len(seen) == len(list(enumerate_group(n)))


def test_involutions_have_equal_tableaux():
    for w in enumerate_group(5):
        pair = rsk(w)
        assert ((w * w).is_identity) == (pair.insertion == pair.recording)


def test_inverse_swaps_tableaux():
    for w in enumerate_group(5):
        pair, pair_inv = rsk(w), rsk(w.inverse)
        assert pair.insertion == pair_inv.recording
        assert pair.recording == pair_inv.insertion


def test_worked_example():
    pair = rsk(next(w for w in enumerate_group(3) if w.window == (3, 1, 2)))
    assert pair.shape == (2, 1)
    assert pair.insertion == ((1, 2), (3,))
    assert pair.recording == ((1, 3), (2,))


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_length_count(shape):
    """f^shape = n! / (product of the hook lengths)."""
    columns = [sum(1 for row in shape if row > c) for c in range(shape[0])]
    hooks = math.prod(
        (row - c) + (columns[c] - r) - 1
        for r, row in enumerate(shape) for c in range(row))
    return math.factorial(sum(shape)) // hooks


def test_standard_tableaux_count_is_the_hook_length_formula():
    shapes = 0
    for n in range(1, 9):
        for shape in _partitions(n):
            tableaux = standard_tableaux(shape)
            assert len(tableaux) == _hook_length_count(shape), shape
            assert len(set(tableaux)) == len(tableaux)
            for tab in tableaux:
                assert tuple(len(row) for row in tab) == shape
                assert sorted(itertools.chain(*tab)) == list(range(1, n + 1))
                assert all(list(row) == sorted(row) for row in tab)
                assert all(a < b for upper, lower in zip(tab, tab[1:])
                           for a, b in zip(upper, lower))
            shapes += 1
    assert shapes == 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22


def test_inverse_rsk_inverts_rsk():
    for n in range(1, 7):
        for w in enumerate_group(n):
            pair = rsk(w)
            assert inverse_rsk(pair.insertion, pair.recording) == w.window
