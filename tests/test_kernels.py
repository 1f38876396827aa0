"""The kernels against independent oracles.

Each kernel is one path of two that must agree: the Bruhat matrix with
the pairwise bruhat_leq (itself checked against reduced subwords in
test_permutations), and the sparse KL fill, laid out densely, with the
R-polynomial inversion and with the earlier per-column fill kept in
tests/oracles.py, which reads the Bruhat matrix and recurses on left
descents, where the fill, run with no parabolic subgroup, recurses on
right ones.  Past n = 6, where no whole-group table is filled, the fill
is held to digests of the tables the dense int8 fill it replaced gave.
The coset index the fill runs over, built from the windows of the
shortest reps, is held to the gather from the GroupIndex tables on
every composition with n <= 7.  The oracles of the kl-properties check
(the table identities and the mu-graph cells) also run here at n = 6,
one size past selftest.
"""

import hashlib
import itertools

import numpy as np
import pytest

from kostantpv import _kernels
from kostantpv.checks import (
    _cells_against_mu_graph,
    _kl_against_r_oracle,
    _kl_table_problems,
)
from kostantpv.compositions import Composition
from kostantpv.groupindex import GroupIndex, group_index
from kostantpv.klcells import coset_index, kl_table, parabolic_table
from kostantpv.permutations import bruhat_leq, coset_windows
from oracles import (
    coset_reps,
    dense_table,
    enumerate_shortest_reps,
    kl_fill_by_column,
)

# sha256 of dense_table(kl_table(n)).tobytes(), as the int32 per-column
# fill produced it
KL_TABLE_SHA256 = {
    1: '67abdd721024f0ff4e0b3f4c2fc13bc5bad42d0b7851d456d88d203d15aaa450',
    2: '69ca48872b2a26917a764222a6a41b2371ebf9eaad4e239cd7984d46635bfe7b',
    3: '87747396dc9cbd00578a8014c997ce618eac6d6448fd5ad815ae46d0260a56c7',
    4: '0074a38781d0902ffbc1d1a2ea9289d4e18d3bac3d228dc9811f378e1325c357',
    5: '765eee00eefea19829fdf7b6a460b859b78043dc514119653c76843a3773ce47',
    6: '3101a60652b7c646ff4fefd7f52321be3457d933437dc84835ff2729782ebef1',
}


@pytest.mark.parametrize('n', [1, 2, 3, 4, 5])
def test_leq_matrix_paths_agree(n):
    g = group_index(n)
    assert g.leq.shape == (g.N, g.N)
    perms = [g.perm(i) for i in range(g.N)]
    for x in range(g.N):
        for y in range(g.N):
            assert g.leq[x, y] == bruhat_leq(perms[x], perms[y]), (x, y)


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_kl_fill_paths_agree(n):
    assert _kl_against_r_oracle(n) == []


def test_kl_table_identities_n6():
    assert _kl_table_problems(6, kl_table(6)) == []


def test_cells_against_mu_graph_n6():
    assert _cells_against_mu_graph(6, kl_table(6)) == []


@pytest.mark.parametrize('n', [1, 2, 3, 4, 5, 6])
def test_kl_fill_matches_per_column_fill(n):
    g = group_index(n)
    windows, _, lengths, mul = coset_index((1,) * n)
    assert windows == tuple(map(tuple, g.windows.tolist()))
    ncoef = n * (n - 1) // 4 + 1
    S = _kernels.kl_fill(lengths, mul, ncoef)
    P = kl_fill_by_column(g, ncoef)
    assert dense_table(S).tobytes() == P.tobytes()
    assert S.size == np.count_nonzero(P.any(axis=2))


def _digest(S):
    return hashlib.sha256(dense_table(S).tobytes()).hexdigest()


@pytest.mark.parametrize('n', [1, 2, 3, 4, 5, 6])
def test_kl_table_digest(n):
    assert _digest(kl_table(n)) == KL_TABLE_SHA256[n]


# sha256 of the repr of each column's sorted (x, coefficients) list, in
# turn, as the dense int8 fill gave them
ENTRIES_SHA256 = {
    (2, 2, 3):
        'a83d756f2257464b6553d11654655ca6c41815bd3ca890c73813cb216d28871a',
    (3, 4):
        '2cb8eb254623fd9b298d52c27d5be5c33a2fdbde3a2b6a9446e2e775674e6375',
    (3, 3, 2):
        '72310516dbd6676fe26ef3d9935afeec97b7f6bda7f943f3c6b13b8430283564',
    (2, 2, 2, 2):
        '929ae0d64a43cb4bae38aab35c551d7e68ca92ef63101e89019861fa9e966a8c',
}


@pytest.mark.parametrize('parts', list(ENTRIES_SHA256))
def test_kl_fill_matches_the_dense_fill_past_n6(parts):
    S = parabolic_table(parts)[2]
    h = hashlib.sha256()
    for col in S:
        h.update(repr(sorted(
            (x, S.coefficients(P)) for x, P in col.items())).encode())
    assert h.hexdigest() == ENTRIES_SHA256[parts]


def test_packing_refuses_out_of_range_coefficients(monkeypatch):
    # with 3 bits a digit holds 0..3, its top bit kept clear: S_5, whose
    # coefficients stay within 0..2, fills as with 8, and S_6, which has
    # a 4, refuses; so does S_4 with its 1 + q cut to degree 0
    monkeypatch.setattr(_kernels, 'BITS', 3)
    _, _, lengths, mul = coset_index((1,) * 5)
    assert _digest(_kernels.kl_fill(lengths, mul, 6)) == KL_TABLE_SHA256[5]
    _, _, lengths, mul = coset_index((1,) * 6)
    with pytest.raises(OverflowError, match='outside 0..3'):
        _kernels.kl_fill(lengths, mul, 8)
    monkeypatch.undo()
    _, _, lengths, mul = coset_index((1,) * 4)
    with pytest.raises(OverflowError, match='past degree 0'):
        _kernels.kl_fill(lengths, mul, 1)


def test_a_demanded_column_keeps_the_overflow_checks(monkeypatch):
    # the top column alone reads a 1 + q at (2, 2), and a 2 at (2, 2, 2, 2)
    # that 2 bits, holding 0..1, refuse
    for parts, ncoef, bits, match in (((2, 2), 1, 8, 'past degree 0'),
                                      ((2, 2, 2, 2), 13, 2, 'outside 0..1')):
        _, _, lengths, mul = coset_index(parts)
        top = max(range(len(lengths)), key=lengths.__getitem__)
        monkeypatch.setattr(_kernels, 'BITS', bits)
        with pytest.raises(OverflowError, match=match):
            _kernels.kl_fill(lengths, mul, ncoef, [top])


def test_kl_table_never_builds_the_bruhat_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError('kl_table read GroupIndex.leq')

    kl_table.cache_clear()
    group_index.cache_clear()
    monkeypatch.setattr(GroupIndex, 'leq', property(refuse))
    for n in range(1, 7):
        assert _digest(kl_table(n)) == KL_TABLE_SHA256[n]


def _gather_index(n, J):
    """The coset index of the shortest reps of W_J, gathered from the
    tables of GroupIndex(n): (reps as group indices, lengths, mul)."""
    g = group_index(n)
    reps = coset_reps(g, J)
    pos = np.full(g.N, -1, dtype=np.int64)
    pos[reps] = np.arange(len(reps))
    return reps, g.lengths[reps], pos[g.rmul[:, reps]]


def _compositions(n):
    """Every composition of n, as parts."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        yield tuple(parts)


def test_coset_index_matches_the_group_index():
    # every composition with n <= 7: the windows are the S_n filter's
    # reps and the GroupIndex coset reps, their positions are their
    # places in the list, and the lengths and right action the fill
    # reads are the GroupIndex gather
    count = 0
    for n in range(1, 8):
        g = group_index(n)
        for parts in _compositions(n):
            J = Composition(parts).simple_reflections()
            windows, at, *got = coset_index(parts)
            assert windows == coset_windows(parts) == tuple(
                w.window for w in enumerate_shortest_reps(n, J))
            assert at == {w: i for i, w in enumerate(windows)}
            reps, *want = _gather_index(n, J)
            assert [g.index[w] for w in windows] == reps.tolist()
            for a, b in zip(got, want):
                assert a == b.tolist(), parts
            count += 1
    assert count == 127


def test_coset_index_lengths_are_inversion_counts():
    # the lengths are read off the right action, not counted per window
    count = 0
    for n in range(1, 8):
        for parts in _compositions(n):
            windows, _, lengths, mul = coset_index(parts)
            assert lengths == [
                sum(a > b for a, b in itertools.combinations(w, 2))
                for w in windows], parts
            # kl_fill reads x s > x as the larger index: window order
            assert list(windows) == sorted(windows), parts
            assert all(lengths[y] == lengths[x] + (1 if y > x else -1)
                       for row in mul for x, y in enumerate(row)
                       if y >= 0), parts
            count += 1
    assert count == 127
