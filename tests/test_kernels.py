"""The numpy kernels against independent oracles.

Each kernel is one path of two that must agree: the Bruhat matrix with
the pairwise bruhat_leq (itself checked against reduced subwords in
test_permutations), and the dense KL fill with the R-polynomial
inversion and with the earlier per-column fill kept below, which reads
the Bruhat matrix and recurses on left descents, where the fill, run
with no parabolic subgroup, recurses on right ones.  The coset index
the fill runs over, built from the windows of the shortest reps, is
held to the gather from the GroupIndex tables on every composition with
n <= 7.
The array oracles of the kl-properties check (the
table identities and the mu-graph cells) also run here at n = 6, one
size past selftest.
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
from kostantpv.groupindex import GroupIndex, coset_index, group_index
from kostantpv.klcells import kl_table
from kostantpv.permutations import bruhat_leq, coset_windows
from oracles import coset_reps, enumerate_shortest_reps

# sha256 of kl_table(n).astype(np.int32).tobytes(), as the int32
# per-column fill produced it
KL_TABLE_SHA256 = {
    1: '67abdd721024f0ff4e0b3f4c2fc13bc5bad42d0b7851d456d88d203d15aaa450',
    2: '69ca48872b2a26917a764222a6a41b2371ebf9eaad4e239cd7984d46635bfe7b',
    3: '87747396dc9cbd00578a8014c997ce618eac6d6448fd5ad815ae46d0260a56c7',
    4: '0074a38781d0902ffbc1d1a2ea9289d4e18d3bac3d228dc9811f378e1325c357',
    5: '765eee00eefea19829fdf7b6a460b859b78043dc514119653c76843a3773ce47',
    6: '3101a60652b7c646ff4fefd7f52321be3457d933437dc84835ff2729782ebef1',
}


def _kl_fill_by_column(order, lengths, ldesc, lmul, leq, ncoef):
    """The per-column fill: P[x, w, d] over x <= w read off the Bruhat
    matrix leq, with the uniform recursion on c = [s x < x]

        P_{x,w} = q^{1-c} P_{sx,v} + q^c P_{x,v}
                  - sum over z < v with sz < z of
                      mu(z, v) q^{(l(w)-l(z))/2} P_{x,z}   (x <= z).
    """
    N = len(lengths)
    P = np.zeros((N, N, ncoef), dtype=np.int32)
    for w in order:
        s = ldesc[w]
        if s < 0:
            P[w, w, 0] = 1
            continue
        v = lmul[s, w]
        xs = np.nonzero(leq[:, w])[0]
        sx = lmul[s, xs]
        col = np.zeros((len(xs), ncoef), dtype=np.int32)
        up = lengths[sx] > lengths[xs]
        col[up, 1:] += P[sx[up], v, :-1]
        col[~up, :] += P[sx[~up], v, :]
        col[up, :] += P[xs[up], v, :]
        col[~up, 1:] += P[xs[~up], v, :-1]
        lw = lengths[w]
        diff = lw - 1 - lengths
        cand = np.nonzero(
            leq[:, v]
            & (diff % 2 == 1)
            & (diff > 0)
            & (lengths[lmul[s]] < lengths)
        )[0]
        for z in cand:
            mu = int(P[z, v, (lw - 2 - lengths[z]) // 2])
            if mu == 0:
                continue
            shift = (lw - lengths[z]) // 2
            rows = leq[xs, z]
            col[rows, shift:] -= mu * P[xs[rows], z, :ncoef - shift]
        P[xs, w, :] = col
    return P


def _left_args(g):
    """(order, lengths, first left descent, lmul) of the left recursion
    the per-column fill runs; the identity has descent -1."""
    ldesc = np.full(g.N, -1, dtype=np.int64)
    for s in range(len(g.lmul) - 1, -1, -1):
        ldesc[g.lengths[g.lmul[s]] < g.lengths] = s
    return np.argsort(g.lengths, kind='stable'), g.lengths, ldesc, g.lmul


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
    assert _kl_table_problems(group_index(6), kl_table(6)) == []


def test_cells_against_mu_graph_n6():
    assert _cells_against_mu_graph(6) == []


@pytest.mark.parametrize('n', [1, 2, 3, 4, 5, 6])
def test_kl_fill_matches_per_column_fill(n):
    g = group_index(n)
    windows, _, lengths, mul = coset_index((1,) * n)
    assert windows == tuple(map(tuple, g.windows.tolist()))
    ncoef = n * (n - 1) // 4 + 1
    Pt = _kernels.kl_fill(lengths, mul, ncoef)
    P = _kl_fill_by_column(*_left_args(g), g.leq, ncoef)
    assert Pt.dtype == np.int8
    assert Pt.transpose(1, 0, 2).astype(np.int32).tobytes() == P.tobytes()


@pytest.mark.parametrize('n', [1, 2, 3, 4, 5, 6])
def test_kl_table_digest(n):
    assert kl_table(n).dtype == np.int8
    digest = hashlib.sha256(kl_table(n).astype(np.int32).tobytes()).hexdigest()
    assert digest == KL_TABLE_SHA256[n]


def test_kl_table_never_builds_the_bruhat_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError('kl_table read GroupIndex.leq')

    kl_table.cache_clear()
    group_index.cache_clear()
    monkeypatch.setattr(GroupIndex, 'leq', property(refuse))
    for n in range(1, 7):
        digest = hashlib.sha256(
            kl_table(n).astype(np.int32).tobytes()).hexdigest()
        assert digest == KL_TABLE_SHA256[n]


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
                assert a.dtype == b.dtype and np.array_equal(a, b), parts
            count += 1
    assert count == 127


def test_narrowing_to_int8_refuses_out_of_range_values():
    edge = np.array([[127, -128], [0, 4]], dtype=np.int32)
    narrowed = _kernels._narrow(edge)
    assert narrowed.dtype == np.int8
    assert np.array_equal(narrowed, edge)
    for bad in (128, -129):
        block = edge.copy()
        block[1, 0] = bad
        with pytest.raises(OverflowError):
            _kernels._narrow(block)
