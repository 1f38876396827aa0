"""Bigrassmannian elements, complements, and socle descriptors."""

import random
from math import comb

import numpy as np
import pytest

from kostantpv._kernels import leq_matrix
from kostantpv.bigrassmannian import (
    below,
    bigrassmannians,
    complement_bigrassmannians,
    is_bigrassmannian,
    socle_descriptor,
    socle_windows,
)
from kostantpv.permutations import (
    Permutation,
    bruhat_leq,
    enumerate_group,
    identity,
    longest_element,
    parse_permutation,
)


def _dominance_rows(windows, n):
    """Flattened dominance tables D(i, c) = #{a <= i : w(a) >= c}."""
    w = np.array(windows, dtype=np.int8).reshape(-1, n)
    ge = w[:, :, None] >= np.arange(1, n + 1, dtype=np.int8)
    return np.cumsum(ge, axis=1, dtype=np.uint8).reshape(len(w), n * n)


def _oracle(w):
    """below(w) and the socle generators from whole dominance rows: b <= w
    when b's row is entrywise <= w's, and b is maximal when its row of
    the comparison matrix of the rows below w is set on the diagonal only."""
    n, bs = w.n, bigrassmannians(w.n)
    rows = _dominance_rows([b.window for b in bs], n)
    mask = (rows <= _dominance_rows(w.window, n)).all(axis=1)
    under = np.flatnonzero(mask)
    maximal = leq_matrix(rows[under]).sum(axis=1) == 1
    return mask.tolist(), {bs[i] for i in under[maximal]}


def test_is_bigrassmannian_examples():
    assert is_bigrassmannian(parse_permutation('1324'))
    assert is_bigrassmannian(parse_permutation('3412'))
    assert not is_bigrassmannian(parse_permutation('1234'))
    assert not is_bigrassmannian(parse_permutation('2143'))
    assert not is_bigrassmannian(longest_element(4))


def test_bigrassmannian_definition_exhaustive():
    for n in range(2, 6):
        for w in enumerate_group(n):
            brute = (
                len(w.right_descents()) == 1 and len(w.left_descents()) == 1
            )
            assert is_bigrassmannian(w) == brute
    for n in range(1, 9):
        listed = bigrassmannians(n)
        assert listed == tuple(
            w for w in enumerate_group(n) if is_bigrassmannian(w)
        )


def test_bigrassmannian_counts():
    # binomial(n+1, 3): one per choice of descent, value bound, position bound
    assert len(bigrassmannians(2)) == 1
    assert len(bigrassmannians(3)) == 4
    assert len(bigrassmannians(4)) == 10
    assert len(bigrassmannians(5)) == 20
    # past the filter's reach: C(n+1, 3) distinct bigrassmannians, which
    # is all of them, listed in window order
    for n in range(1, 41):
        bs = bigrassmannians(n)
        assert len(set(bs)) == len(bs) == comb(n + 1, 3)
        assert all(is_bigrassmannian(b) for b in bs)
        assert list(bs) == sorted(bs)


def test_complement_requires_comparability():
    u, w = parse_permutation('3412'), parse_permutation('1324')
    assert bruhat_leq(w, u)
    out = complement_bigrassmannians(u, w)
    for b in out:
        assert is_bigrassmannian(b)
        assert bruhat_leq(b, u) and not bruhat_leq(b, w)
    with pytest.raises(ValueError):
        complement_bigrassmannians(w, u)


def test_complement_matches_pairwise_definition():
    for n in range(1, 5):
        group = list(enumerate_group(n))
        for u in group:
            for w in group:
                if not bruhat_leq(w, u):
                    with pytest.raises(ValueError):
                        complement_bigrassmannians(u, w)
                    continue
                want = {
                    b for b in bigrassmannians(n)
                    if bruhat_leq(b, u) and not bruhat_leq(b, w)
                }
                assert complement_bigrassmannians(u, w) == want


def test_socle_descriptor_trivial_cases():
    for n in range(1, 6):
        assert len(socle_descriptor(identity(n))) == 0
        for b in bigrassmannians(n):
            assert set(socle_descriptor(b)) == {b}


def test_socle_descriptor_is_maximal_antichain():
    for n in range(1, 6):
        for w in enumerate_group(n):
            gens = list(socle_descriptor(w))
            below = [b for b in bigrassmannians(n) if bruhat_leq(b, w)]
            for g in gens:
                assert g in below
            for b in below:
                assert any(bruhat_leq(b, g) for g in gens)
            for g in gens:
                for h in gens:
                    if g != h:
                        assert not bruhat_leq(g, h)


def test_below_and_socle_match_dominance_rows():
    ws = [w for n in range(1, 8) for w in enumerate_group(n)]
    for n in range(8, 13):
        rng = random.Random(n)
        ws += [Permutation(rng.sample(range(1, n + 1), n))
               for _ in range(200)]
        ws.append(longest_element(n))
    for w in ws:
        mask, gens = _oracle(w)
        assert below(w) == mask, w
        assert set(socle_descriptor(w)) == gens, w


def test_socle_descriptor_container():
    d = socle_descriptor(longest_element(3))
    assert isinstance(d, frozenset)
    assert len(d) == len(list(d))


def test_socle_windows_come_once_each():
    # the socle command writes what socle_windows yields, with no set
    # in between: one window per essential box, and no two boxes alike;
    # a window is made of the values given, whatever they are
    for n in range(1, 8):
        texts = [f'<{v}>' for v in range(n + 1)]
        for w in enumerate_group(n):
            windows = list(socle_windows(w, tuple(range(n + 1))))
            assert len(windows) == len(set(windows)), w
            assert {b.window for b in socle_descriptor(w)} == set(windows)
            assert [[texts[v] for v in window] for window in windows] == \
                list(socle_windows(w, texts)), w
