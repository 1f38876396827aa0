r"""
Bigrassmannian permutations and the combinatorial socle descriptor.

A permutation is bigrassmannian when it has exactly one left descent
and exactly one right descent.  The maximal bigrassmannian elements
below a fixed w form an antichain that describes the socle of the
cokernel of the inclusion of Verma modules attached to w; the quotient
Delta_e / Delta_w has simple socle exactly when w itself is
bigrassmannian, and the test suite checks that shadow exhaustively.

Everything here reads the dominance table D_w(i, c) = #{a <= i :
w(a) >= c} (permutations.dominance_matrix) at one cell per
bigrassmannian.  S_n has C(n+1, 3) of them, one per cell (i, c) and
threshold r with 1 <= r <= i < n and i - r + 2 <= c <= n + 1 - r: the
window with the values c..c+r-1 at positions i-r+1..i and every other
value in increasing order.  It is the least w with D_w(i, c) >= r, so
b <= w is one comparison.  Every non-constant cell of D is such a
threshold cell, so w <= u exactly when every bigrassmannian below w is
below u.  The maximal ones below w correspond to the boxes (p, q) of
Fulton's essential set of w, the box giving the threshold at (p, q+1)
(W. Fulton, Duke Math. J. 65 (1992); M. Kobayashi, Electron. J.
Combin. 17 (2010) N27).  The diagram of w is {(p, q) : w(p) > q,
w^-1(q) > p}; its essential boxes have neither (p+1, q) nor (p, q+1)
in it.  socle_windows yields the window of each, made of the values
0..n the caller gives: their texts for the socle command, their ints
for socle_descriptor, which wraps each window as a Permutation.
"""

from __future__ import annotations

from functools import lru_cache

from .permutations import Permutation, _raw, dominance_matrix


def is_bigrassmannian(w: Permutation) -> bool:
    """Exactly one left descent and exactly one right descent.

    >>> is_bigrassmannian(Permutation('1324'))
    True
    >>> is_bigrassmannian(Permutation('3412'))
    True
    >>> is_bigrassmannian(Permutation('321'))
    False
    """
    return len(w.right_descents()) == 1 and len(w.left_descents()) == 1


def _window(values, i: int, c: int, r: int):
    """The least w with D_w(i, c) >= r, each value v as values[v]:
    values c..c+r-1 at positions i-r+1..i, the rest in increasing order."""
    return (values[1:i - r + 1] + values[c:c + r] + values[i - r + 1:c]
            + values[c + r:])


def _cells(n: int):
    """(i, c, r) of every bigrassmannian of S_n, in window order: the
    window starts 1..a, c with a = i - r and has a+1 at position i+1,
    so it sorts by a descending, then by c and i ascending."""
    for a in range(n - 2, -1, -1):
        for c in range(a + 2, n + 1):
            for i in range(a + 1, n + a + 2 - c):
                yield i, c, i - a


@lru_cache(maxsize=None)
def bigrassmannians(n: int) -> tuple:
    """All bigrassmannian elements of S_n, in window order."""
    values = tuple(range(n + 1))
    return tuple(_raw(_window(values, *cell)) for cell in _cells(n))


def below(w: Permutation) -> list:
    """Flags over bigrassmannians(w.n): is b <= w?

    >>> [str(b) for b in bigrassmannians(3)]
    ['132', '213', '231', '312']
    >>> below(Permutation('231'))
    [True, True, True, False]
    """
    d = dominance_matrix(w)
    return [d[i - 1][c - 1] >= r for i, c, r in _cells(w.n)]


def complement_bigrassmannians(u: Permutation, w: Permutation) -> set:
    """Bigrassmannian elements of [e, u] that are not in [e, w].

    Requires w <= u, so the second interval sits inside the first.
    """
    flags = list(zip(bigrassmannians(u.n), below(u), below(w)))
    if any(bw and not bu for _, bu, bw in flags):
        raise ValueError(f'{w} is not Bruhat-below {u}')
    return {b for b, bu, bw in flags if bu and not bw}


def socle_windows(w: Permutation, values):
    """The window of each maximal bigrassmannian below w, once each, as
    _window writes it from values (indexed 0..n): the least w' with
    D_w'(p, q+1) >= D_w(p, q+1), for each box (p, q) of the essential
    set of w, in no particular order."""
    n, d, inv = w.n, dominance_matrix(w), w.inverse
    diagram = {(p, q) for p in range(1, n) for q in range(1, w(p))
               if inv(q) > p}
    return (_window(values, p, q + 1, d[p - 1][q]) for p, q in diagram
            if (p + 1, q) not in diagram and (p, q + 1) not in diagram)


def socle_descriptor(w: Permutation) -> frozenset:
    """Maximal elements among the bigrassmannians below w.

    >>> sorted(str(b) for b in socle_descriptor(Permutation('321')))
    ['231', '312']
    """
    return frozenset(map(_raw, socle_windows(w, tuple(range(w.n + 1)))))
