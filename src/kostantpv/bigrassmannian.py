r"""
Bigrassmannian permutations and the combinatorial socle descriptor.

A permutation is bigrassmannian when it has exactly one left descent
and exactly one right descent.  The maximal bigrassmannian elements
below a fixed w form an antichain that describes the socle of the
cokernel of the inclusion of Verma modules attached to w; the quotient
Delta_e / Delta_w has simple socle exactly when w itself is
bigrassmannian, and the test suite checks that shadow exhaustively.

S_n has C(n+1, 3) bigrassmannians.  Whether b <= w is decided for all
of them at once by comparing their dominance rows
(groupindex.dominance_tables) with the row of w, and the maximal ones
below w come from the square comparison matrix of their rows
(_kernels.leq_matrix).  The rows are built from bigrassmannians(n)
itself, not from GroupIndex, so n is not capped at GroupIndex.MAX_N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import leq_matrix
from .groupindex import dominance_tables
from .permutations import Permutation, enumerate_group


@dataclass(frozen=True)
class SocleDescriptor:
    """The Bruhat-maximal bigrassmannians below a permutation."""

    generators: frozenset

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


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


@lru_cache(maxsize=None)
def bigrassmannians(n: int) -> tuple:
    """All bigrassmannian elements of S_n, in window order."""
    return tuple(w for w in enumerate_group(n) if is_bigrassmannian(w))


@lru_cache(maxsize=None)
def _rows(n: int) -> np.ndarray:
    """Dominance rows of bigrassmannians(n), shape (C(n+1, 3), n*n)."""
    windows = [b.window for b in bigrassmannians(n)]
    rows = dominance_tables(np.array(windows, dtype=np.int8).reshape(-1, n))
    rows.flags.writeable = False
    return rows


def _row(w: Permutation) -> np.ndarray:
    return dominance_tables(np.array(w.window, dtype=np.int8))


def below(w: Permutation) -> np.ndarray:
    """Mask over bigrassmannians(w.n) of the b with b <= w.

    >>> [str(b) for b in bigrassmannians(3)]
    ['132', '213', '231', '312']
    >>> below(Permutation('231')).tolist()
    [True, True, True, False]
    """
    return (_rows(w.n) <= _row(w)).all(axis=1)


def complement_bigrassmannians(u: Permutation, w: Permutation) -> set:
    """Bigrassmannian elements of [e, u] that are not in [e, w].

    Requires w <= u, so the second interval sits inside the first.
    """
    if not (_row(w) <= _row(u)).all():
        raise ValueError(f'{w} is not Bruhat-below {u}')
    bs = bigrassmannians(u.n)
    return {bs[i] for i in np.flatnonzero(below(u) & ~below(w))}


def socle_descriptor(w: Permutation) -> SocleDescriptor:
    """Maximal elements among the bigrassmannians below w.

    >>> sorted(str(b) for b in socle_descriptor(Permutation('321')))
    ['231', '312']
    """
    bs = bigrassmannians(w.n)
    under = np.flatnonzero(below(w))
    # distinct permutations have distinct rows, so b is maximal exactly
    # when its row of the comparison matrix is set on the diagonal only
    maximal = leq_matrix(_rows(w.n)[under]).sum(axis=1) == 1
    return SocleDescriptor(
        generators=frozenset(bs[i] for i in under[maximal])
    )
