"""
The index of the whole of S_n, with its Bruhat order.

Everything that iterates over many permutations works on integer
positions among the shortest coset reps W^J of a parabolic subgroup W_J
rather than on Permutation objects, from klcells.coset_index, the one
builder of that index.  GroupIndex(n) is its case J empty, parts 1^n:
the whole group in lexicographic window order, so indices are
deterministic across runs and processes.  It adds what only the whole
group has: inverses, the left action and the Bruhat order, as numpy
arrays.  No command builds it or loads this module; the tests do, and
load numpy.

Ranks up to n = 8 are supported; the full pairwise Bruhat matrix is
only materialized for n <= 7 (it is quadratic in n!).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import _kernels
from .klcells import coset_index
from .permutations import Permutation, _raw

MAX_N = 8


class GroupIndex:
    """Indexed enumeration of S_n with inverse, length, generator and
    order tables (products of indices and coset reps are references the
    tests keep in tests/oracles.py)."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f'rank out of supported range 1..{MAX_N}: {n}')
        import numpy as np

        self.n = n
        # rmul[s-1, i]: w_i s_s, which swaps positions s, s + 1
        windows, self.index, lengths, rmul = coset_index((1,) * n)
        self.N = len(windows)
        self.lengths = np.array(lengths, dtype=np.int64)
        self.rmul = np.array(rmul, dtype=np.int64).reshape(n - 1, self.N)
        self.windows = np.array(windows, dtype=np.int8)
        self.inverse = np.array(list(map(self.index.__getitem__, map(
            tuple, (self.windows.argsort(axis=1) + 1).tolist()))))
        # lmul[s-1, i]: s_s w_i = (w_i^-1 s_s)^-1, which swaps values s, s + 1
        self.lmul = self.inverse[self.rmul[:, self.inverse]]

    # -- conversions

    def perm(self, i: int) -> Permutation:
        return _raw(tuple(int(v) for v in self.windows[i]))

    def idx(self, w: Permutation) -> int:
        return self.index[w.window]

    # -- order tables

    @cached_property
    def dominance(self) -> np.ndarray:
        """Flattened dominance tables, shape (N, n*n), uint8: x <= y
        exactly when row x is entrywise <= row y."""
        import numpy as np

        n = self.n
        ge = self.windows[:, :, None] >= np.arange(1, n + 1, dtype=np.int8)
        return np.cumsum(ge, axis=1, dtype=np.uint8).reshape(self.N, n * n)

    @cached_property
    def leq(self) -> np.ndarray:
        """Full Bruhat matrix leq[x, y] = (x <= y); n <= 7 only."""
        if self.n > 7:
            raise MemoryError(
                f'pairwise Bruhat matrix for S_{self.n} not materialized'
            )
        return _kernels.leq_matrix(self.dominance)


@lru_cache(maxsize=None)
def group_index(n: int) -> GroupIndex:
    return GroupIndex(n)
