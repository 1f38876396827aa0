"""
Array-level view of a whole symmetric group.

Everything that iterates over all of S_n (Kazhdan-Lusztig tables, cell
graphs, brute-force classifier sweeps) works on integer element indices
into a fixed enumeration rather than on Permutation objects.  The
enumeration is lexicographic on windows, so indices are deterministic
across runs and processes.

Ranks up to n = 8 are supported; the full pairwise Bruhat matrix is
only materialized for n <= 7 (it is quadratic in n!).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import _kernels
from .permutations import Permutation, _raw

MAX_N = 8


class GroupIndex:
    """Indexed enumeration of S_n with inverse, length, generator and
    order tables (products of indices and coset reps are references the
    tests keep in tests/oracles.py)."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f'rank out of supported range 1..{MAX_N}: {n}')
        self.n = n
        windows = list(itertools.permutations(range(1, n + 1)))
        self.N = len(windows)
        self.windows = np.array(windows, dtype=np.int8)
        self.index = {w: i for i, w in enumerate(windows)}
        # (n-1-i)! per position: the Lehmer-code weights of rank()
        self._weights = np.array(
            [math.factorial(n - 1 - i) for i in range(n)], dtype=np.int64
        )

        self.inverse = self.rank(self.windows.argsort(axis=1) + 1)
        iu = np.triu_indices(n, 1)
        self.lengths = (
            (self.windows[:, :, None] > self.windows[:, None, :])
            [:, iu[0], iu[1]].sum(axis=1).astype(np.int64)
        )

        # lmul[s-1, i]: swap values s, s+1; rmul[s-1, i]: swap positions
        gens = max(1, n - 1)
        self.lmul = np.zeros((gens, self.N), dtype=np.int64)
        self.rmul = np.zeros((gens, self.N), dtype=np.int64)
        w = self.windows
        for s in range(1, n):
            self.lmul[s - 1] = self.rank(
                np.where(w == s, s + 1, np.where(w == s + 1, s, w))
            )
            t = w.copy()
            t[:, [s - 1, s]] = w[:, [s, s - 1]]
            self.rmul[s - 1] = self.rank(t)

        self._dominance = None
        self._leq = None

    # -- conversions

    def perm(self, i: int) -> Permutation:
        return _raw(tuple(int(v) for v in self.windows[i]))

    def idx(self, w: Permutation) -> int:
        return self.index[w.window]

    def rank(self, windows: np.ndarray) -> np.ndarray:
        """Index of each window along the last axis (its Lehmer-code
        rank, which is its place in the lexicographic enumeration)."""
        w = np.asarray(windows)
        code = np.triu(w[..., :, None] > w[..., None, :], 1).sum(axis=-1)
        return code @ self._weights

    # -- order tables

    @property
    def dominance(self) -> np.ndarray:
        """Flattened dominance tables, shape (N, n*n), uint8: x <= y
        exactly when row x is entrywise <= row y."""
        if self._dominance is None:
            n = self.n
            ge = self.windows[:, :, None] >= np.arange(1, n + 1, dtype=np.int8)
            self._dominance = np.cumsum(
                ge, axis=1, dtype=np.uint8).reshape(self.N, n * n)
        return self._dominance

    @property
    def leq(self) -> np.ndarray:
        """Full Bruhat matrix leq[x, y] = (x <= y); n <= 7 only."""
        if self._leq is None:
            if self.n > 7:
                raise MemoryError(
                    f'pairwise Bruhat matrix for S_{self.n} not materialized'
                )
            self._leq = _kernels.leq_matrix(self.dominance)
        return self._leq


@lru_cache(maxsize=None)
def group_index(n: int) -> GroupIndex:
    return GroupIndex(n)
