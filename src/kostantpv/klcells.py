r"""
Kazhdan-Lusztig polynomials, graded Verma multiplicities, and cells.

The table for a whole symmetric group is filled by the classical
descent recursion (see _kernels) and stored densely in the classical
variable q.  The translation to the graded world -- q = v^{-2} plus an
overall power of v -- happens only at the multiplicity boundary:

    verma_multiplicity(x, y)  =  v^{l(y)-l(x)} P_{x,y}(v^{-2}),

which collects Sum_i [Delta_x : L_y<i>] v^i.  Parabolic Verma modules
expand as an alternating sum of Vermas over the parabolic subgroup;
the graded lift of that sum carries a degree shift <l(z)> on the z-th
term, which the literature leaves implicit; it is taken here because
without it S_3 already gives a negative coefficient, impossible for a
composition-series count.

Cells are decided through RSK: two elements share a right cell iff
they share the insertion tableau, and a left cell iff they share the
recording tableau.  That assignment of sides is checked against the
mu-coefficient-graph oracle in the test suite, not assumed from any
one book.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _kernels
from .groupindex import GroupIndex, group_index
from .laurent import LaurentPolynomial
from .permutations import (
    Permutation,
    enumerate_group,
    is_shortest_coset_rep,
    simple_reflection,
    subgroup_elements,
)
from .tableaux import TableauPair, rsk

__all__ = [
    'KLTable', 'kl_table', 'kl_polynomial',
    'verma_multiplicity', 'parabolic_verma_multiplicity', 'parabolic_sums',
    'rsk', 'TableauPair',
    'same_right_cell', 'same_left_cell', 'same_two_sided_cell', 'right_cells',
    'is_small_cell_member', 'small_cell', 'penultimate_cell',
    'is_involution',
]

# Dense tables are quadratic in n!: S_6 takes 16.6 MB, and the numpy
# fill of S_7 (dense int32, 11 coefficients) was measured at 5.9 s and
# a 1.15 GB peak on a 2-core x86 host.
MAX_KL_N = 6


class KLTable:
    """All polynomials P_{x,w} for one symmetric group, stored densely.

    coeffs(x, w) returns the tuple (c_0, c_1, ...) of q-coefficients,
    () when the polynomial is zero.
    """

    def __init__(self, group: GroupIndex, dense: np.ndarray):
        self.group = group
        self.n = group.n
        self._P = dense

    @classmethod
    def build(cls, n: int) -> 'KLTable':
        if not 1 <= n <= MAX_KL_N:
            raise ValueError(
                f'dense KL table supported for 1 <= n <= {MAX_KL_N}, got {n}'
            )
        g = group_index(n)
        maxlen = int(g.lengths[g.w0_idx])
        ncoef = maxlen // 2 + 1
        dense = _kernels.kl_fill(
            g.order_by_length,
            g.lengths,
            g.first_left_descent,
            g.lmul,
            g.leq,
            ncoef,
        )
        return cls(g, dense)

    def coeffs(self, x: Permutation, w: Permutation) -> tuple:
        return self._coeffs(self.group.idx(x), self.group.idx(w))

    def _coeffs(self, xi: int, wi: int) -> tuple:
        row = self._P[xi, wi]
        last = int(np.max(np.nonzero(row)[0])) if row.any() else -1
        return tuple(int(c) for c in row[:last + 1])


@lru_cache(maxsize=None)
def kl_table(n: int) -> KLTable:
    return KLTable.build(n)


def kl_polynomial(table: KLTable, x: Permutation, w: Permutation) -> LaurentPolynomial:
    """P_{x,w} as a polynomial in q (exponents are q-degrees).

    Zero when x is not Bruhat-below w; no exception.
    """
    return LaurentPolynomial(enumerate(table.coeffs(x, w)))


def verma_multiplicity(table: KLTable, x: Permutation, y: Permutation) -> LaurentPolynomial:
    """Sum_i [Delta_x : L_y<i>] v^i = v^{l(y)-l(x)} P_{x,y}(v^{-2}).

    Zero unless x <= y; equals 1 at x = y.
    """
    cs = table.coeffs(x, y)
    return LaurentPolynomial.from_q_coeffs(cs, vshift=y.length - x.length)


def parabolic_verma_multiplicity(
    table: KLTable,
    J,
    w: Permutation,
    y: Permutation,
) -> LaurentPolynomial:
    """Graded multiplicity of L_y in the parabolic Verma at w, for the
    parabolic subgroup W_J.

    Expands the parabolic Verma as sum over z in W_J of
    (-1)^{l(z)} Delta_{z w}, with the z-th term degree-shifted by l(z)
    (see module docstring).
    """
    J = frozenset(J)
    for rep in (w, y):
        if not is_shortest_coset_rep(rep, J):
            raise ValueError(f'{rep} is not a shortest coset representative')
    total = LaurentPolynomial.zero()
    for z in subgroup_elements(w.n, J):
        lz = z.length
        term = verma_multiplicity(table, z * w, y).shifted(lz)
        total = total + (term if lz % 2 == 0 else -term)
    return total


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: cached arrays are shared by every caller."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _parabolic_subgroup(n: int, J: frozenset) -> tuple:
    """Indices of W_J in S_n and their signs (-1)^{l(z)}."""
    g = group_index(n)
    z = np.array([g.idx(u) for u in subgroup_elements(n, J)], dtype=np.int64)
    return _frozen(z), _frozen(1 - 2 * (g.lengths[z] % 2))


def parabolic_sums(table: KLTable, J, reps, targets) -> np.ndarray:
    """S[i, j, d] = Sum_{z in W_J} (-1)^{l(z)} P_{z reps[i], targets[j]}[q^d].

    reps and targets are group indices; reps must be shortest coset
    representatives (not checked here).  Then l(z w) = l(z) + l(w), so
    with the shift by l(z) every z-term carries the same power of v and

        parabolic_verma_multiplicity(w, y) = v^{l(y)-l(w)} S[w, y](v^{-2}).

    Only the |W_J| x len(reps) x len(targets) entries needed are read
    from the table.  The sum stays in the table's int32: up to S_6 it
    has at most 720 terms, each coefficient at most 4.
    """
    z, sign = _parabolic_subgroup(table.n, frozenset(J))
    zw = table.group.mul(z[:, None], np.asarray(reps)[None, :])
    terms = table._P[zw[:, :, None], np.asarray(targets)[None, None, :]]
    return np.tensordot(sign.astype(terms.dtype), terms, axes=1)


# ---------------------------------------------------------------------------
# Cells


def right_cell_key(w: Permutation) -> tuple:
    return rsk(w).insertion


def left_cell_key(w: Permutation) -> tuple:
    return rsk(w).recording


def two_sided_cell_key(w: Permutation) -> tuple:
    return rsk(w).shape


@lru_cache(maxsize=None)
def right_cells(n: int) -> dict:
    """Right cell key -> group indices of the cell, in window order."""
    g = group_index(n)
    cells: dict = {}
    for i in range(g.N):
        cells.setdefault(right_cell_key(g.perm(i)), []).append(i)
    return {key: _frozen(np.array(c, dtype=np.int64))
            for key, c in cells.items()}


def same_right_cell(x: Permutation, y: Permutation) -> bool:
    return right_cell_key(x) == right_cell_key(y)


def same_left_cell(x: Permutation, y: Permutation) -> bool:
    return left_cell_key(x) == left_cell_key(y)


def same_two_sided_cell(x: Permutation, y: Permutation) -> bool:
    return two_sided_cell_key(x) == two_sided_cell_key(y)


def is_involution(w: Permutation) -> bool:
    return (w * w).is_identity


def is_small_cell_member(w: Permutation) -> bool:
    """Membership in the two-sided cell of unique-reduced-word elements.

    The identity is excluded: it forms its own two-sided cell.  Decided
    by descent peeling -- a word is unique iff at every stage there is
    exactly one right descent -- which avoids materializing the word
    set (checked equivalent to |reduced_words(w)| = 1 in tests).
    """
    if w.is_identity:
        return False
    cur = w
    while not cur.is_identity:
        ds = cur.right_descents()
        if len(ds) != 1:
            return False
        (i,) = ds
        cur = cur * simple_reflection(cur.n, i)
    return True


@lru_cache(maxsize=None)
def small_cell(n: int) -> frozenset:
    return frozenset(w for w in enumerate_group(n) if is_small_cell_member(w))


@lru_cache(maxsize=None)
def penultimate_cell(n: int) -> frozenset:
    """The small cell translated by w_0.

    Both products u*w0 and w0*u are formed; they give the same set
    (the small cell is closed under inversion), and that is asserted
    rather than assumed.
    """
    w0 = Permutation(range(n, 0, -1))
    right = frozenset(u * w0 for u in small_cell(n))
    left = frozenset(w0 * u for u in small_cell(n))
    if right != left:
        raise AssertionError('penultimate cell differs between sides')
    return right
