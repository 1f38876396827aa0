r"""
Kazhdan-Lusztig polynomials, graded Verma multiplicities, and cells.

One fill (see _kernels) serves every table: it runs over the shortest
coset representatives W^J of a parabolic subgroup W_J, a column at a
time, each after the columns it reads and without the Bruhat matrix,
with the right action of the sign parabolic module (Deodhar's u = -1
family): H_s sends m_x to m_{xs} if xs > x is a rep, to
m_{xs} + (v^-1 - v) m_x if xs < x, and to -v m_x if xs is not a rep.
It fills the columns asked for and the columns they read, no others
(every column for a whole table, in order of length), and returns the
nonzero entries alone, column by column, each a polynomial in the
classical variable q packed into one int (Table.coefficients unpacks
it), indexed by position among the reps in coset_index, the one index
of W^J, built once per fill; its windows and lengths come with the
table.  Thinness (compositions) asks for the columns of one right
cell alone.
With J empty the reps are the whole group, in lexicographic window
order (whole_group(n), the index GroupIndex(n) is built on), and

    kl_table(n)[w][x] = P_{x,w},

and for any J, parabolic_table gives the q-form

    S[w][x] = Sum_{z in W_J} (-1)^{l(z)} P_{z x, w},

equal entry by entry to the same alternating sum taken from the
whole-group table (parabolic_sums, the oracle the tests keep in
tests/oracles.py).  The translation to the graded world -- q = v^{-2}
plus an overall power of v -- happens only at the multiplicity
boundary:

    verma_multiplicity(x, y)  =  v^{l(y)-l(x)} P_{x,y}(v^{-2}),

which collects Sum_i [Delta_x : L_y<i>] v^i.  Parabolic Verma modules
expand as an alternating sum of Vermas over the parabolic subgroup;
the graded lift of that sum carries a degree shift <l(z)> on the z-th
term, which the literature leaves implicit; it is taken here because
without it S_3 already gives a negative coefficient, impossible for a
composition-series count.  With that shift the parabolic multiplicity
of L_y in the parabolic Verma at w is v^{l(y)-l(w)} S[y][w](v^{-2}).
grade crosses it for one packed entry, graded_row for the row mult
prints: the int d of the single term v^d.  mult reads only the tables
of maximal parabolics, whose entries are single powers of q (their KL
polynomials are monomials: Lascoux-Schutzenberger, Asterisque 87-88
(1981)); grade refuses any other entry with an ArithmeticError.

Cells are decided through RSK: two elements share a right cell iff
they share the insertion tableau, and a left cell iff they share the
recording tableau, and a two-sided cell iff they share the shape.
That assignment of sides is checked against the mu-coefficient-graph
oracle (checks, run by selftest and the test suite), not assumed from
any one book.  The small cell of unique-reduced-word elements is the
shape (n-1, 1); multiplying by w_0 transposes the shape, so its
translate, the penultimate cell, is the shape (2, 1^{n-2}).  The cells
as sets, and cell membership by pairs, are references the tests keep
in tests/oracles.py.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import _kernels
from .permutations import (
    Permutation,
    coset_windows,
    is_shortest_coset_rep,
    subgroup_elements,
)
from .tableaux import rsk

# admit_fill refuses R (R + 1) ncoef over MAX_FILL_BYTES, for R
# reps and ncoef q-degrees: the bytes of the dense int8 buffer an
# earlier fill took, kept as the unit of every KL path, the tables
# held_table keeps included, until a bound is measured for the sparse
# fill (a count of reps alone would admit the 8 GB of 1,2519).  The
# limit is comp:2,2,2,2 (2,520 reps, 13 coefficients); S_7 (5,040 reps,
# 11 coefficients, 279 MB) is refused.
MAX_FILL_BYTES = 2520 * 2521 * 13


def _fill_cost(parts) -> tuple:
    """(R, ncoef, R (R + 1) ncoef) for the composition parts: there are
    R = n! / prod p! reps, the longest of length C(n,2) - sum C(p,2)."""
    n = sum(parts)
    count = math.factorial(n) // math.prod(map(math.factorial, parts))
    ncoef = (math.comb(n, 2) - sum(math.comb(p, 2) for p in parts)) // 2 + 1
    return count, ncoef, count * (count + 1) * ncoef


def admit_fill(parts) -> int:
    """The q-degrees ncoef a fill over the reps of the composition parts
    keeps; ValueError, naming parts, when its cost is over
    MAX_FILL_BYTES."""
    count, ncoef, cost = _fill_cost(parts)
    if cost > MAX_FILL_BYTES:
        raise ValueError(f'the KL fill over the {count} reps of {parts} '
                         f'is over its limit of {MAX_FILL_BYTES} bytes')
    return ncoef


def coset_index(parts) -> tuple:
    """(windows, at, lengths, mul) over the shortest reps of the
    composition parts, as lists: their windows (coset_windows),
    at[window], the position of a window, lengths[i], the inversion
    count of rep i, and mul[s][i], the position of rep i times s_{s+1}
    on the right (its positions s, s + 1 swapped), or -1 where that is
    no rep.  The lengths are read off mul, not counted per window."""
    windows = coset_windows(parts)
    n = len(windows[0])
    at = dict(zip(windows, range(len(windows))))
    mul = [[at.get(w[:s] + (w[s + 1], w[s]) + w[s + 2:], -1)
            for w in windows] for s in range(n - 1)]
    # a rep's length is its distance along mul from the identity,
    # window 0 (each prefix of a reduced word of a rep is a rep): one
    # breadth-first pass
    lengths = [-1] * len(windows)
    lengths[0] = 0
    queue = [0]
    for i in queue:
        for row in mul:
            j = row[i]
            if j >= 0 and lengths[j] < 0:
                lengths[j] = lengths[i] + 1
                queue.append(j)
    return windows, at, lengths, mul


def parabolic_table(parts, wanted=None) -> tuple:
    """(windows, lengths, S): the windows of the shortest reps of the
    composition parts and their lengths, from the one coset_index the
    fill runs over, and the read-only table (a _kernels.Table)

        S[j][i] = Sum_{z in W_J} (-1)^{l(z)} P_{z w_i, w_j},

    packed, for J the Levi of parts, with the degrees past the longest
    rep's l // 2 left out (they are zero); an i is absent where the sum
    is zero.  Every column is filled, or, given the windows wanted,
    theirs and those they read alone, the others None.  Filled over the
    reps alone, anew on each call (held_table keeps the tables mult
    reads).  ValueError over MAX_FILL_BYTES, before any window is
    listed; AssertionError, naming it, for a wanted window that is no
    rep, after the index is listed and before the fill.
    """
    ncoef = admit_fill(parts)
    windows, at, lengths, mul = coset_index(parts)
    try:
        columns = None if wanted is None else [at[w] for w in wanted]
    except KeyError as missing:
        raise AssertionError(f'the window {missing.args[0]} leaves the '
                             f'shortest reps of {parts}') from None
    return windows, tuple(lengths), _kernels.kl_fill(lengths, mul, ncoef,
                                                     columns)


# held_table's tables by composition, least recently used first.
_HELD_TABLES: dict = {}


def held_table(parts) -> tuple:
    """parabolic_table(parts), kept for mult, which reads one row: the
    least recently used are dropped while the costs of the tables held
    add up to more than MAX_FILL_BYTES, the bound of one fill."""
    table = _HELD_TABLES.pop(parts, None)
    if table is None:
        table = parabolic_table(parts)
        while _HELD_TABLES and sum(_fill_cost(held)[2] for held in (
                parts, *_HELD_TABLES)) > MAX_FILL_BYTES:
            del _HELD_TABLES[next(iter(_HELD_TABLES))]
    _HELD_TABLES[parts] = table
    return table


def grade(P, shift: int) -> int:
    """The degree d of v^shift P(v^-2) = v^d, for the packed entry P of
    a table that is a power of q: its one set bit sits at a multiple of
    BITS.  ArithmeticError for any other P."""
    e, off = divmod(P.bit_length() - 1, _kernels.BITS)
    if off or P & (P - 1):
        raise ArithmeticError(f'q-coefficients '
                              f'{_kernels.Table.coefficients(P)} are no '
                              'single power of q')
    return shift - 2 * e


def graded_row(table, window) -> list:
    """The graded factors of the parabolic Verma at the rep x of window,
    from a (windows, lengths, S) of parabolic_table or held_table: (the
    window of y, grade(S[y][x], l(y) - l(x))) for each y with a nonzero
    sum, in window order."""
    windows, lengths, S = table
    x = windows.index(window)
    return [(y, grade(col[x], length - lengths[x]))
            for y, length, col in zip(windows, lengths, S) if x in col]


@lru_cache(maxsize=None)
def kl_table(n: int) -> _kernels.Table:
    """All nonzero polynomials P_{x,w} of S_n, read-only: P[w][x] is
    P_{x,w} packed, for positions x, w in whole_group(n); x is absent
    where it is not Bruhat-below w.
    The parabolic table of the composition 1^n, filled over
    coset_index((1,) * n), so its order is whole_group(n)'s and
    group_index(n)'s by construction; past n = 6 it is over
    MAX_FILL_BYTES, and refused with a ValueError.
    """
    if n < 1:
        raise ValueError(f'n must be positive, got {n}')
    return parabolic_table((1,) * n)[2]


@lru_cache(maxsize=None)
def whole_group(n: int) -> tuple:
    """coset_index((1,) * n), kept and shared, so read-only: the windows
    of S_n, their positions, lengths and right action, in the order of
    kl_table(n)."""
    return coset_index((1,) * n)


def _row(x: Permutation, w: Permutation) -> list:
    """The q-coefficients of P_{x,w}, from the table."""
    table, at = kl_table(x.n), whole_group(x.n)[1]
    return table.coefficients(table[at[w.window]].get(at[x.window], 0))


def kl_polynomial(x: Permutation, w: Permutation):
    """P_{x,w} as a LaurentPolynomial in q (exponents are q-degrees).

    Zero when x is not Bruhat-below w; no exception.
    """
    from .laurent import LaurentPolynomial
    return LaurentPolynomial(enumerate(_row(x, w)))


def verma_multiplicity(x: Permutation, y: Permutation):
    """Sum_i [Delta_x : L_y<i>] v^i = v^{l(y)-l(x)} P_{x,y}(v^{-2}), a
    LaurentPolynomial in v.

    Zero unless x <= y; equals 1 at x = y.
    """
    from .laurent import LaurentPolynomial
    return LaurentPolynomial.from_q_coeffs(
        _row(x, y), vshift=y.length - x.length)


def parabolic_verma_multiplicity(J, w: Permutation, y: Permutation):
    """Graded multiplicity of L_y in the parabolic Verma at w, for the
    parabolic subgroup W_J, a LaurentPolynomial in v.

    Expands the parabolic Verma as sum over z in W_J of
    (-1)^{l(z)} Delta_{z w}, with the z-th term degree-shifted by l(z)
    (see module docstring).
    """
    from .laurent import LaurentPolynomial
    J = frozenset(J)
    for rep in (w, y):
        if not is_shortest_coset_rep(rep, J):
            raise ValueError(f'{rep} is not a shortest coset representative')
    total = LaurentPolynomial.zero()
    for z in subgroup_elements(w.n, J):
        lz = z.length
        term = verma_multiplicity(z * w, y).shifted(lz)
        total = total + (term if lz % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# Cells


def right_cell_key(w: Permutation) -> tuple:
    return rsk(w).insertion


def left_cell_key(w: Permutation) -> tuple:
    return rsk(w).recording


def two_sided_cell_key(w: Permutation) -> tuple:
    return rsk(w).shape


def is_small_cell_member(w: Permutation) -> bool:
    """Membership in the two-sided cell of unique-reduced-word elements.

    The identity is excluded: it forms its own two-sided cell.  Decided
    by the shape (n-1, 1) (checked in the tests against descent peeling
    and against a unique reduced word, whose lister lives in
    tests/oracles.py).
    """
    return two_sided_cell_key(w) == (w.n - 1, 1)
