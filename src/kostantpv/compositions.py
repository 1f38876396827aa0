r"""
Parabolic types for arbitrary compositions: blocks, the sufficient
positivity test, and the three-valued classifier.

A composition mu of n cuts {1, ..., n} into consecutive blocks.  G_mu
permutes equal-size blocks while preserving the order inside each
block; omega_{mu,nu} is the canonical such transport between two
similar compositions (same multiset of parts), the one whose induced
map on block indices is order-preserving among blocks of equal size.
Both are read off in closed form here (_positive_windows); G_mu and
omega as permutation objects are the references the tests keep in
tests/oracles.py.

Sufficient positivity: w lies in G_mu omega_{nu,mu} for some nu
similar to mu.  Necessary negativity: the standard module at w is not
thin, where thinness asks for a unique composition factor, with
multiplicity one, indexed by the right cell of w_0^mu w_0.  The cases
that are thin but not covered by the sufficient condition are left
Unknown -- deliberately: they are open in general.

Both conditions are decided for every shortest rep of mu at once: the
positive set is built once per mu, and thinness is read from one fill
of the parabolic KL table over the reps (klcells.parabolic_table),
summed at q = 1 over the columns of the cell.  The fill computes the
cell's columns and the columns they read alone (84 of the 360 for
1,1,2,1,1, min:3 at n = 6, and 247 of the 2,520 for 1,1,1,2,1,1, which
min:3 and min:4 at n = 7 read).  mu and its reverse
share that fill: conjugation by w_0 (the diagram automorphism
s_i -> s_{n-i}) carries the reps, the cell and the table of one onto
those of the other, so only the one with the smaller parts is filled
and the other's thinness is read through it.  classify_all gives each
rep as its window.

Composition text form: "2,1,3,2".
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

from .klcells import admit_fill, parabolic_table
from .permutations import (
    Permutation,
    _blocks,
    _raw,
    decimal,
    is_shortest_coset_rep,
    w0_conjugate,
)
from .tableaux import knuth_class

class Composition(namedtuple('Composition', 'parts')):
    """A sequence of positive parts; blocks are consecutive intervals.

    >>> Composition((2, 1, 3, 2)).blocks()
    ((1, 2), (3,), (4, 5, 6), (7, 8))
    >>> sorted(Composition((2, 1, 3, 2)).simple_reflections())
    [1, 4, 5, 7]
    """

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        if not parts or any(not isinstance(p, int) or p < 1 for p in parts):
            raise ValueError(f'parts must be positive integers: {parts}')
        return super().__new__(cls, parts)

    @classmethod
    def from_text(cls, text: str) -> 'Composition':
        """The composition whose to_text is text: each part a canonical
        decimal (permutations.decimal)."""
        try:
            return cls(tuple(map(decimal, text.split(','))))
        except ValueError:
            raise ValueError(
                f'malformed composition text: {text!r}') from None

    def to_text(self) -> str:
        return ','.join(str(p) for p in self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def blocks(self) -> tuple:
        return tuple(map(tuple, _blocks(self.n, self.simple_reflections())))

    def simple_reflections(self) -> frozenset:
        """Generators of the Levi: all indices except block boundaries."""
        bounds = set(itertools.accumulate(self.parts[:-1]))
        return frozenset(range(1, self.n)) - bounds


@lru_cache(maxsize=None)
def _positive_windows(mu: Composition) -> frozenset:
    """Windows of G_mu omega_{nu,mu} over every nu similar to mu: the
    blocks of mu, each increasing, laid end to end in every order."""
    return frozenset(
        sum(order, ()) for order in itertools.permutations(mu.blocks())
    )


def positive_sufficient(mu: Composition, w: Permutation) -> bool:
    """Is w in G_mu omega_{nu,mu} for some nu similar to mu?"""
    if not is_shortest_coset_rep(w, mu.simple_reflections()):
        raise ValueError(f'{w} is not a shortest rep for {mu.to_text()}')
    return w.window in _positive_windows(mu)


def _quotient_cell(mu: Composition) -> tuple:
    """Windows of the right cell containing w_0^mu w_0, in window order.

    w_0^mu w_0 has the blocks of mu in reverse order, each increasing.
    The cell is the windows sharing its insertion tableau, which Knuth
    moves reach from it (tableaux.knuth_class).
    """
    return knuth_class(sum(reversed(mu.blocks()), ()))


@lru_cache(maxsize=None)
def right_cell_of_longest_quotient(mu: Composition) -> frozenset:
    """The right cell containing w_0^mu w_0."""
    return frozenset(map(_raw, _quotient_cell(mu)))


def _filled_thin(mu: Composition) -> tuple:
    """(reps, thin) for mu from one fill of its parabolic table, of the
    columns of the cell of w_0^mu w_0 and those they read alone: a rep
    is thin when exactly one u in the cell has nonzero ungraded
    multiplicity, and that one 1.  The fill checks every coefficient
    to be nonnegative, so that is a sum of 1 over the cell's columns
    at q = 1.  A cell window that is no rep is parabolic_table's
    AssertionError, before the fill.  The "and that one 1" has never
    decided a rep: over every composition that MAX_FILL_BYTES admits at
    n = 7 and 8 (63 of the 64 of 7, 69 of the 128 of 8; 97,528 reps) no
    cell has a single nonzero factor of multiplicity other than 1."""
    quotient = _quotient_cell(mu)
    reps, _, S = parabolic_table(mu.parts, quotient)
    total = [0] * len(reps)
    for w in quotient:
        for x, P in S[bisect_left(reps, w)].items():
            total[x] += sum(S.coefficients(P))
    return reps, tuple(t == 1 for t in total)


@lru_cache(maxsize=None)
def _thin(mu: Composition) -> tuple:
    """(reps, thin): the windows of the shortest reps of mu in window
    order, and the thinness of each (_filled_thin).

    Only the member of {mu, reversed mu} with the smaller parts is
    filled; the other reads it through c(w) = w_0 w w_0
    (w0_conjugate), which maps the reps of one onto those of the other
    keeping lengths, Bruhat order and KL polynomials, and maps
    w_0^mu w_0 and its right cell to those of the reversed mu: so
    thin at c(x) for the reversed mu is thin at x for mu.  The fill's
    bound is checked first, on the parts asked for, so a refusal names
    them and lists no cell.

    Both tuples, kept for the life of the process (570 KB for all 63
    compositions with n <= 6, 5.3 MB for the 126 with n <= 7, mostly
    the windows, as tracemalloc counts what the cache keeps); the table
    they are read from is not.  min:k and the comp: of the same Levi
    share one entry, and min:k and min:(n-k) one fill."""
    mirror = mu.parts[::-1]
    admit_fill(mu.parts)
    if mirror >= mu.parts:
        return _filled_thin(mu)
    reps, thin = _thin(Composition(mirror))
    return tuple(zip(*sorted(zip(map(w0_conjugate, reps), thin))))


def is_thin_general(mu: Composition, w: Permutation) -> bool:
    """Unique u in the cell of w_0^mu w_0 with nonzero ungraded
    multiplicity, and that multiplicity equal to 1."""
    if not is_shortest_coset_rep(w, mu.simple_reflections()):
        raise ValueError(f'{w} is not a shortest rep for {mu.to_text()}')
    reps, thin = _thin(mu)
    return thin[bisect_left(reps, w.window)]


def _verdict(positive: bool, thin: bool) -> str:
    """Positive by the sufficient condition; Negative by non-thinness;
    Unknown in the remaining (genuinely open) thin cases."""
    if positive:
        return 'Positive'
    return 'Unknown' if thin else 'Negative'


def classify_all(mu: Composition) -> list:
    """(window, verdict, thin) for every shortest rep of mu, in window
    order; thinness is computed once, for all reps together."""
    reps, thin = _thin(mu)
    positive = _positive_windows(mu)
    return [(w, _verdict(w in positive, t), t) for w, t in zip(reps, thin)]
