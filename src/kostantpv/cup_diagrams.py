r"""
Cup-diagram calculus for maximal parabolic blocks.

Simples and standards of the block attached to the parabolic with Levi
sl_k + sl_m (k + m = n) are indexed by weight words: strings of n
letters from {^, v} with exactly k wedges.  Shortest coset
representatives correspond to words through the bijection Phi, which
transports the dominant word ^^..^vv..v along w:

    Phi(w)[p] = dominant letter at w(p).

A cup diagram places non-crossing cups on word positions, with no
vertical strand trapped strictly inside a cup; orienting it by a word
requires every cup to join one ^ and one v.  A cup whose left end
carries ^ is clockwise, and the degree of an oriented diagram counts
its clockwise cups.  Every word has a unique degree-0 admissible
diagram d(word), built by repeatedly capping adjacent v^ pairs;
admissible means no v-strand to the left of an ^-strand.

Graded composition multiplicities of the block are read off the
calculus: L_y sits inside the standard module at x exactly when the
underlying diagram of d(Phi(y)) can be oriented by Phi(x), and the
degree of that orientation is the grading.  The a-value of w is the
cup count of d(Phi(w)); a standard module is thin when exactly one of
its composition factors has maximal a-value min(k, m), and thinness is
governed by the contiguity sets Y below.  The answer to Kostant's
problem is positive for w iff Phi(w) lies in Y -- except at k = 1,
n-1, or n/2, where only the two flip-2 words survive.

A word is a plain str of its letters, like '^^vv': the letter at
position p is word[p - 1].  phi returns one, and phi_inverse and in_Y
refuse any word that is not one of the block's.

The fast paths work on the letters and bit masks of words, in plain
Python ints and lists: row walks the factors of one x from its word
(graded_multiplicity reads one factor off it), and the classifier fills
the rows of every x in index space (block_table).  The diagram objects,
with d_of and the exhaustive enumeration, are the reference these are
tested against, with orient (one diagram decorated by one word), which
the tests keep in tests/oracles.py.

Text form of a diagram: 'cups=(1,4),(2,3);strands=5,6', with cups
sorted by left endpoint.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Optional

from .permutations import Permutation, _raw, _window_text, is_shortest_coset_rep

WEDGE = '^'
VEE = 'v'

# ^ is a set bit of a mask; the word is read from the right, so that
# position p is bit p - 1
_BITS = str.maketrans({WEDGE: '1', VEE: '0'})
_LETTERS = str.maketrans({'1': WEDGE, '0': VEE})


class CupDiagram(namedtuple('CupDiagram', 'cups strands n')):
    """Non-crossing cups plus vertical strands on n positions: cups, a
    frozenset of pairs (a, b) with a < b, and strands, a frozenset of
    positions.

    Planarity: cups are pairwise non-crossing and no strand position
    lies strictly inside any cup interval.
    """

    __slots__ = ()

    def __new__(cls, cups: frozenset, strands: frozenset, n: int):
        used = sorted(itertools.chain(strands, *cups))
        if used != list(range(1, n + 1)):
            raise ValueError('cups and strands must partition 1..n')
        for a, b in cups:
            if not a < b:
                raise ValueError(f'cup ({a}, {b}) must have a < b')
            for p in strands:
                if a < p < b:
                    raise ValueError(f'strand {p} inside cup ({a}, {b})')
            for c, d in cups:
                if a < c < b < d:
                    raise ValueError(f'cups ({a},{b}) and ({c},{d}) cross')
        return super().__new__(cls, cups, strands, n)

    def to_text(self) -> str:
        cups = ','.join(
            f'({a},{b})' for a, b in sorted(self.cups)
        )
        strands = ','.join(str(p) for p in sorted(self.strands))
        return f'cups={cups};strands={strands}'


class OrientedCupDiagram(namedtuple('OrientedCupDiagram', 'diagram word')):
    """A cup diagram decorated by a word of ^ and v; cups join opposite
    letters.

    Need not be admissible: admissibility is about strands and is
    checked by is_admissible (enumerate_admissible, and orient in
    tests/oracles.py).
    """

    __slots__ = ()

    def __new__(cls, diagram: CupDiagram, word: str):
        if diagram.n != len(word):
            raise ValueError('diagram and word sizes differ')
        if not set(word) <= {WEDGE, VEE}:
            raise ValueError(f'word must use only ^ and v: {word!r}')
        for a, b in diagram.cups:
            if word[a - 1] == word[b - 1]:
                raise ValueError(
                    f'cup ({a}, {b}) joins equal letters in {word}'
                )
        return super().__new__(cls, diagram, word)

    @property
    def degree(self) -> int:
        """Number of clockwise cups (wedge at the left end)."""
        return sum(
            1 for a, _ in self.diagram.cups if self.word[a - 1] == WEDGE
        )

    def is_admissible(self) -> bool:
        """No v-strand strictly left of an ^-strand."""
        strands = sorted(self.diagram.strands)
        seen_vee = False
        for p in strands:
            if self.word[p - 1] == VEE:
                seen_vee = True
            elif seen_vee:
                return False
        return True


class MaxParContext(namedtuple('MaxParContext', 'n k')):
    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if not 1 <= k <= n - 1:
            raise ValueError(f'k={k} out of range 1..{n - 1}')
        return super().__new__(cls, n, k)

    @property
    def m(self) -> int:
        return self.n - self.k

    @property
    def a(self) -> int:
        return min(self.k, self.m)

    @property
    def J(self) -> frozenset:
        """Simple reflections of the Levi: everything except k."""
        return frozenset(range(1, self.n)) - {self.k}


def _words(ctx: MaxParContext) -> tuple:
    """The C(n, k) words with k wedges, in lexicographic order with ^
    first, which is the window order of their shortest reps."""
    out = []
    for wedge_positions in itertools.combinations(range(ctx.n), ctx.k):
        letters = [VEE] * ctx.n
        for p in wedge_positions:
            letters[p] = WEDGE
        out.append(''.join(letters))
    return tuple(out)


def _check_word(ctx: MaxParContext, word: str) -> None:
    """ValueError unless word is one of the block's: n letters, k of
    them ^ and the other n - k v."""
    counts = len(word), word.count(WEDGE), word.count(VEE)
    if counts != (ctx.n, ctx.k, ctx.m):
        raise ValueError(
            f'{word!r} is not a word of the (n,k)=({ctx.n},{ctx.k}) block')


def phi(ctx: MaxParContext, w: Permutation) -> str:
    """Transport of the dominant word along w: letter p is dominant
    letter number w(p).

    >>> phi(MaxParContext(4, 2), Permutation('1324'))
    '^v^v'
    >>> phi(MaxParContext(4, 2), Permutation('3412'))
    'vv^^'
    """
    if w.n != ctx.n:
        raise ValueError(f'{w} has rank {w.n}, context has {ctx.n}')
    if not is_shortest_coset_rep(w, ctx.J):
        raise ValueError(f'{w} is not a shortest rep for the maximal parabolic')
    return ''.join(WEDGE if v <= ctx.k else VEE for v in w.window)


def phi_inverse(ctx: MaxParContext, word: str) -> Permutation:
    """The unique shortest rep mapping to the word under phi: the
    wedges carry 1..k from the left, the vees k + 1..n."""
    _check_word(ctx, word)
    wedges, vees = itertools.count(1), itertools.count(ctx.k + 1)
    return _raw(tuple(
        next(wedges) if letter == WEDGE else next(vees) for letter in word
    ))


@lru_cache(maxsize=None)
def shortest_reps(ctx: MaxParContext) -> tuple:
    """All shortest reps of the block, in window order."""
    return tuple(phi_inverse(ctx, word) for word in _words(ctx))


def antidominant_rep(ctx: MaxParContext) -> Permutation:
    """The rep whose word is v^m ^k -- the longest shortest rep."""
    return phi_inverse(ctx, VEE * ctx.m + WEDGE * ctx.k)


def _cap(letters: str) -> tuple:
    """(cups, strands) of d(word) as bit masks, bit p - 1 for position
    p: a mask per cup, and one for all the strands.  Each v caps the
    nearest free ^ to its right, and what is left uncapped is a strand.
    """
    stack = []
    cups = []
    strands = 0
    bit = 1
    for letter in letters:
        if letter == VEE:
            stack.append(bit)
        elif stack:
            cups.append(stack.pop() | bit)
        else:
            strands |= bit
        bit <<= 1
    return cups, strands | sum(stack)


def _positions(mask: int) -> tuple:
    """The 1-based positions of the set bits of a mask, in order."""
    return tuple(
        p for p, bit in enumerate(reversed(bin(mask)[2:]), 1) if bit == '1'
    )


def d_of(word: str) -> OrientedCupDiagram:
    """The unique degree-0 admissible diagram: cap adjacent v^ pairs.

    >>> d_of('^v^v').diagram.to_text()
    'cups=(2,3);strands=1,4'
    >>> d_of('vv^^vv^').diagram.to_text()
    'cups=(1,4),(2,3),(6,7);strands=5'
    """
    cups, strands = _cap(word)
    return OrientedCupDiagram(
        CupDiagram(frozenset(map(_positions, cups)),
                   frozenset(_positions(strands)), len(word)),
        word,
    )


# ---------------------------------------------------------------------------
# Exhaustive diagram enumeration (brute-force side of the calculus)


@lru_cache(maxsize=None)
def _planar_diagrams(points: tuple) -> tuple:
    """All (cups, strands) splittings of the points, planar in the
    strict sense: non-crossing cups and no strand inside a cup.  So the
    inside of a cup is a strandless diagram on the points it spans."""
    if not points:
        return (((), ()),)
    out = []
    p = points[0]
    for cups, strands in _planar_diagrams(points[1:]):
        out.append((cups, (p,) + strands))
    for t in range(1, len(points), 2):
        q = points[t]
        for inner, inner_strands in _planar_diagrams(points[1:t]):
            if inner_strands:
                continue
            for cups, strands in _planar_diagrams(points[t + 1:]):
                out.append((((p, q),) + inner + cups, strands))
    return tuple(out)


def planar_diagrams(n: int) -> tuple:
    """Every planar cup diagram on n points."""
    return tuple(
        CupDiagram(frozenset(cups), frozenset(strands), n)
        for cups, strands in _planar_diagrams(tuple(range(1, n + 1)))
    )


def enumerate_oriented(word: str) -> frozenset:
    """All planar diagrams orientable by the word (cups join opposite
    letters); admissibility not required."""
    out = set()
    for c in planar_diagrams(len(word)):
        if all(word[a - 1] != word[b - 1] for a, b in c.cups):
            out.add(OrientedCupDiagram(c, word))
    return frozenset(out)


def enumerate_admissible(word: str) -> frozenset:
    """The admissible subset of enumerate_oriented."""
    return frozenset(
        ocd for ocd in enumerate_oriented(word) if ocd.is_admissible()
    )


# ---------------------------------------------------------------------------
# Multiplicities, thinness, and the classifier


# The sparse rows hold a list slot per composition factor, sum_y
# 2^ncups[y] of them, and classify max:k writes a line or a JSON block
# per factor.  The limit is the largest table measured, (18, 9): 8.1 M
# factors.  A CLI classify --n 18 max:9 took 4.7-5.6 s with a peak RSS
# of 215 MiB as TSV (401 MB written), and 4.8-5.7 s and 269 MiB as
# JSON (764 MB written; 2-core x86, a shared host).  It admits every
# block with n <= 18 and refuses n = 19 for k = 8..11 ((19, 9) has
# 19.3 M factors), counted from n and k alone: a CLI refusal at (20, 10)
# takes 0.09 s and 16 MiB.
MAX_TABLE_FACTORS = 8_099_511

# A row (mult --engine cup, is_thin) keeps a word and a degree per
# factor.  The limit is the largest row of any block with n <= 20,
# (^v)^10 at (20, 10), with Catalan(11) factors: a CLI mult there took
# 0.83-1.30 s and 72 MiB as JSON, 0.52-0.84 s and 46 MiB as TSV (2-core
# x86).  The walk counts as it lists, so a refusal costs at most a row
# of its n: 0.25-0.44 s and 24 MiB for (^v)^11 at (22, 11).  Cost grows
# with n too: (^v)^10 v^20 at n = 40 took 1.3 s and 83 MiB.
MAX_ROW_FACTORS = 58_786


def _mask(letters: str) -> int:
    """The word as a mask: bit p - 1 is set where it has ^ at p."""
    return int(letters[::-1].translate(_BITS), 2)


def labeller(ctx: MaxParContext):
    """The text of a rep as a function of its word, as str(Permutation)
    writes it: the wedges carry 1..k from the left, the vees k + 1..n."""
    texts = list(map(str, range(1, ctx.n + 1)))
    wedges, vees = texts[:ctx.k], texts[ctx.k:]
    return lambda letters: _window_text(map(next, map(
        {WEDGE: iter(wedges), VEE: iter(vees)}.__getitem__, letters)), ctx.n)


CupTable = namedtuple('CupTable', 'words ncups rows thin')


def factors(ncups) -> Iterator[tuple]:
    """(y, degree) of each factor id of a block_table, in id order: the
    ids run column by column, one per degree 0..ncups[y] of each y.

    >>> list(factors([0, 2, 1]))
    [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    """
    for y, c in enumerate(ncups):
        for d in range(c + 1):
            yield y, d


def block_table(ctx: MaxParContext) -> CupTable:
    """Every row of the block, built anew on each call, for classify
    max:k.  Reps are the shortest reps in window order, named by their
    index: words[x] is Phi(x), and ncups[y] the cup count of d(Phi(y)),
    the a-value of y.  rows[x] lists the ids of the composition factors
    of the standard module at x in increasing y, decoded by factors,
    and thin[x] says that exactly one factor has maximal a-value.

    d(Phi(y)) has degree 0, so each of its cups runs from a v to a ^.
    A word x of the block orients it admissibly exactly when x is Phi(y)
    with some cups turned round, at the degree of the number turned: x
    puts one ^ on each cup, which leaves k - ncups[y] wedges for the
    strands, and admissibility puts them on the leftmost strands, where
    Phi(y) has its own (capping leaves no v before an uncapped ^).  So
    column y is filled from the 2^ncups[y] masks that orient d(Phi(y)),
    capped (_cap) while the column is filled.  Each id is one int shared
    by every row it sits in, so a row costs a list slot per factor.

    ValueError over MAX_TABLE_FACTORS before any word is listed: the
    words with c cups, one per planar diagram, number C(n, c) - C(n, c - 1)
    for c <= a, each with 2^c factors.
    """
    n, a = ctx.n, ctx.a
    count = (math.comb(n, a) << a) - sum(math.comb(n, c) << c
                                         for c in range(a))
    if count > MAX_TABLE_FACTORS:
        raise ValueError(
            f'the cup engine lists all {count} composition factors of the '
            f'({ctx.n},{ctx.k}) block, over its limit of {MAX_TABLE_FACTORS}'
        )
    words = _words(ctx)
    # masks in window order: bit p - 1 is set where word x has ^ at p
    index = {_mask(word): x for x, word in enumerate(words)}
    rows = [[] for _ in words]
    top = [0] * len(words)
    ncups = []
    # degrees[c][t]: the number of cups in subset t of c cups
    degrees = [[0]]
    for _ in range(a):
        degrees.append(degrees[-1] + [d + 1 for d in degrees[-1]])
    ids = 0
    for word, mask in zip(words, index):
        cups = _cap(word)[0]
        masks = [mask]
        for cup in cups:
            masks += [m ^ cup for m in masks]
        at = list(map(index.__getitem__, masks))
        column = list(range(ids, ids + len(cups) + 1))
        for x, d in zip(at, degrees[len(cups)]):
            rows[x].append(column[d])
        if len(cups) == a:
            for x in at:
                top[x] += 1
        ids += len(column)
        ncups.append(len(cups))
    return CupTable(words, ncups, rows, [t == 1 for t in top])


def row(ctx: MaxParContext, letters: str) -> tuple:
    """(factors, thin) of the standard module at the word letters:
    factors lists (the word of y, the degree of L_y) in window order,
    and thin says that exactly one factor has maximal a-value.

    By the rule in block_table, the factors are the non-crossing matchings of
    the word with cups from ^ to v or v to ^, no strand under a cup and
    no ^-strand right of a v-strand: y rewrites each cup v...^, the
    degree counts the cups with ^ at the left, and the cups are the
    a-value of y.  A depth-first walk lists them; it opens no more cups
    of a letter than the letters of the other left, and raises
    ValueError on finding factor MAX_ROW_FACTORS + 1.
    """
    n, mask, a = len(letters), _mask(letters), ctx.a
    factors, top = [], 0
    # A state is the next position, the open cups (innermost first: bit,
    # letter, open ^ and v cups, the cups around), the bits of clockwise
    # cups, the cup count, and whether a v-strand is placed.
    stack = [(0, (0, None, 0, 0, None), 0, 0, False)]
    pop, push = stack.pop, stack.append
    while stack:
        i, opened, turned, c, vee_strand = pop()
        if i == n:
            if len(factors) == MAX_ROW_FACTORS:
                raise ValueError(
                    f'the cup engine lists over its limit of '
                    f'{MAX_ROW_FACTORS} composition factors at {letters}')
            factors.append((format(mask ^ turned, f'0{n}b')[::-1]
                            .translate(_LETTERS), turned.bit_count() >> 1))
            top += c == a
            continue
        left, left_letter, open_wedges, open_vees, outer = opened
        letter, j = letters[i], i + 1
        if left_letter is None:
            if letter == VEE or not vee_strand:  # a strand, outside cups
                push((j, opened, turned, c, vee_strand or letter == VEE))
        elif left_letter != letter:  # the innermost cup closes
            clockwise = left | 1 << i if letter == VEE else 0
            push((j, outer, turned | clockwise, c + 1, vee_strand))
        open_wedges += letter == WEDGE
        open_vees += letter == VEE
        wedges = (mask >> j).bit_count()  # the ^ in letters[j:]
        if open_vees <= wedges and open_wedges <= n - j - wedges:
            push((j, (1 << i, letter, open_wedges, open_vees, opened),
                  turned, c, vee_strand))
    return sorted(factors), top == 1


def graded_multiplicity(
    ctx: MaxParContext, x: Permutation, y: Permutation
) -> Optional[int]:
    """Degree at which L_y sits inside the standard module at x, or
    None when it does not appear; the multiplicity is always 0 or 1.

    Read off row(ctx, Phi(x)), the factors of x, so past
    MAX_ROW_FACTORS it raises row's ValueError.
    """
    word = phi(ctx, y)
    return dict(row(ctx, phi(ctx, x))[0]).get(word)


def is_thin(ctx: MaxParContext, w: Permutation) -> bool:
    """Exactly one composition factor of maximal a-value min(k, m)."""
    return row(ctx, phi(ctx, w))[1]


def in_Y(ctx: MaxParContext, word: str) -> bool:
    """The contiguity predicate on a word of the block: for k < m all
    vees adjacent, for k > m all wedges adjacent, for k = m either way.

    >>> in_Y(MaxParContext(5, 2), '^vvv^')
    True
    >>> in_Y(MaxParContext(5, 2), 'v^v^v')
    False
    """
    _check_word(ctx, word)

    def contiguous(letter: str) -> bool:
        first = word.find(letter)
        last = word.rfind(letter)
        return last - first + 1 == word.count(letter)

    if ctx.k < ctx.m:
        return contiguous(VEE)
    if ctx.k > ctx.m:
        return contiguous(WEDGE)
    return contiguous(VEE) or contiguous(WEDGE)


def is_positive_word(ctx: MaxParContext, word: str) -> bool:
    """is_kostant_positive_maximal of the rep of a word of the block,
    read off the word alone."""
    if ctx.k in (1, ctx.n - 1) or ctx.n == 2 * ctx.k:
        return word in (WEDGE * ctx.k + VEE * ctx.m,
                        VEE * ctx.m + WEDGE * ctx.k)
    return in_Y(ctx, word)


def is_kostant_positive_maximal(ctx: MaxParContext, w: Permutation) -> bool:
    """Positive iff Phi(w) is in Y, except that for k = 1, n-1, or n/2
    only the two extreme reps are positive: e and antidominant_rep,
    whose words are ^k v^m and v^m ^k."""
    return is_positive_word(ctx, phi(ctx, w))
