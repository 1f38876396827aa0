r"""
References the tests hold the program to, and that no command reaches.

Each is a second way to compute something the package computes one way
(or a definition the package reads off a closed form), kept here so the
package keeps one path per computation:

- the shortest coset reps of W_J as a filter over S_n
  (enumerate_shortest_reps) and as group indices (coset_reps), against
  permutations.coset_windows;
- the Lehmer-code rank of a window (rank), against the positions of
  klcells.coset_index, and products of group indices (mul);
- the per-column KL fill of S_n on the Bruhat matrix, by left descents
  (kl_fill_by_column), and the parabolic alternating sum taken from the
  whole-group KL table, densely to S_6 (parabolic_sums) and sparsely
  past it (sparse_parabolic_sums), against the fill of
  klcells.parabolic_table, laid out densely (dense_table; the cup table
  of block_table lays out as dense_degrees);
- reduced words, against Bruhat order (the subword property) and the
  small cell (unique reduced word);
- cell membership by pairs, the small and penultimate cells as sets,
  and involutions;
- the block-permuting group G_mu and the transports omega_{mu,nu},
  against the positive set of compositions._positive_windows;
- one cup diagram oriented by one word (orient), against the rows of
  cup_diagrams.block_table.

The group-index functions take a GroupIndex g as their first argument.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from kostantpv._kernels import Table
from kostantpv.compositions import Composition
from kostantpv.cup_diagrams import (
    CupDiagram,
    OrientedCupDiagram,
    factors,
)
from kostantpv.groupindex import GroupIndex, group_index
from kostantpv.klcells import (
    is_small_cell_member,
    kl_table,
    left_cell_key,
    right_cell_key,
    two_sided_cell_key,
)
from kostantpv.permutations import (
    Permutation,
    _raw,
    enumerate_group,
    is_shortest_coset_rep,
    simple_reflection,
    subgroup_elements,
)

def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only with the array it views: cached arrays are
    shared by every caller."""
    if a.base is not None:
        a.base.flags.writeable = False
    a.flags.writeable = False
    return a


def dense_table(S) -> np.ndarray:
    """The table of a KL fill as one int32 array: D[x, w, d] is the
    coefficient of q^d in S_{x,w}, over its ncoef degrees."""
    D = np.zeros((len(S), len(S), S.ncoef), dtype=np.int32)
    for w, col in enumerate(S):
        for x, P in col.items():
            coeffs = S.coefficients(P)
            D[x, w, :len(coeffs)] = coeffs
    return D


def dense_degrees(table) -> np.ndarray:
    """The rows of a block_table as one int8 array: deg[x, y] is the
    degree of L_y in the standard module at x, -1 where it is no factor.
    """
    y, d = np.array(list(factors(table.ncups))).T
    deg = np.full((len(table.rows), len(table.rows)), -1, dtype=np.int8)
    for x, row in enumerate(table.rows):
        deg[x, y[row]] = d[row]
    return deg


# ---------------------------------------------------------------------------
# Coset reps and products over a GroupIndex


def enumerate_shortest_reps(n: int, J: Iterable[int]) -> Iterator[Permutation]:
    """Shortest representatives of W_J \\ S_n, lexicographic window order."""
    J = frozenset(J)
    for w in enumerate_group(n):
        if is_shortest_coset_rep(w, J):
            yield w


def rank(windows) -> np.ndarray:
    """Index in S_n of each window along the last axis: its Lehmer-code
    rank, which is its place in the lexicographic enumeration."""
    w = np.asarray(windows)
    n = w.shape[-1]
    code = np.triu(w[..., :, None] > w[..., None, :], 1).sum(axis=-1)
    return code @ np.array([math.factorial(n - 1 - i) for i in range(n)])


def mul(g: GroupIndex, a, b) -> np.ndarray:
    """Indices of the products a * b, for broadcastable index arrays."""
    a, b = np.broadcast_arrays(a, b)
    wb = g.windows[b].astype(np.int64) - 1
    return rank(np.take_along_axis(g.windows[a], wb, axis=-1))


def coset_reps(g: GroupIndex, J) -> np.ndarray:
    """Indices of the shortest reps of W_J \\ S_n, in window order:
    the w with l(s_j w) > l(w) for every j in J."""
    mask = np.ones(g.N, dtype=bool)
    for j in J:
        mask &= g.lengths[g.lmul[j - 1]] > g.lengths
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# The per-column KL fill over the whole group


def kl_fill_by_column(g: GroupIndex, ncoef: int) -> np.ndarray:
    """The earlier per-column fill of S_n: P[x, w, d] over x <= w read
    off the Bruhat matrix g.leq, in order of length, with the uniform
    recursion on the first left descent s of w and c = [s x < x]

        P_{x,w} = q^{1-c} P_{sx,v} + q^c P_{x,v}
                  - sum over z < v with sz < z of
                      mu(z, v) q^{(l(w)-l(z))/2} P_{x,z}   (x <= z),

    where v = s w; the identity has no descent.
    """
    lengths, lmul, leq = g.lengths, g.lmul, g.leq
    ldesc = np.full(g.N, -1, dtype=np.int64)
    for s in range(len(lmul) - 1, -1, -1):
        ldesc[lengths[lmul[s]] < lengths] = s
    P = np.zeros((g.N, g.N, ncoef), dtype=np.int32)
    for w in np.argsort(lengths, kind='stable'):
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


# ---------------------------------------------------------------------------
# The parabolic alternating sum from the whole-group table


@lru_cache(maxsize=None)
def _dense_kl_table(n: int) -> np.ndarray:
    """kl_table(n) as one read-only int32 array P[x, w, d]."""
    return _frozen(dense_table(kl_table(n)))


@lru_cache(maxsize=None)
def _parabolic_subgroup(n: int, J: frozenset) -> tuple:
    """Indices of W_J in S_n and their signs (-1)^{l(z)}."""
    g = group_index(n)
    z = np.array([g.idx(u) for u in subgroup_elements(n, J)], dtype=np.int64)
    sign = (1 - 2 * (g.lengths[z] % 2)).astype(np.int32)
    return _frozen(z), _frozen(sign)


def parabolic_sums(n: int, J, reps, targets) -> np.ndarray:
    """S[i, j, d] = Sum_{z in W_J} (-1)^{l(z)} P_{z reps[i], targets[j]}[q^d].

    reps and targets are group indices; reps must be shortest coset
    representatives (not checked here).  Then l(z w) = l(z) + l(w), so
    with the shift by l(z) every z-term carries the same power of v and

        parabolic_verma_multiplicity(w, y) = v^{l(y)-l(w)} S[w, y](v^{-2}).

    The sum is taken in int32 over the whole-group table laid out
    densely (_dense_kl_table): up to S_6 it has at most 720 terms, each
    coefficient at most 4.
    """
    z, sign = _parabolic_subgroup(n, frozenset(J))
    zw = mul(group_index(n), z[:, None], np.asarray(reps)[None, :])
    terms = _dense_kl_table(n)[zw[:, :, None],
                               np.asarray(targets)[None, None, :]]
    return np.tensordot(sign, terms, axes=1)


@lru_cache(maxsize=None)
def wide(P: int) -> int:
    """A polynomial packed at _kernels.BITS bits a coefficient, packed
    again at 32 bits: a signed sum of up to 2^23 such polynomials, each
    coefficient below 2^8, has every coefficient within +-2^31, so two
    such sums are equal ints exactly when they are equal polynomials."""
    return sum(c << 32 * d for d, c in enumerate(Table.coefficients(P)))


def sparse_parabolic_sums(P, windows, lengths, parts) -> dict:
    """{w: {x: S_{x,w}}} over the shortest reps x, w of the Levi of
    parts, by window, S_{x,w} != 0 packed by wide, with

        S_{x,w} = Sum_{z in W_J} (-1)^{l(z)} P_{z x, w},

    taken sparsely from P, a KL table of S_n whose position i is the
    element with window windows[i] and length lengths[i]: each entry y
    of the column of w is added, with sign (-1)^{l(y) - l(x)}, to the
    rep x of W_J y, which is y's window with each block's values sorted
    into position order.
    """
    cuts = list(itertools.accumulate(parts, initial=0))

    def rep(y: tuple) -> tuple:
        out = list(y)
        for lo, hi in zip(cuts, cuts[1:]):
            spots = [p for p, v in enumerate(y) if lo < v <= hi]
            for p, v in zip(spots, range(lo + 1, hi + 1)):
                out[p] = v
        return tuple(out)

    at = {w: i for i, w in enumerate(windows)}
    reps = list(map(rep, windows))
    signs = [1 - 2 * ((l - lengths[at[x]]) & 1)
             for l, x in zip(lengths, reps)]
    sums = {}
    for w in sorted(set(reps)):
        col = {}
        for y, Pyw in P[at[w]].items():
            x = reps[y]
            col[x] = col.get(x, 0) + signs[y] * wide(Pyw)
        sums[w] = {x: S for x, S in col.items() if S}
    return sums


# ---------------------------------------------------------------------------
# Reduced words


def iter_reduced_words(w: Permutation) -> Iterator[tuple]:
    """The reduced words of w, one at a time, as tuples of reflection
    indices.  Nothing is cached: the longest element of S_6 alone has
    292,864 of them, so ask for two to learn whether a word is unique."""
    if w.is_identity:
        yield ()
        return
    for i in sorted(w.right_descents()):
        for word in iter_reduced_words(w * simple_reflection(w.n, i)):
            yield word + (i,)


def reduced_words(w: Permutation) -> tuple:
    """All reduced words of w, sorted, as tuples of reflection indices.

    >>> reduced_words(Permutation('321'))
    ((1, 2, 1), (2, 1, 2))
    """
    return tuple(sorted(iter_reduced_words(w)))


def canonical_reduced_word(w: Permutation) -> tuple:
    """One fixed reduced word (peel the smallest left descent first)."""
    word = []
    w = _raw(w.window)
    while not w.is_identity:
        j = min(w.left_descents())
        word.append(j)
        w = simple_reflection(w.n, j) * w
    return tuple(word)


# ---------------------------------------------------------------------------
# Cells by pairs and as sets


def same_right_cell(x: Permutation, y: Permutation) -> bool:
    return right_cell_key(x) == right_cell_key(y)


def same_left_cell(x: Permutation, y: Permutation) -> bool:
    return left_cell_key(x) == left_cell_key(y)


def same_two_sided_cell(x: Permutation, y: Permutation) -> bool:
    return two_sided_cell_key(x) == two_sided_cell_key(y)


def is_involution(w: Permutation) -> bool:
    return (w * w).is_identity


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


# ---------------------------------------------------------------------------
# The block-permuting group G_mu and the transports omega


def sorted_partition(mu: Composition) -> tuple:
    """Parts in weakly decreasing order."""
    return tuple(sorted(mu.parts, reverse=True))


def similar(mu: Composition, nu: Composition) -> bool:
    return sorted_partition(mu) == sorted_partition(nu)


def _block_transport(mu: Composition, nu: Composition, assignment) -> Permutation:
    """Permutation sending block i of mu onto block assignment[i] of nu,
    order-preserving inside each block."""
    nu_blocks = nu.blocks()
    window = [0] * mu.n
    for i, block in enumerate(mu.blocks()):
        target = nu_blocks[assignment[i]]
        for src, dst in zip(block, target):
            window[src - 1] = dst
    return _raw(tuple(window))


def G_mu(mu: Composition) -> frozenset:
    """All order-preserving permutations of equal-size blocks.

    >>> len(G_mu(Composition((2, 2, 1, 2))))
    6
    """
    by_size: dict = {}
    for i, p in enumerate(mu.parts):
        by_size.setdefault(p, []).append(i)
    out = []
    groups = list(by_size.values())
    for images in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        assignment = {}
        for g, image in zip(groups, images):
            assignment.update(zip(g, image))
        out.append(_block_transport(mu, mu, assignment))
    return frozenset(out)


def omega(mu: Composition, nu: Composition) -> Permutation:
    """The canonical transport from the blocks of mu onto the blocks
    of nu: order-preserving inside blocks, and order-preserving on the
    indices of equal-size blocks.

    >>> str(omega(Composition((2, 1, 3, 2)), Composition((3, 2, 2, 1))))
    '45812367'
    """
    if not similar(mu, nu):
        raise ValueError(
            f'compositions {mu.to_text()} and {nu.to_text()} are not similar'
        )
    targets_by_size: dict = {}
    for j, p in enumerate(nu.parts):
        targets_by_size.setdefault(p, []).append(j)
    assignment = {}
    cursor = {size: 0 for size in targets_by_size}
    for i, p in enumerate(mu.parts):
        assignment[i] = targets_by_size[p][cursor[p]]
        cursor[p] += 1
    return _block_transport(mu, nu, assignment)


def _similar_compositions(mu: Composition) -> tuple:
    return tuple(
        Composition(parts)
        for parts in sorted(set(itertools.permutations(mu.parts)))
    )


# ---------------------------------------------------------------------------
# One cup diagram oriented by one word


def orient(c: CupDiagram, word: str) -> Optional[OrientedCupDiagram]:
    """Decorate c by the word if valid and admissible, else None.

    >>> from kostantpv.cup_diagrams import d_of
    >>> c = d_of('^v^v').diagram
    >>> orient(c, '^^vv').degree
    1
    >>> orient(c, 'vv^^') is None
    True
    """
    if c.n != len(word):
        raise ValueError('diagram and word sizes differ')
    if any(word[a - 1] == word[b - 1] for a, b in c.cups):
        return None
    ocd = OrientedCupDiagram(c, word)
    return ocd if ocd.is_admissible() else None
