r"""
The minimal-parabolic classification: tau elements, the X+/X- split,
the factorization bijection, and the five-case complement analysis.

For the parabolic p_k (Levi generated by the single reflection
s_k = (k, k+1)) the shortest coset representatives factor uniquely as
sigma o tau, where sigma ranges over the subgroup hat_G_k of
permutations fixing both k and k+1, and tau = tau_{i,j} is the unique
permutation sending i to k, j to k+1, and increasing elsewhere.  The
answer to Kostant's problem for the parabolic Verma at w depends only
on the tau part: positive exactly when j = i + 1 (the set X+).

Negative cases come with an explicit witness: the Bruhat complement
[e, s_k tau] \ [e, tau] contains a chain of at least two
bigrassmannian elements with pairwise distinct right descents, listed
case by case (five cases by the position of (i, j) relative to k; the
two mirrored cases are produced by conjugation with w_0).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .permutations import (
    Permutation,
    _raw,
    from_word,
    is_shortest_coset_rep,
    w0_conjugate,
)


class MinParContext(namedtuple('MinParContext', 'n k')):
    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if not 1 <= k <= n - 1:
            raise ValueError(f'k={k} out of range 1..{n - 1}')
        return super().__new__(cls, n, k)

    @property
    def parts(self) -> tuple:
        """The composition of the Levi: k and k + 1 in one block of 2."""
        return (1,) * (self.k - 1) + (2,) + (1,) * (self.n - self.k - 1)


# sigma fixes k and k+1, tau is some tau_{i,j}, positive: tau in X+
MinParFactorization = namedtuple('MinParFactorization', 'sigma tau positive')

# case_id in 1..5; predicted: the ordered chain of bigrassmannians
CaseAnalysis = namedtuple('CaseAnalysis', 'case_id predicted')


def tau(ctx: MinParContext, i: int, j: int) -> Permutation:
    """The unique w with w(i) = k, w(j) = k+1, increasing elsewhere.

    >>> str(tau(MinParContext(4, 2), 1, 2))
    '2314'
    >>> str(tau(MinParContext(4, 2), 2, 3))
    '1234'
    >>> str(tau(MinParContext(4, 2), 1, 4))
    '2143'
    """
    n, k = ctx.n, ctx.k
    if not 1 <= i < j <= n:
        raise ValueError(f'need 1 <= i < j <= {n}, got ({i}, {j})')
    rest = (*range(1, k), *range(k + 2, n + 1))
    return _raw(rest[:i - 1] + (k,) + rest[i - 1:j - 2] + (k + 1,)
                + rest[j - 2:])


def enumerate_X(ctx: MinParContext):
    """The pair (X+, X-): consecutive-pair taus versus all others."""
    n = ctx.n
    plus = frozenset(tau(ctx, i, i + 1) for i in range(1, n))
    minus = frozenset(
        tau(ctx, i, j)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
    )
    return plus, minus


def hat_G(ctx: MinParContext) -> frozenset:
    """Permutations fixing both k and k+1 (a copy of S_{n-2})."""
    n, k = ctx.n, ctx.k
    others = [v for v in range(1, n + 1) if v not in (k, k + 1)]
    out = []
    for image in itertools.permutations(others):
        it = iter(image)
        window = tuple(
            v if v in (k, k + 1) else next(it) for v in range(1, n + 1)
        )
        out.append(_raw(window))
    return frozenset(out)


def factorize(ctx: MinParContext, w: Permutation) -> MinParFactorization:
    """The unique (sigma, tau) with w = sigma o tau.

    tau sends i to k and j to k+1, and sigma fixes k and k+1, so
    w(i) = k and w(j) = k+1: tau = tau_{i,j} with i = w^-1(k) and
    j = w^-1(k+1), and sigma = w tau^-1.  Requires w to be a shortest
    coset representative for J = {k}, which is exactly i < j.

    >>> f = factorize(MinParContext(4, 2), Permutation('2431'))
    >>> str(f.sigma), str(f.tau), f.positive
    ('4231', '2134', False)
    """
    if not is_shortest_coset_rep(w, {ctx.k}):
        raise ValueError(f'{w} is not a shortest rep for J = {{{ctx.k}}}')
    i, j = w.inverse(ctx.k), w.inverse(ctx.k + 1)
    t = tau(ctx, i, j)
    return MinParFactorization(w * t.inverse, t, j == i + 1)


def positive_window(window: tuple, k: int) -> bool:
    """The verdict at (n, k) on the rep with this window: tau is in X+,
    w^-1(k+1) = w^-1(k) + 1, exactly when k + 1 sits right after k."""
    return window.index(k + 1) == window.index(k) + 1


def is_kostant_positive_minimal(ctx: MinParContext, w: Permutation) -> bool:
    """Positive exactly when the tau part is in X+ (positive_window), with
    no sigma or tau built (factorize builds them, and agrees)."""
    if not is_shortest_coset_rep(w, {ctx.k}):
        raise ValueError(f'{w} is not a shortest rep for J = {{{ctx.k}}}')
    return positive_window(w.window, ctx.k)


def case_analysis(ctx: MinParContext, i: int, j: int) -> CaseAnalysis:
    """The predicted bigrassmannian chain for a negative tau_{i,j}.

    Five cases by the position of (i, j) relative to (k, k+1); the
    mirrored cases 2 and 4 are obtained from 1 and 3 by conjugating
    the mirrored instance with w_0 rather than by transcribing the
    mirrored chains.
    """
    n, k = ctx.n, ctx.k
    if not 1 <= i < j <= n:
        raise ValueError(f'need 1 <= i < j <= {n}, got ({i}, {j})')
    if j == i + 1:
        raise ValueError(f'({i}, {j}) indexes a positive tau: no case analysis')
    if i == k:
        # chain s_k, s_k s_{k+1}, ..., s_k s_{k+1} ... s_{j-1}
        chain = [
            from_word(n, tuple(range(k, t + 1))) for t in range(k, j)
        ]
        return CaseAnalysis(1, tuple(chain))
    if i > k:
        # chain s_k ... s_i, s_k ... s_{i+1}, ..., s_k ... s_{j-1}
        chain = [
            from_word(n, tuple(range(k, t + 1))) for t in range(i, j)
        ]
        return CaseAnalysis(3, tuple(chain))
    if j <= k + 1:
        # i < k here: case 2 (j = k + 1) mirrors case 1, case 4 case 3
        mirror = case_analysis(
            MinParContext(n, n - k), n + 1 - j, n + 1 - i
        )
        return CaseAnalysis(
            2 if j == k + 1 else 4,
            tuple(_raw(w0_conjugate(b.window)) for b in mirror.predicted),
        )
    # i < k < k+1 < j: an up-chain and a down-chain from s_k
    up = [from_word(n, tuple(range(k, t + 1))) for t in range(k, j)]
    down = [
        from_word(n, tuple(range(k, t - 1, -1))) for t in range(k - 1, i - 1, -1)
    ]
    return CaseAnalysis(5, tuple(up + down))
