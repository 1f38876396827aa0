r"""
Permutations of {1, ..., n} as elements of the Coxeter group S_n.

Conventions, fixed once and relied on everywhere else in the package:

- A permutation w is stored by its window (one-line) notation, the tuple
  ``(w(1), ..., w(n))``.  Positions and values are 1-based.
- Composition is right-to-left: ``(p * q)(i) = p(q(i))``.  Consequently
  ``w * s_i`` swaps the entries in *positions* i, i+1 of the window,
  while ``s_j * w`` swaps the *values* j, j+1.
- Simple reflections are indexed 1..n-1, with s_i the transposition of
  i and i+1.  A set of simple reflections is a ``frozenset`` of indices.
- ``length(w)`` is the number of inversions, i.e. the Coxeter length.
- Bruhat order is implemented through the dominance criterion: with
  ``D_w(i, j) = #{a <= i : w(a) >= j}``, one has x <= y iff D_x <= D_y
  entrywise.  (Tests check this against reduced-subword containment,
  with the reduced words of tests/oracles.py.)
- For a parabolic subgroup W_J the left cosets W_J w carry a unique
  representative of minimal length, characterized by l(s_j w) > l(w)
  for every j in J, i.e. ``w^{-1}(j) < w^{-1}(j+1)``.

Text forms: a window is written as a digit string like ``'2314'`` when
n <= 9 and as ``'[2,3,1,4]'`` in general; both are accepted on input,
each value a canonical decimal (``decimal``): no space, sign, leading
zero or digit of another script.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Union

SimpleReflectionSet = frozenset  # indices in 1..n-1


class Permutation:
    """A permutation of {1, ..., n} in window notation.

    >>> w = Permutation('2314')
    >>> w(1), w(2), w(3)
    (2, 3, 1)
    >>> w.length
    2
    >>> str(w.inverse)
    '3124'
    >>> str(w * w)
    '3124'
    """

    __slots__ = ('window', '_length', '_inverse')

    def __init__(self, window: Union[str, Iterable[int]]):
        if isinstance(window, str):
            window = _window_from_text(window)
        else:
            window = tuple(window)
        n = len(window)
        if sorted(window) != list(range(1, n + 1)):
            raise ValueError(f'not a window of 1..{n}: {window!r}')
        self.window = window
        self._length = None
        self._inverse = None

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        """Image of the position i in 1..n."""
        return self.window[i - 1]

    def __mul__(self, other: 'Permutation') -> 'Permutation':
        """Right-to-left composition: (p * q)(i) = p(q(i))."""
        pw, qw = self.window, other.window
        if len(pw) != len(qw):
            raise ValueError('rank mismatch')
        return _raw(tuple(pw[q - 1] for q in qw))

    @property
    def inverse(self) -> 'Permutation':
        if self._inverse is None:
            inv = [0] * len(self.window)
            for i, v in enumerate(self.window):
                inv[v - 1] = i + 1
            self._inverse = _raw(tuple(inv))
        return self._inverse

    @property
    def length(self) -> int:
        """Coxeter length = number of inversions."""
        if self._length is None:
            w = self.window
            self._length = sum(
                1
                for a in range(len(w))
                for b in range(a + 1, len(w))
                if w[a] > w[b]
            )
        return self._length

    @property
    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.window))

    def right_descents(self) -> SimpleReflectionSet:
        """Indices i with l(w s_i) < l(w), i.e. w(i) > w(i+1).

        >>> sorted(Permutation('3412').right_descents())
        [2]
        """
        w = self.window
        return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])

    def left_descents(self) -> SimpleReflectionSet:
        """Indices j with l(s_j w) < l(w), i.e. j appears after j+1."""
        return self.inverse.right_descents()

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __lt__(self, other: 'Permutation'):
        # plain lexicographic window order, for deterministic sorting only
        return self.window < other.window

    def __str__(self) -> str:
        return format_permutation(self)

    def __repr__(self) -> str:
        return f'Permutation({format_permutation(self)!r})'


def _raw(window: tuple) -> Permutation:
    """Wrap an already-validated window without rechecking it."""
    p = object.__new__(Permutation)
    p.window = window
    p._length = None
    p._inverse = None
    return p


def decimal(text: str) -> int:
    """The int whose text is text, a canonical decimal, as every integer
    the CLI reads must be: int() alone would also take '1_0', '+2',
    ' 2', '02' and the digits of other scripts, and past
    sys.get_int_max_str_digits() digits it refuses in its own words.

    >>> decimal('12'), decimal('-3')
    (12, -3)
    """
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(f'not a canonical decimal: {text!r}')
    return value


def _window_from_text(text: str) -> tuple:
    """The values of a window written as digits or in brackets, each
    one a canonical decimal."""
    bracketed = text[:1] == '[' and text[-1:] == ']'
    try:
        window = tuple(map(decimal, text[1:-1].split(',') if bracketed
                           else text))
    except ValueError:
        window = ()
    if not window:
        raise ValueError(f'not a permutation text: {text!r}')
    return window


def parse_permutation(text: str) -> Permutation:
    """Parse ``'2314'`` (n <= 9) or ``'[2,3,1,4]'`` (any n).

    >>> parse_permutation('[2,3,1,4]') == parse_permutation('2314')
    True
    """
    return Permutation(text)


def format_permutation(w: Permutation) -> str:
    """Canonical text form; round-trips bit-exactly with parsing.

    Digit string for n <= 9, bracketed comma form beyond.

    >>> format_permutation(Permutation((2, 3, 1, 4)))
    '2314'
    """
    return _window_text(map(str, w.window), w.n)


def _window_text(texts, n: int) -> str:
    """The text of a window of n values, given as texts in order."""
    return ''.join(texts) if n <= 9 else '[' + ','.join(texts) + ']'


def identity(n: int) -> Permutation:
    return _raw(tuple(range(1, n + 1)))


def simple_reflection(n: int, i: int) -> Permutation:
    """The transposition s_i of i, i+1 inside S_n, for 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f's_{i} not a simple reflection of S_{n}')
    window = list(range(1, n + 1))
    window[i - 1], window[i] = window[i], window[i - 1]
    return _raw(tuple(window))


def from_word(n: int, word: Iterable[int]) -> Permutation:
    """Product s_{i_1} s_{i_2} ... s_{i_r} of simple reflections.

    >>> str(from_word(4, (2, 1, 3, 2)))
    '3412'
    """
    w = list(range(1, n + 1))
    # right-to-left composition means appending a letter acts on positions
    for i in word:
        w[i - 1], w[i] = w[i], w[i - 1]
    return _raw(tuple(w))


def dominance_matrix(w: Permutation) -> tuple:
    """The table D_w(i, j) = #{a <= i : w(a) >= j}, rows indexed by i."""
    n = w.n
    rows = []
    seen_ge = [0] * (n + 2)  # seen_ge[j] = #{a <= i : w(a) >= j}
    for i in range(1, n + 1):
        v = w(i)
        for j in range(1, v + 1):
            seen_ge[j] += 1
        rows.append(tuple(seen_ge[1:n + 1]))
    return tuple(rows)


def bruhat_leq(x: Permutation, y: Permutation) -> bool:
    """Bruhat order via entrywise dominance comparison.

    >>> bruhat_leq(Permutation('1324'), Permutation('3412'))
    True
    >>> bruhat_leq(Permutation('2134'), Permutation('1342'))
    False
    """
    if x.n != y.n:
        raise ValueError('rank mismatch')
    dx, dy = dominance_matrix(x), dominance_matrix(y)
    return all(
        a <= b
        for rx, ry in zip(dx, dy)
        for a, b in zip(rx, ry)
    )


def longest_element(n: int) -> Permutation:
    """w_0 = (n, n-1, ..., 1), of length n(n-1)/2."""
    return _raw(tuple(range(n, 0, -1)))


def _blocks(n: int, J: Iterable[int]) -> list:
    """The maximal runs of values of 1..n that J joins, as ranges."""
    cuts = [0, *(i for i in range(1, n) if i not in J), n]
    return [range(a + 1, b + 1) for a, b in zip(cuts, cuts[1:])]


def longest_element_parabolic(n: int, J: Iterable[int]) -> Permutation:
    """Longest element of the parabolic subgroup W_J of S_n.

    W_J is generated by {s_j : j in J}; its longest element reverses
    each maximal run of consecutive indices in J.

    >>> str(longest_element_parabolic(4, {1, 3}))
    '2143'
    """
    J = frozenset(J)
    if not all(1 <= j <= n - 1 for j in J):
        raise ValueError(f'J not inside 1..{n - 1}: {sorted(J)}')
    return _raw(tuple(v for block in _blocks(n, J) for v in reversed(block)))


def subgroup_elements(n: int, J: Iterable[int]) -> tuple:
    """All elements of the parabolic W_J, in lexicographic window order:
    the blocks' own orders, block after block."""
    return tuple(
        _raw(sum(choice, ())) for choice in itertools.product(
            *(itertools.permutations(b) for b in _blocks(n, frozenset(J))))
    )


def is_shortest_coset_rep(w: Permutation, J: Iterable[int]) -> bool:
    """Is w the minimal-length element of its left coset W_J w?

    Equivalent to l(s_j w) > l(w) for all j in J, i.e. the value j
    appears before j+1 in the window of w^{-1}; no lengths needed.

    >>> is_shortest_coset_rep(Permutation('2314'), {2})
    True
    >>> is_shortest_coset_rep(Permutation('3214'), {2})
    False
    """
    inv = w.inverse.window
    return all(inv[j - 1] < inv[j] for j in J)


def enumerate_group(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic window order."""
    for window in itertools.permutations(range(1, n + 1)):
        yield _raw(window)


def coset_windows(parts) -> tuple:
    """The windows of the shortest reps of W_J \\ S_n, in window order,
    for J the Levi of the composition parts of n.  A rep keeps each
    block's values in increasing order, so each position takes, smallest
    first, the next value of a block not yet used up: the windows are
    the leaves of that tree, listed depth-first on one window buffer.

    >>> coset_windows((2, 1))
    ((1, 2, 3), (1, 3, 2), (3, 1, 2))
    """
    ends = tuple(itertools.accumulate(parts))
    nxt = [e - p + 1 for e, p in zip(ends, parts)]
    n, k = ends[-1], len(parts)
    window = [0] * n
    out = []
    # placed[i]: the block whose value sits at position i, -1 for none;
    # the walk keeps no call stack, so n is not bounded by recursion
    placed = [-1] * n
    i = 0
    while i >= 0:
        b = placed[i]
        if b >= 0:
            nxt[b] = window[i]
        b += 1
        while b < k and nxt[b] > ends[b]:
            b += 1
        if b == k:
            placed[i] = -1
            i -= 1
            continue
        placed[i] = b
        window[i] = nxt[b]
        nxt[b] += 1
        if i + 1 < n:
            i += 1
        else:
            out.append(tuple(window))
    return tuple(out)


def w0_conjugate(window: tuple) -> tuple:
    """The window of w_0 w w_0 for the window of w:
    (n+1-w(n), ..., n+1-w(1)).  Conjugation by w_0 sends s_i to
    s_{n-i}, so it maps the shortest reps of a composition onto those
    of the reversed composition, keeping lengths, Bruhat order and KL
    polynomials.

    >>> w0_conjugate((2, 3, 1, 4))
    (1, 4, 2, 3)
    """
    n1 = len(window) + 1
    return tuple(n1 - v for v in reversed(window))
