"""Window arithmetic, Bruhat order, and coset machinery.

The Bruhat comparison in production goes through dominance matrices;
here it is checked against the subword property: x <= w exactly when x
is a product of some subsequence of a fixed reduced word of w.
"""

import itertools

import pytest

from kostantpv.permutations import (
    Permutation,
    bruhat_leq,
    dominance_matrix,
    enumerate_group,
    format_permutation,
    from_word,
    identity,
    is_shortest_coset_rep,
    longest_element,
    longest_element_parabolic,
    parse_permutation,
    simple_reflection,
    subgroup_elements,
)
from oracles import (
    canonical_reduced_word,
    enumerate_shortest_reps,
    reduced_words,
)


def test_parse_format_round_trip():
    for text in ('1', '21', '2314', '123456789'):
        assert format_permutation(parse_permutation(text)) == text
    big = Permutation(tuple([10] + list(range(1, 10))))
    assert format_permutation(big) == '[10,1,2,3,4,5,6,7,8,9]'
    assert parse_permutation(format_permutation(big)) == big


def test_parse_rejects_non_windows():
    for text in ('122', '130', '', '2-14', '[1,2', '[0,1]'):
        with pytest.raises(ValueError):
            parse_permutation(text)


def test_composition_is_right_to_left():
    s1 = simple_reflection(3, 1)
    s2 = simple_reflection(3, 2)
    assert (s1 * s2).window == (2, 3, 1)
    assert (s2 * s1).window == (3, 1, 2)
    for p, q in itertools.product(enumerate_group(3), repeat=2):
        prod = p * q
        for i in range(1, 4):
            assert prod(i) == p(q(i))


def test_side_conventions():
    w = parse_permutation('2314')
    s1 = simple_reflection(4, 1)
    assert (w * s1).window == (3, 2, 1, 4)
    assert (s1 * w).window == (1, 3, 2, 4)


def test_inverse_and_length():
    for w in enumerate_group(4):
        assert (w * w.inverse).is_identity
        assert w.length == sum(
            1
            for i, j in itertools.combinations(range(1, 5), 2)
            if w(i) > w(j)
        )
        assert w.inverse.length == w.length


def test_descents():
    w = parse_permutation('3142')
    assert w.right_descents() == frozenset({1, 3})
    assert w.left_descents() == frozenset({2})
    for w in enumerate_group(4):
        for i in range(1, 4):
            s = simple_reflection(4, i)
            assert (i in w.right_descents()) == ((w * s).length < w.length)
            assert (i in w.left_descents()) == ((s * w).length < w.length)


def test_from_word():
    assert from_word(4, (2, 1, 3, 2)).window == (3, 4, 1, 2)


def test_longest_element():
    for n in range(1, 6):
        w0 = longest_element(n)
        assert w0.window == tuple(range(n, 0, -1))
        assert w0.length == n * (n - 1) // 2
        assert (w0 * w0).is_identity
    assert longest_element_parabolic(5, frozenset({1, 3, 4})).window == \
        (2, 1, 5, 4, 3)


def test_reduced_words():
    assert reduced_words(longest_element(3)) == ((1, 2, 1), (2, 1, 2))
    assert len(reduced_words(longest_element(4))) == 16
    for w in enumerate_group(4):
        words = reduced_words(w)
        assert canonical_reduced_word(w) in words
        for word in words:
            assert len(word) == w.length
            assert from_word(4, word) == w


def _bruhat_downset(w):
    """All subword products of a fixed reduced word of w."""
    n = len(w.window)
    out = {identity(n)}
    for letter in canonical_reduced_word(w):
        s = simple_reflection(n, letter)
        out |= {x * s for x in out}
    return out


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_bruhat_matches_subword_oracle(n):
    for w in enumerate_group(n):
        below = _bruhat_downset(w)
        for x in enumerate_group(n):
            assert bruhat_leq(x, w) == (x in below), (x, w)


def test_bruhat_poset_basics():
    w0 = longest_element(4)
    for w in enumerate_group(4):
        assert bruhat_leq(w, w)
        assert bruhat_leq(identity(4), w)
        assert bruhat_leq(w, w0)
    x, y = parse_permutation('1324'), parse_permutation('2134')
    assert not bruhat_leq(x, y) and not bruhat_leq(y, x)


def test_dominance_matrix_monotone():
    x, w = parse_permutation('1234'), parse_permutation('3412')
    dx, dw = dominance_matrix(x), dominance_matrix(w)
    assert all(a <= b for rx, rw in zip(dx, dw) for a, b in zip(rx, rw))
    assert dominance_matrix(w)[1] == (2, 2, 2, 1)


def test_shortest_coset_reps():
    for n in range(2, 6):
        group = list(enumerate_group(n))
        for J in _all_subsets(n):
            reps = list(enumerate_shortest_reps(n, J))
            sub = subgroup_elements(n, J)
            assert len(reps) * len(sub) == len(group)
            assert {z * w for z in sub for w in reps} == set(group)
            for w in group:
                brute = all(
                    (simple_reflection(n, j) * w).length > w.length
                    for j in J
                )
                assert is_shortest_coset_rep(w, J) == brute


def _all_subsets(n):
    letters = range(1, n)
    return [
        frozenset(c)
        for r in range(n)
        for c in itertools.combinations(letters, r)
    ]


def test_subgroup_elements():
    assert len(subgroup_elements(4, frozenset())) == 1
    assert len(subgroup_elements(4, frozenset({1, 3}))) == 4
    assert len(subgroup_elements(4, frozenset({1, 2, 3}))) == 24
    sub = subgroup_elements(5, frozenset({1, 2}))
    top = longest_element_parabolic(5, frozenset({1, 2}))
    assert max(w.length for w in sub) == top.length == 3
