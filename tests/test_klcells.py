"""Kazhdan-Lusztig tables, graded multiplicities, and cells."""

import itertools
import random
from functools import lru_cache

import numpy as np
import pytest

from kostantpv.compositions import Composition, _quotient_cell
from kostantpv.cup_diagrams import MaxParContext, block_table, shortest_reps
from kostantpv import _kernels, klcells
from kostantpv._kernels import BITS
from kostantpv.klcells import (
    coset_index,
    held_table,
    is_small_cell_member,
    kl_polynomial,
    kl_table,
    left_cell_key,
    parabolic_table,
    parabolic_verma_multiplicity,
    right_cell_key,
    verma_multiplicity,
)
from kostantpv.groupindex import group_index
from kostantpv.laurent import LaurentPolynomial
from kostantpv.permutations import (
    enumerate_group,
    identity,
    longest_element,
    longest_element_parabolic,
    parse_permutation,
    simple_reflection,
)
from kostantpv.tableaux import rsk
from oracles import (
    _frozen,
    coset_reps,
    dense_degrees,
    dense_table,
    enumerate_shortest_reps,
    is_involution,
    iter_reduced_words,
    mul,
    parabolic_sums,
    penultimate_cell,
    rank,
    same_left_cell,
    same_right_cell,
    same_two_sided_cell,
    small_cell,
    sparse_parabolic_sums,
    wide,
)


def _q(*coeffs):
    """The polynomial in q with ascending coefficients coeffs."""
    return LaurentPolynomial(enumerate(coeffs))


def test_known_polynomials():
    e = identity(4)
    P = kl_polynomial
    assert P(e, parse_permutation('3412')) == _q(1, 1)
    assert P(e, parse_permutation('4231')) == _q(1, 1)
    assert P(parse_permutation('1324'), parse_permutation('3412')) == _q(1, 1)
    assert P(e, longest_element(4)) == _q(1)
    assert P(parse_permutation('2134'), parse_permutation('2134')) == _q(1)
    assert P(parse_permutation('3412'), parse_permutation('1324')) == _q()


def test_kl_polynomial_wrapper():
    p = kl_polynomial(identity(4), parse_permutation('3412'))
    assert p == LaurentPolynomial(((0, 1), (1, 1)))
    assert p.at_one() == 2
    assert kl_polynomial(parse_permutation('3412'), identity(4)).is_zero()


def test_held_tables_stay_within_the_fill_bound(monkeypatch):
    # 2,2 counts 6 * 7 * 3 = 126 bytes, 3,1 and 1,3 4 * 5 * 2 = 40 each:
    # two fit under 166, three do not, and the least recently used goes
    monkeypatch.setattr(klcells, 'MAX_FILL_BYTES', 166)
    monkeypatch.setattr(klcells, '_HELD_TABLES', {})
    first = held_table((2, 2))
    held_table((3, 1))
    assert held_table((2, 2)) is first
    assert list(klcells._HELD_TABLES) == [(3, 1), (2, 2)]
    held_table((1, 3))
    assert list(klcells._HELD_TABLES) == [(2, 2), (1, 3)]
    # the bound that drops a held table refuses a fill over it, and a
    # refused fill is not held
    monkeypatch.setattr(klcells, 'MAX_FILL_BYTES', 125)
    klcells._HELD_TABLES.clear()
    with pytest.raises(ValueError, match='over its limit of 125 bytes'):
        held_table((2, 2))
    assert klcells._HELD_TABLES == {}


def test_table_ceiling():
    # S_7 is over the fill's own bound, MAX_FILL_BYTES
    with pytest.raises(ValueError, match='over its limit'):
        kl_table(7)
    with pytest.raises(ValueError, match='n must be positive'):
        kl_table(0)


def test_parabolic_table_refuses_before_listing_a_window(monkeypatch):
    def refuse(parts):
        raise AssertionError(f'listed the reps of {parts}')

    monkeypatch.setattr(klcells, 'coset_windows', refuse)
    # S_7, 5,3,2 (2,520 reps, 16 coefficients) and 1,2519 (2,520 reps
    # of length up to 2,519)
    for parts in ((1,) * 7, (5, 3, 2), (1, 2519)):
        with pytest.raises(ValueError, match='over its limit'):
            parabolic_table(parts)
    # the largest table admitted goes on to list its reps
    with pytest.raises(AssertionError, match='listed the reps'):
        parabolic_table((2, 2, 2, 2))


def test_parabolic_table_builds_one_coset_index(monkeypatch):
    # every coset_index call lists its windows through
    # klcells.coset_windows
    real = klcells.coset_windows
    calls = []

    def listing(parts):
        calls.append(parts)
        return real(parts)

    for parts in ((1,), (2, 1), (1, 2, 1, 2), (3, 3), (1,) * 5):
        want = klcells.coset_index(parts)
        monkeypatch.setattr(klcells, 'coset_windows', listing)
        windows, lengths, _ = parabolic_table(parts)
        monkeypatch.setattr(klcells, 'coset_windows', real)
        assert calls == [parts]
        assert windows == want[0] and lengths == tuple(want[2])
        calls.clear()


def test_parabolic_table_refuses_a_wanted_window_before_the_fill(
        monkeypatch):
    def refuse(*args):
        raise AssertionError('filled a column')

    monkeypatch.setattr(_kernels, 'kl_fill', refuse)
    # 2134 is no shortest rep of 2,2: its value 2 comes before 1
    with pytest.raises(AssertionError,
                       match=r'\(2, 1, 3, 4\) leaves the shortest reps '
                             r'of \(2, 2\)'):
        parabolic_table((2, 2), ((2, 1, 3, 4),))


def test_grade_gives_an_int_for_a_power_of_q_and_refuses_the_rest():
    P, at = kl_table(4), klcells.whole_group(4)[1]
    e = at[(1, 2, 3, 4)]
    # P_{1234,2134} = 1, one length apart
    got = klcells.grade(P[at[(2, 1, 3, 4)]][e], 1)
    assert got == 1 and type(got) is int
    # q^2 at shift 5 is v^1
    got = klcells.grade(1 << 2 * BITS, 5)
    assert got == 1 and type(got) is int
    # P_{1234,3412} = 1 + q, 2 and 1 + q^2 are no single power of q: no
    # maximal parabolic's table holds one
    one_plus_q = P[at[(3, 4, 1, 2)]][e]
    assert _kernels.Table.coefficients(one_plus_q) == [1, 1]
    for entry in (one_plus_q, 2, 1 | 1 << 2 * BITS):
        with pytest.raises(ArithmeticError, match='no single power of q'):
            klcells.grade(entry, 4)


def test_graded_row_is_the_row_mult_prints():
    # the degrees of 1324 in the README's classify --n 4 max:2 table
    want = [((1, 3, 2, 4), 0), ((1, 3, 4, 2), 1), ((3, 1, 2, 4), 1),
            ((3, 1, 4, 2), 2), ((3, 4, 1, 2), 1)]
    for table in (parabolic_table((2, 2)), held_table((2, 2))):
        row = klcells.graded_row(table, (1, 3, 2, 4))
        assert row == want
        assert all(type(d) is int for _, d in row)


def test_table_is_read_only():
    P = kl_table(4)
    with pytest.raises(TypeError):
        P[0] = {}
    with pytest.raises(TypeError):
        P[0][0] = 2
    assert P[0] == {0: 1}


def test_verma_multiplicity():
    e = identity(3)
    s1 = parse_permutation('213')
    assert verma_multiplicity(e, e) == LaurentPolynomial.one()
    assert verma_multiplicity(e, s1) == LaurentPolynomial.monomial(1, 1)
    assert verma_multiplicity(s1, e).is_zero()
    w0 = longest_element(3)
    for x in enumerate_group(3):
        m = verma_multiplicity(x, w0)
        assert m == LaurentPolynomial.monomial(1, w0.length - x.length)


def test_parabolic_conventions():
    J = frozenset({1})
    e = identity(3)
    y = parse_permutation('312')
    # the z-term is shifted by l(z); unshifted, this pair gives v^2 - v
    assert parabolic_verma_multiplicity(J, e, y).is_zero()


def test_parabolic_rejects_non_reps():
    J = frozenset({1})
    s1 = parse_permutation('213')
    e = identity(3)
    with pytest.raises(ValueError):
        parabolic_verma_multiplicity(J, s1, e)
    with pytest.raises(ValueError):
        parabolic_verma_multiplicity(J, e, s1)


def test_parabolic_shifted_is_graded_nonnegative():
    J = frozenset({1, 3})
    reps = [w for w in enumerate_group(4)
            if not ({1, 3} & w.left_descents())]
    for x in reps:
        for y in reps:
            m = parabolic_verma_multiplicity(J, x, y)
            assert m.is_nonnegative(), (x, y, m)


def test_cells_match_tableaux():
    a, b = parse_permutation('132'), parse_permutation('312')
    assert same_right_cell(a, b)
    assert not same_left_cell(a, b)
    assert same_left_cell(a, parse_permutation('231'))
    assert not same_left_cell(a, parse_permutation('213'))
    assert same_two_sided_cell(a, b)
    for w in enumerate_group(4):
        assert right_cell_key(w) == rsk(w).insertion
        assert left_cell_key(w) == rsk(w).recording


def test_involutions():
    for w in enumerate_group(4):
        assert is_involution(w) == (w * w).is_identity


def test_duflo_property_small_n():
    for n in range(2, 5):
        for key_fn in (left_cell_key, right_cell_key):
            cells = {}
            for w in enumerate_group(n):
                cells.setdefault(key_fn(w), []).append(w)
            for members in cells.values():
                assert sum(1 for w in members if is_involution(w)) == 1


def _small_by_peeling(w):
    """Small-cell membership by descent peeling: a reduced word is unique
    iff at every stage there is exactly one right descent."""
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


def test_small_cell():
    assert {str(w) for w in small_cell(3)} == {'132', '213', '231', '312'}
    for n in range(2, 6):
        cell = small_cell(n)
        assert len(cell) == (n - 1) ** 2
        for w in cell:
            assert rsk(w).shape == (n - 1, 1)
            assert is_small_cell_member(w)
        outside = set(enumerate_group(n)) - set(cell)
        for w in outside:
            assert not is_small_cell_member(w)


def test_small_cell_shape_matches_peeling():
    for n in range(1, 8):
        for w in enumerate_group(n):
            assert is_small_cell_member(w) == _small_by_peeling(w), w


def test_small_cell_is_unique_reduced_words():
    # whether a word is unique needs no more than two of them
    for n in range(1, 7):
        for w in enumerate_group(n):
            two = list(itertools.islice(iter_reduced_words(w), 2))
            assert is_small_cell_member(w) == (
                not w.is_identity and len(two) == 1), w


def test_penultimate_cell():
    for n in range(2, 6):
        w0 = longest_element(n)
        cell = penultimate_cell(n)
        assert {u * w0 for u in small_cell(n)} == set(cell)
        assert {w0 * u for u in small_cell(n)} == set(cell)
        for w in cell:
            assert rsk(w).shape == (2,) + (1,) * (n - 2)


# -- the index-space parabolic alternating sum against the per-pair oracle


def test_group_index_matches_objects():
    # every w with n <= 6: inverse, length, w s (rmul) and s w (lmul),
    # and S_1 has no generator rows
    for n in range(1, 7):
        g = group_index(n)
        perms = list(enumerate_group(n))
        assert [g.perm(i) for i in range(g.N)] == perms
        assert g.inverse.tolist() == [g.idx(w.inverse) for w in perms]
        assert g.lengths.tolist() == [w.length for w in perms]
        gens = [simple_reflection(n, s) for s in range(1, n)]
        assert g.rmul.shape == g.lmul.shape == (n - 1, g.N)
        assert g.rmul.tolist() == [[g.idx(w * s) for w in perms]
                                   for s in gens]
        assert g.lmul.tolist() == [[g.idx(s * w) for w in perms]
                                   for s in gens]


def test_rank_and_mul_match_objects():
    for n in range(1, 7):
        g = group_index(n)
        assert np.array_equal(rank(g.windows), np.arange(g.N))
        perms = list(enumerate_group(n))
        got = mul(g, np.arange(g.N)[:, None], np.arange(g.N)[None, :])
        want = [[g.index[(a * b).window] for b in perms] for a in perms]
        assert np.array_equal(got, want), n


def _subsets(n):
    """Every J inside 1..n-1, i.e. every composition of n."""
    return [frozenset(J) for r in range(n)
            for J in itertools.combinations(range(1, n), r)]


def _parts(n, J):
    """The composition of n whose Levi is W_J."""
    cuts = [0, *sorted(set(range(1, n)) - J), n]
    mu = Composition(tuple(b - a for a, b in zip(cuts, cuts[1:])))
    assert mu.simple_reflections() == J
    return mu.parts


def _as_polynomial(g, coeffs, w, y):
    """v^{l(y)-l(w)} S(v^{-2}) for one entry S of parabolic_sums."""
    return LaurentPolynomial.from_q_coeffs(
        coeffs.tolist(), vshift=int(g.lengths[y] - g.lengths[w]))


def test_parabolic_sums_match_oracle_exhaustive():
    for n in range(1, 6):
        g = group_index(n)
        for J in _subsets(n):
            reps = coset_reps(g, J)
            assert [g.perm(i) for i in reps] == \
                sorted(enumerate_shortest_reps(n, J))
            sums = parabolic_sums(n, J, reps, reps)
            for a, w in enumerate(reps):
                for b, y in enumerate(reps):
                    want = parabolic_verma_multiplicity(
                        J, g.perm(w), g.perm(y))
                    assert _as_polynomial(g, sums[a, b], w, y) == want, \
                        (n, sorted(J), w, y)


def test_parabolic_sums_match_oracle_seeded_n6():
    rng = random.Random(6)
    g = group_index(6)
    for J in _subsets(6):
        reps = coset_reps(g, J)
        ws = rng.sample(list(reps), min(4, len(reps)))
        ys = rng.sample(list(reps), min(6, len(reps)))
        sums = parabolic_sums(6, J, ws, ys)
        for a, w in enumerate(ws):
            for b, y in enumerate(ys):
                want = parabolic_verma_multiplicity(
                    J, g.perm(w), g.perm(y))
                assert _as_polynomial(g, sums[a, b], w, y) == want, \
                    (sorted(J), w, y)


def test_parabolic_sums_accumulate_in_int32():
    g = group_index(6)
    J = frozenset(range(1, 6))
    sums = parabolic_sums(6, J, coset_reps(g, J), np.arange(g.N))
    assert sums.dtype == np.int32


# -- the fill over the shortest reps against the whole-group table and
# against the cup engine


def test_parabolic_table_matches_parabolic_sums():
    count = 0
    for n in range(1, 7):
        g = group_index(n)
        for J in _subsets(n):
            windows, lengths, S = parabolic_table(_parts(n, J))
            reps = coset_reps(g, J)
            assert windows == tuple(g.perm(i).window for i in reps)
            assert lengths == tuple(g.lengths[reps].tolist())
            sums = parabolic_sums(n, J, reps, reps)
            ncoef = S.ncoef
            assert np.array_equal(dense_table(S), sums[:, :, :ncoef]), \
                (n, sorted(J))
            assert not sums[:, :, ncoef:].any(), (n, sorted(J))
            count += 1
    assert count == 63


@pytest.fixture(scope='module')
def s7_table():
    """(P, windows, lengths): the KL table of S_7, filled once, and the
    window and length of each of its positions."""
    windows, _, lengths, mul = coset_index((1,) * 7)
    return _kernels.kl_fill(lengths, mul, 11), windows, lengths


# The largest admitted table of each number of parts of 7.
S7_LARGEST = [(4, 3), (3, 2, 2), (2, 2, 2, 1), (2, 2, 1, 1, 1),
              (2, 1, 1, 1, 1, 1)]


@pytest.mark.parametrize('parts', S7_LARGEST + [
    pytest.param(_parts(7, J), marks=pytest.mark.slow)
    for J in _subsets(7) if J and _parts(7, J) not in S7_LARGEST])
def test_parabolic_table_matches_the_s7_sums(s7_table, parts):
    # past S_6 the dense oracle stops: each table against the alternating
    # sum over the S_7 table, the five largest by default and every
    # composition of 7 but 1^7 under -m slow
    reps, _, S = parabolic_table(parts)
    got = {reps[j]: {reps[i]: wide(Q) for i, Q in col.items()}
           for j, col in enumerate(S)}
    assert got == sparse_parabolic_sums(*s7_table, parts)


def test_parabolic_table_without_levi_is_kl_table():
    for n in range(1, 7):
        windows, _, S = parabolic_table((1,) * n)
        assert windows == tuple(w.window for w in enumerate_group(n))
        assert S == kl_table(n), n


def test_parabolic_table_matches_cup_degrees_to_n8():
    # a cup degree c at (x, y) is the single term v^c of
    # v^{l(y)-l(x)} S(v^{-2}), i.e. S = q^d with 2d = l(y) - l(x) - c;
    # no cup is a zero S
    for n in range(2, 9):
        g = group_index(n)
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            windows, got_lengths, S = parabolic_table((k, n - k))
            assert windows == tuple(w.window for w in shortest_reps(ctx))
            deg = dense_degrees(block_table(ctx))
            lengths = g.lengths[[g.index[w] for w in windows]]
            assert got_lengths == tuple(lengths.tolist()), (n, k)
            S = dense_table(S)
            d, odd = np.divmod(lengths[None, :] - lengths[:, None] - deg, 2)
            cup = deg >= 0
            assert not (cup & ((odd != 0) | (d < 0))).any(), (n, k)
            want = np.zeros_like(S)
            x, y = np.nonzero(cup)
            want[x, y, d[x, y]] = 1
            assert np.array_equal(S, want), (n, k)


# -- cells: the right cells of all of S_n by RSK, the oracle that the
# classifier's quotient cell (found by Knuth moves) is held to


@lru_cache(maxsize=None)
def right_cells(n: int) -> dict:
    """Right cell key -> group indices of the cell, in window order."""
    g = group_index(n)
    cells: dict = {}
    for i in range(g.N):
        cells.setdefault(right_cell_key(g.perm(i)), []).append(i)
    return {key: _frozen(np.array(c, dtype=np.int64))
            for key, c in cells.items()}


def test_right_cells_partition_the_group():
    for n in range(1, 6):
        g = group_index(n)
        cells = right_cells(n)
        members = np.sort(np.concatenate(list(cells.values())))
        assert np.array_equal(members, np.arange(g.N))
        for key, cell in cells.items():
            assert list(cell) == sorted(cell)
            assert all(right_cell_key(g.perm(i)) == key for i in cell)


def test_quotient_cell_matches_the_rsk_partition():
    count = 0
    for n in range(1, 9):
        g = group_index(n)
        for J in _subsets(n):
            mu = Composition(_parts(n, J))
            seed = longest_element_parabolic(n, J) * longest_element(n)
            cell = _quotient_cell(mu)
            assert isinstance(cell, tuple)
            assert cell == tuple(
                g.perm(i).window for i in right_cells(n)[right_cell_key(seed)])
            count += 1
    assert count == 255
