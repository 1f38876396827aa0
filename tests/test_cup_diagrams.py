"""Weight words, cup diagrams, orientations, and the maximal case."""

import itertools
import math
import random

import pytest

from kostantpv import cup_diagrams
from kostantpv.cup_diagrams import (
    MAX_ROW_FACTORS,
    MAX_TABLE_FACTORS,
    CupDiagram,
    MaxParContext,
    OrientedCupDiagram,
    _words,
    antidominant_rep,
    block_table,
    d_of,
    enumerate_admissible,
    enumerate_oriented,
    factors,
    graded_multiplicity,
    in_Y,
    is_kostant_positive_maximal,
    is_positive_word,
    is_thin,
    labeller,
    phi,
    phi_inverse,
    planar_diagrams,
    row,
    shortest_reps,
)
from kostantpv.permutations import Permutation, identity, parse_permutation
from oracles import orient


def a_value(ctx: MaxParContext, w: Permutation) -> int:
    """Cup count of d(Phi(w)) = Lusztig's a-function on the block."""
    return len(d_of(phi(ctx, w)).diagram.cups)


def test_context():
    ctx = MaxParContext(5, 2)
    assert ctx.m == 3 and ctx.a == 2
    assert ctx.J == frozenset({1, 3, 4})
    with pytest.raises(ValueError):
        MaxParContext(5, 5)
    with pytest.raises(ValueError):
        MaxParContext(2, 0)


def test_words_outside_the_block_are_refused():
    ctx = MaxParContext(4, 2)
    assert phi_inverse(ctx, '^v^v') == parse_permutation('1324')
    assert in_Y(ctx, '^v^v') is False
    diagram = d_of('vv^^').diagram
    assert OrientedCupDiagram(diagram, '^v^v').degree == 1
    for bad in ('^x^v', 'vvvv', '^^^^', '', '^v^', '^v^vv', '^^vvv'):
        with pytest.raises(ValueError):
            phi_inverse(ctx, bad)
        with pytest.raises(ValueError):
            in_Y(ctx, bad)
        with pytest.raises(ValueError):
            OrientedCupDiagram(diagram, bad)
    # a foreign letter is refused even where no cup reads it
    with pytest.raises(ValueError, match='only'):
        OrientedCupDiagram(d_of('^^vv').diagram, '^x^v')


def test_phi_round_trip():
    for n in range(2, 7):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            words = _words(ctx)
            assert len(words) == _binomial(n, k)
            reps = shortest_reps(ctx)
            assert len(reps) == len(words)
            for w in reps:
                assert phi_inverse(ctx, phi(ctx, w)) == w
            for word in words:
                assert phi(ctx, phi_inverse(ctx, word)) == word


def _binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_extreme_words():
    ctx = MaxParContext(4, 2)
    assert phi(ctx, identity(4)) == '^^vv'
    anti = antidominant_rep(ctx)
    assert anti.window == (3, 4, 1, 2)
    assert phi(ctx, anti) == 'vv^^'


def test_d_of_examples():
    d = d_of('^^vv')
    assert d.diagram.cups == frozenset()
    assert d.diagram.strands == frozenset({1, 2, 3, 4})
    assert d.degree == 0
    nested = d_of('vv^^')
    assert nested.diagram.cups == frozenset({(2, 3), (1, 4)})
    assert nested.degree == 0


def test_cup_diagram_text_round_trip():
    d = d_of('vv^^vv^').diagram
    text = d.to_text()
    assert text == 'cups=(1,4),(2,3),(6,7);strands=5'


def test_cup_diagram_validation():
    with pytest.raises(ValueError):
        CupDiagram(frozenset({(1, 3), (2, 4)}), frozenset(), 4)
    with pytest.raises(ValueError):
        CupDiagram(frozenset({(1, 4)}), frozenset({2, 3}), 4)
    with pytest.raises(ValueError):
        CupDiagram(frozenset({(1, 2)}), frozenset({2, 3, 4}), 4)


def test_oriented_validation():
    d = d_of('vv^^').diagram
    with pytest.raises(ValueError):
        OrientedCupDiagram(d, 'vvv^')


def test_planar_diagrams_against_brute_force():
    for n in range(1, 8):
        brute = set()
        points = tuple(range(1, n + 1))
        for pairing in _all_pairings(points):
            cups = frozenset(pairing)
            used = {p for cup in pairing for p in cup}
            strands = frozenset(points) - used
            try:
                brute.add(CupDiagram(cups, strands, n))
            except ValueError:
                pass
        assert set(planar_diagrams(n)) == brute


def _all_pairings(points):
    out = [[]]
    for size in range(len(points) // 2 + 1):
        for pairs in itertools.combinations(
            itertools.combinations(points, 2), size
        ):
            flat = [p for cup in pairs for p in cup]
            if len(set(flat)) == len(flat):
                out.append(list(pairs))
    return out


def test_capping_matches_the_diagram_enumeration():
    # d_of is a bijection from the words onto the planar diagrams with at
    # most min(k, n - k) cups, and the only degree-0 admissible diagram
    for n in range(2, 8):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            words = _words(ctx)
            images = {d_of(word).diagram for word in words}
            assert len(images) == len(words)
            assert images == {
                d for d in planar_diagrams(n) if len(d.cups) <= ctx.a}
            for word in words:
                assert [o for o in enumerate_admissible(word)
                        if o.degree == 0] == [d_of(word)], word


def test_oriented_and_admissible_counts():
    assert len(enumerate_oriented('^v^v')) == 6
    assert len(enumerate_admissible('^v^v')) == 5
    degrees = sorted(o.degree for o in enumerate_admissible('^^vv'))
    assert degrees == [0, 1, 2]


def test_orient():
    nested = d_of('vv^^').diagram
    oriented = orient(nested, '^v^v')
    assert oriented is not None
    assert oriented.degree == 1
    assert orient(nested, '^^vv') is not None
    assert orient(d_of('^v^v').diagram, 'vv^^') is None


def test_graded_multiplicity_tables():
    ctx = MaxParContext(4, 2)
    e = identity(4)
    table_e = {
        str(y): graded_multiplicity(ctx, e, y)
        for y in shortest_reps(ctx)
        if graded_multiplicity(ctx, e, y) is not None
    }
    assert table_e == {'1234': 0, '1324': 1, '3412': 2}
    s2 = parse_permutation('1324')
    table_s2 = {
        str(y): graded_multiplicity(ctx, s2, y)
        for y in shortest_reps(ctx)
        if graded_multiplicity(ctx, s2, y) is not None
    }
    assert table_s2 == {
        '1324': 0, '3124': 1, '1342': 1, '3412': 1, '3142': 2
    }


def test_self_multiplicity():
    for n in range(2, 6):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            for w in shortest_reps(ctx):
                assert graded_multiplicity(ctx, w, w) == 0


def test_a_value():
    ctx = MaxParContext(4, 2)
    assert a_value(ctx, identity(4)) == 0
    assert a_value(ctx, antidominant_rep(ctx)) == 2
    for n in range(2, 6):
        for k in range(1, n):
            c = MaxParContext(n, k)
            assert a_value(c, antidominant_rep(c)) == c.a


def test_thin_list():
    ctx = MaxParContext(4, 2)
    thin = {str(w) for w in shortest_reps(ctx) if is_thin(ctx, w)}
    assert thin == {'1234', '1342', '3124', '3412'}


def test_Y_words():
    ctx = MaxParContext(5, 2)
    assert in_Y(ctx, '^^vvv')
    assert in_Y(ctx, 'vv^^v') is False
    assert len(_Y_words(ctx)) == 3
    assert _Y_words(MaxParContext(4, 2)) == \
        {'^^vv', '^vv^', 'v^^v', 'vv^^'}
    assert _Y_words(MaxParContext(4, 1)) == {'^vvv', 'vvv^'}


def _Y_words(ctx):
    return {w for w in _words(ctx) if in_Y(ctx, w)}


def test_positivity_dispatch():
    ctx = MaxParContext(4, 1)
    pos = {str(w) for w in shortest_reps(ctx)
           if is_kostant_positive_maximal(ctx, w)}
    assert pos == {'1234', '2341'}
    ctx52 = MaxParContext(5, 2)
    pos = {w for w in shortest_reps(ctx52)
           if is_kostant_positive_maximal(ctx52, w)}
    assert len(pos) == 3
    assert pos == {w for w in shortest_reps(ctx52)
                   if in_Y(ctx52, phi(ctx52, w))}


# The block table against the object layer it replaces on the hot path.


def _oracle_degree(ctx, x, y):
    ocd = orient(d_of(phi(ctx, y)).diagram, phi(ctx, x))
    return None if ocd is None else ocd.degree


def _oracle_a_value(ctx, w):
    return len(d_of(phi(ctx, w)).diagram.cups)


def _oracle_thin(ctx, w):
    word = phi(ctx, w)
    hits = 0
    for y in shortest_reps(ctx):
        diagram = d_of(phi(ctx, y)).diagram
        if len(diagram.cups) == ctx.a and orient(diagram, word) is not None:
            hits += 1
    return hits == 1


def _degrees(table) -> list:
    """Each row of the table as {y: the degree of L_y}."""
    pairs = list(factors(table.ncups))
    return [dict(map(pairs.__getitem__, row)) for row in table.rows]


def test_table_matches_object_layer_exhaustive():
    for n in range(2, 7):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            table = block_table(ctx)
            words, ncups, rows, thin = table
            reps = shortest_reps(ctx)
            label = labeller(ctx)
            assert len(reps) == len(words)
            for x, (w, degrees) in enumerate(zip(reps, _degrees(table))):
                assert phi(ctx, w) == words[x]
                assert label(words[x]) == str(w)
                assert rows[x] == sorted(set(rows[x]))
                assert ncups[x] == a_value(ctx, w) == \
                    _oracle_a_value(ctx, w)
                assert thin[x] == is_thin(ctx, w) == _oracle_thin(ctx, w)
                for y, v in enumerate(reps):
                    want = _oracle_degree(ctx, w, v)
                    assert degrees.get(y) == want
                    assert graded_multiplicity(ctx, w, v) == want, \
                        (n, k, w, v)


def test_thinness_matches_object_layer():
    for n in (7, 8):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            thin = block_table(ctx).thin
            for x, w in enumerate(shortest_reps(ctx)):
                assert thin[x] == is_thin(ctx, w) == _oracle_thin(ctx, w), \
                    (n, k, w)


def test_table_matches_object_layer_random():
    rng = random.Random(20230117)
    for n in range(7, 13):
        for _ in range(4):
            # a whole column, so that present factors are checked too
            ctx = MaxParContext(n, rng.randint(1, n - 1))
            table = block_table(ctx)
            reps = shortest_reps(ctx)
            y = rng.randrange(len(reps))
            assert table.ncups[y] == _oracle_a_value(ctx, reps[y])
            for x, (w, degrees) in enumerate(zip(reps, _degrees(table))):
                want = _oracle_degree(ctx, w, reps[y])
                assert degrees.get(y) == want, (n, ctx.k, w, reps[y])
        for _ in range(200):
            ctx = MaxParContext(n, rng.randint(1, n - 1))
            reps = shortest_reps(ctx)
            x, y = rng.choice(reps), rng.choice(reps)
            assert graded_multiplicity(ctx, x, y) == \
                _oracle_degree(ctx, x, y), (n, ctx.k, x, y)


def _table_rows(table) -> list:
    """Each row of block_table as row lists it: (word of y, degree)."""
    pairs = list(factors(table.ncups))
    return [[(table.words[y], d) for y, d in map(pairs.__getitem__, row)]
            for row in table.rows]


def test_rows_match_the_table():
    # row walks the matchings of one word; block_table turns cups round
    for n in range(2, 11):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            table = block_table(ctx)
            for word, listed, thin in zip(table.words, _table_rows(table),
                                          table.thin):
                assert row(ctx, word) == (listed, thin)


def _walk_against_oracles(ctx, w, rng, exhaustive):
    """row at w against orient and d_of: every listed factor, and every
    y (or 300 seeded y) for the factors left out and for thinness."""
    factors, thin = row(ctx, phi(ctx, w))
    assert [word for word, _ in factors] == \
        sorted({word for word, _ in factors})
    listed = dict(factors)
    sample = list(listed.items())
    if len(sample) > 300:
        sample = rng.sample(sample, 300)
    for word, d in sample:
        assert _oracle_degree(ctx, w, phi_inverse(ctx, word)) == d, \
            (ctx, w, word)
    reps = shortest_reps(ctx) if exhaustive else [
        phi_inverse(ctx, ''.join(rng.sample(
            '^' * ctx.k + 'v' * ctx.m, ctx.n))) for _ in range(300)]
    for y in reps:
        if phi(ctx, y) not in listed:
            assert _oracle_degree(ctx, w, y) is None, (ctx, w, y)
    if exhaustive:
        assert thin == _oracle_thin(ctx, w), (ctx, w)
    else:
        assert thin == in_Y(ctx, phi(ctx, w)), (ctx, w)
    return factors


def test_row_walk_matches_the_object_layer():
    # past the blocks the table test covers, up to the largest row
    rng = random.Random(20261019)
    for n in range(11, 21):
        # a seeded rep of a block small enough to check every y
        k = rng.choice([k for k in range(1, n) if math.comb(n, k) <= 2000])
        ctx = MaxParContext(n, k)
        _walk_against_oracles(ctx, rng.choice(shortest_reps(ctx)), rng, True)
        # the identity, the alternating word and a seeded word at the
        # middle k, against every listed factor and 300 seeded y
        ctx = MaxParContext(n, n // 2)
        words = ('^' * ctx.k + 'v' * ctx.m,
                 ('^v' * n)[:n] if n % 2 == 0 else 'v' + '^v' * ctx.k,
                 ''.join(rng.sample('^' * ctx.k + 'v' * ctx.m, n)))
        for word in words:
            factors = _walk_against_oracles(
                ctx, phi_inverse(ctx, word), rng, False)
            if word == words[1] and n % 2 == 0:
                # Catalan(k + 1)
                assert len(factors) == math.comb(n + 2, ctx.k + 1) \
                    // (ctx.k + 2)


def test_factor_count_is_the_table_size(monkeypatch):
    # the ceiling counts the factors from n and k, before the block is
    # built: the table's own size is admitted, one less is over the limit
    for n in range(2, 13):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            _, ncups, rows, _ = block_table(ctx)
            count = sum(map(len, rows))
            assert count == sum(2 ** c for c in ncups), (n, k)
            # every id factors lists sits in some row, as one shared int
            ids = list(itertools.chain(*rows))
            assert set(ids) == set(range(len(list(factors(ncups)))))
            assert len(set(map(id, ids))) == len(set(ids)), (n, k)
            monkeypatch.setattr(cup_diagrams, 'MAX_TABLE_FACTORS', count)
            block_table(ctx)
            monkeypatch.setattr(cup_diagrams, 'MAX_TABLE_FACTORS', count - 1)
            with pytest.raises(ValueError, match=f'all {count} composition'):
                block_table(ctx)
            monkeypatch.undo()


def test_masks_past_62_positions():
    ctx = MaxParContext(64, 1)
    table = block_table(ctx)
    reps = shortest_reps(ctx)
    label = labeller(ctx)
    for x, (w, listed, degrees) in enumerate(
            zip(reps, _table_rows(table), _degrees(table))):
        word, thin = table.words[x], table.thin[x]
        assert phi(ctx, w) == word and label(word) == str(w)
        assert thin == _oracle_thin(ctx, w)
        assert row(ctx, word) == (listed, thin)
        for y, v in enumerate(reps):
            want = _oracle_degree(ctx, w, v)
            assert degrees.get(y) == want
            assert graded_multiplicity(ctx, w, v) == want


def test_reps_and_verdicts_come_from_the_words():
    for n in range(2, 11):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            label = labeller(ctx)
            for word, w in zip(block_table(ctx).words, shortest_reps(ctx)):
                assert w == phi_inverse(ctx, word)
                assert label(word) == str(w) and phi(ctx, w) == word
                assert is_positive_word(ctx, word) == \
                    is_kostant_positive_maximal(ctx, w), (n, k, word)


def test_table_rejects_non_reps():
    ctx = MaxParContext(4, 2)
    e = identity(4)
    for bad in (parse_permutation('2134'), identity(5)):
        with pytest.raises(ValueError):
            graded_multiplicity(ctx, bad, e)
        with pytest.raises(ValueError):
            graded_multiplicity(ctx, e, bad)
        with pytest.raises(ValueError):
            a_value(ctx, bad)
        with pytest.raises(ValueError):
            is_thin(ctx, bad)


def test_table_ceiling_refuses_before_allocating(monkeypatch):
    # the ceiling is counted from n and k, before any word is listed: it
    # refuses n = 19 at k = 8, 9, every block with a >= 16 and (64, 32),
    # and admits (18, 9), whose table is exactly the limit
    class Listed(Exception):
        pass

    def listing(ctx):
        raise Listed

    words = cup_diagrams._words(MaxParContext(18, 9))
    assert sum(1 << len(cup_diagrams._cap(w)[0]) for w in words) == \
        MAX_TABLE_FACTORS
    monkeypatch.setattr(cup_diagrams, '_words', listing)
    refused = [(19, 9), (19, 8), (64, 32)] + [
        (n, k) for n in range(32, 41) for k in range(16, n - 15)]
    for n, k in refused:
        with pytest.raises(ValueError, match='composition factors of the '
                           f'\\({n},{k}\\) block, over its limit'):
            block_table(MaxParContext(n, k))
    with pytest.raises(Listed):
        block_table(MaxParContext(18, 9))


def test_row_ceiling(monkeypatch):
    # the largest row of the blocks with n <= 20 is admitted, and a
    # limit one factor lower refuses it
    ctx, word = MaxParContext(20, 10), '^v' * 10
    assert len(row(ctx, word)[0]) == MAX_ROW_FACTORS
    limit = MAX_ROW_FACTORS - 1
    monkeypatch.setattr(cup_diagrams, 'MAX_ROW_FACTORS', limit)
    with pytest.raises(ValueError, match=f'over its limit of {limit} comp'):
        row(ctx, word)


def test_block_builds_without_word_or_diagram_objects(monkeypatch):
    def unusable(*args, **kwargs):
        raise AssertionError('the block built an object')

    for name in ('d_of', 'CupDiagram', 'OrientedCupDiagram', '_raw',
                 'shortest_reps'):
        monkeypatch.setattr(cup_diagrams, name, unusable)
    for n in range(2, 11):
        for k in range(1, n):
            block_table(MaxParContext(n, k))
    word = '^' * 7 + 'v' * 11
    factors, thin = row(MaxParContext(18, 7), word)
    assert factors[0] == (word, 0) and thin
