"""Blocks, transports, and the three-valued classifier."""

import contextlib
import io

import pytest

from kostantpv import _kernels, compositions
from kostantpv.compositions import (
    Composition,
    classify_all,
    is_thin_general,
    positive_sufficient,
    right_cell_of_longest_quotient,
)
from kostantpv.cup_diagrams import MaxParContext, is_thin, shortest_reps
from kostantpv.klcells import (
    admit_fill,
    parabolic_table,
    parabolic_verma_multiplicity,
)
from kostantpv.minimal_parabolic import MinParContext, is_kostant_positive_minimal
from kostantpv.permutations import (
    Permutation,
    coset_windows,
    enumerate_group,
    identity,
    is_shortest_coset_rep,
    longest_element,
    longest_element_parabolic,
    parse_permutation,
)
from kostantpv.tableaux import rsk
from oracles import (
    G_mu,
    _similar_compositions,
    enumerate_shortest_reps,
    omega,
    same_right_cell,
    similar,
    sorted_partition,
)


def test_composition_basics():
    mu = Composition((2, 1, 3, 2))
    assert mu.n == 8
    assert mu.blocks() == ((1, 2), (3,), (4, 5, 6), (7, 8))
    assert mu.simple_reflections() == frozenset({1, 4, 5, 7})
    assert mu.to_text() == '2,1,3,2'
    assert Composition.from_text('2,1,3,2') == mu
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition.from_text('2,,1')
    # only the text that to_text writes: int() alone takes each of these
    for text in ('2,+1,3,2', ' 2,1,3,2', '2, 1,3,2', '02,1,3,2', '2,1,3,2 ',
                 '2,1_0'):
        with pytest.raises(ValueError, match='malformed composition text'):
            Composition.from_text(text)


def test_similarity():
    assert sorted_partition(Composition((2, 1, 3, 2))) == (3, 2, 2, 1)
    assert similar(Composition((2, 1, 3, 2)), Composition((3, 2, 2, 1)))
    assert not similar(Composition((2, 2)), Composition((3, 1)))


def test_G_mu_sizes():
    assert len(G_mu(Composition((1, 1, 1, 1, 1)))) == 120
    assert len(G_mu(Composition((2, 2, 1, 2)))) == 6
    assert len(G_mu(Composition((3, 2)))) == 1
    assert len(G_mu(Composition((2, 2)))) == 2


def test_G_mu_preserves_block_order():
    for g in G_mu(Composition((2, 1, 2))):
        assert g(1) + 1 == g(2)
        assert g(4) + 1 == g(5)


def test_omega_examples():
    mu, nu = Composition((2, 1, 3, 2)), Composition((3, 2, 2, 1))
    assert omega(mu, nu).window == (4, 5, 8, 1, 2, 3, 6, 7)
    assert omega(mu, mu).is_identity
    assert omega(Composition((2, 2)), Composition((2, 2))).is_identity
    with pytest.raises(ValueError):
        omega(Composition((2, 2)), Composition((3, 1)))


def test_omega_inverse():
    mu, nu = Composition((2, 1, 3, 2)), Composition((3, 2, 2, 1))
    assert omega(mu, nu) * omega(nu, mu) == identity(8)
    assert omega(nu, mu) == omega(mu, nu).inverse


def test_positive_sufficient_maximal_closed_form():
    for n, k in [(4, 1), (4, 3), (5, 2), (6, 4)]:
        mu = Composition((k, n - k))
        pos = {
            w
            for w in enumerate_shortest_reps(n, mu.simple_reflections())
            if positive_sufficient(mu, w)
        }
        assert pos == {identity(n), omega(Composition((n - k, k)), mu)}


def test_positive_sufficient_rejects_non_reps():
    mu = Composition((2, 2))
    with pytest.raises(ValueError):
        positive_sufficient(mu, parse_permutation('2134'))
    with pytest.raises(ValueError):
        is_thin_general(mu, parse_permutation('2134'))


def test_right_cell_of_longest_quotient():
    mu = Composition((2, 1))
    cell = right_cell_of_longest_quotient(mu)
    assert {str(u) for u in cell} == {'132', '312'}
    for n in range(2, 6):
        for parts in _compositions_of(n):
            m = Composition(parts)
            seed = (
                longest_element_parabolic(n, m.simple_reflections())
                * longest_element(n)
            )
            cell = right_cell_of_longest_quotient(m)
            assert seed in cell
            for u in cell:
                assert same_right_cell(u, seed)
                assert is_shortest_coset_rep(u, m.simple_reflections())


def _compositions_of(n):
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in _compositions_of(n - first):
            out.append((first,) + rest)
    return out


def test_thin_matches_cup_engine():
    for n in range(2, 6):
        for k in range(1, n):
            ctx = MaxParContext(n, k)
            mu = Composition((k, n - k))
            for w in shortest_reps(ctx):
                assert is_thin_general(mu, w) == is_thin(ctx, w)


def test_classifier_matches_minimal_engine():
    for n in range(3, 6):
        for k in range(1, n):
            mu = Composition((1,) * (k - 1) + (2,) + (1,) * (n - k - 1))
            ctx = MinParContext(n, k)
            for w, verdict, _ in classify_all(mu):
                assert verdict != 'Unknown'
                assert (verdict == 'Positive') == \
                    is_kostant_positive_minimal(ctx, Permutation(w))


# -- the vectorized classifier against per-rep object loops


def _thin_by_loop(mu, w):
    """Thinness the slow way: one polynomial per u in the cell, until
    a second factor or a multiplicity above one shows up."""
    J = mu.simple_reflections()
    hits = 0
    for u in right_cell_of_longest_quotient(mu):
        m = parabolic_verma_multiplicity(J, w, u).at_one()
        if m != 0:
            hits += 1
            if m != 1 or hits > 1:
                return False
    return hits == 1


def test_classify_all_thinness_matches_object_loop():
    for n in range(1, 7):
        for parts in _compositions_of(n):
            mu = Composition(parts)
            rows = classify_all(mu)
            assert [w for w, _, _ in rows] == [w.window for w in sorted(
                enumerate_shortest_reps(n, mu.simple_reflections()))]
            for w, _, t in rows:
                assert t == _thin_by_loop(mu, Permutation(w)), (parts, w)


def test_thinness_is_filled_once_per_composition(monkeypatch):
    from kostantpv import cli, klcells

    # the 30 parabolic comp: and the 5 min:k requests at n = 6, served
    # in one process, fill each composition or its reverse once: the 6
    # palindromes other than 6 and 1^6, and one of each of 12 pairs
    real_table, real_fill = compositions.parabolic_table, _kernels.kl_fill
    tables, fills = [], []

    def table(parts, *wanted):
        assert parts not in tables, f'refilled the table of {parts}'
        tables.append(parts)
        return real_table(parts, *wanted)

    def fill(*args):
        fills.append(len(args[0]))
        return real_fill(*args)

    monkeypatch.setattr(compositions, 'parabolic_table', table)
    monkeypatch.setattr(_kernels, 'kl_fill', fill)
    compositions._thin.cache_clear()
    comps = [p for p in _compositions_of(6) if 1 < len(p) < 6]
    assert len(comps) == 30
    requests = [f'comp:{Composition(p).to_text()}' for p in comps]
    requests += [f'min:{k}' for k in range(1, 6)]
    with contextlib.redirect_stdout(io.StringIO()):
        for parabolic in requests:
            assert cli.main(['classify', '--n', '6', '--parabolic',
                             parabolic, '--format', 'tsv']) == 0, parabolic
    assert len(fills) == len(tables) == 18
    assert all(parts <= parts[::-1] for parts in tables)

    mu = Composition((2, 1, 2))
    first_reps, first_thin = compositions._thin(mu)

    def refuse(parts):
        raise AssertionError('refilled the table of a cached composition')

    monkeypatch.setattr(klcells, 'parabolic_table', refuse)
    monkeypatch.setattr(compositions, 'parabolic_table', refuse)
    reps, thin = compositions._thin(mu)
    assert reps == first_reps and thin is first_thin
    assert isinstance(reps, tuple) and isinstance(thin, tuple)
    assert is_thin_general(mu, Permutation(reps[0])) == bool(thin[0])


def _assert_mirror_matches_fill(parts):
    mu = Composition(parts)
    reps, thin = compositions._thin(mu)
    filled_reps, filled_thin = compositions._filled_thin(mu)
    assert reps == filled_reps == coset_windows(parts), parts
    for w, t, filled_t in zip(reps, thin, filled_thin, strict=True):
        assert t == filled_t, (parts, w)


def test_mirrored_thinness_matches_a_direct_fill():
    # _thin fills only the member of {mu, reversed mu} with the smaller
    # parts and reads the other through w -> w_0 w w_0
    compositions._thin.cache_clear()
    mirrored = 0
    for n in range(1, 7):
        for parts in _compositions_of(n):
            _assert_mirror_matches_fill(parts)
            mirrored += parts[::-1] < parts
    assert mirrored == 21
    # the 2,520 reps of min:3 at n = 7, read off those of min:4
    for parts in ((1, 1, 1, 2, 1, 1), (1, 1, 2, 1, 1, 1)):
        _assert_mirror_matches_fill(parts)


def _cell_fill_against_the_full_fill(parts, monkeypatch) -> int:
    """Hold the fill _filled_thin makes to the full table: each column
    it holds, entry by entry, and _thin to the thinness summed from the
    full table over the cell of w_0^mu w_0, rep by rep.  Returns the
    columns the fill holds."""
    mu = Composition(parts)
    reps, _, full = parabolic_table(parts)
    real_fill, fills = _kernels.kl_fill, []

    def fill(*args):
        fills.append(real_fill(*args))
        return fills[-1]

    with monkeypatch.context() as m:
        m.setattr(_kernels, 'kl_fill', fill)
        compositions._filled_thin(mu)
    [part] = fills
    filled = stored = 0
    for j, (col, want) in enumerate(zip(part, full, strict=True)):
        if col is not None:
            assert dict(col) == dict(want), (parts, reps[j])
            filled += 1
            stored += len(want)
    assert part.size == stored, parts
    total = [0] * len(reps)
    for w in compositions._quotient_cell(mu):
        for x, P in full[reps.index(w)].items():
            total[x] += sum(full.coefficients(P))
    got_reps, thin = compositions._thin(mu)
    assert got_reps == reps, parts
    for w, t, n in zip(reps, thin, total, strict=True):
        assert t == (n == 1), (parts, w)
    return filled


def test_thinness_fills_only_the_cell_and_what_it_reads(monkeypatch):
    compositions._thin.cache_clear()
    for n in range(1, 7):
        for parts in _compositions_of(n):
            _cell_fill_against_the_full_fill(parts, monkeypatch)
    # min:3 at n = 6: 84 of the 360 columns, not all of them
    assert _cell_fill_against_the_full_fill((1, 1, 2, 1, 1),
                                            monkeypatch) == 84
    for parts in ((1, 1, 1, 2, 1, 1), (1, 1, 2, 1, 1, 1)):
        _cell_fill_against_the_full_fill(parts, monkeypatch)


@pytest.mark.slow
def test_thinness_fills_only_the_cell_past_n6(monkeypatch):
    compositions._thin.cache_clear()
    count = 0
    for parts in _compositions_of(7):
        try:
            admit_fill(parts)
        except ValueError:
            continue
        _cell_fill_against_the_full_fill(parts, monkeypatch)
        count += 1
    assert count == 63


@pytest.mark.slow
def test_quotient_cell_is_the_rsk_fiber_at_n9():
    # every composition of 9: the Knuth walk against bumping all of S_9
    n = 9
    seeds = {}
    for parts in _compositions_of(n):
        m = Composition(parts)
        seed = (longest_element_parabolic(n, m.simple_reflections())
                * longest_element(n))
        seeds[parts] = rsk(seed).insertion
    fibers = {tableau: [] for tableau in seeds.values()}
    for w in enumerate_group(n):
        fiber = fibers.get(rsk(w).insertion)
        if fiber is not None:
            fiber.append(w.window)
    for parts, tableau in seeds.items():
        assert compositions._quotient_cell(Composition(parts)) == \
            tuple(fibers[tableau]), parts
    assert len(seeds) == 256


def test_thinness_refuses_a_cell_outside_the_reps(monkeypatch):
    mu = Composition((2, 2))
    compositions._thin.cache_clear()
    non_rep = parse_permutation('2134').window
    monkeypatch.setattr(compositions, '_quotient_cell',
                        lambda _: (non_rep,))
    with pytest.raises(AssertionError, match='leaves the shortest reps'):
        compositions._thin(mu)


def test_positive_set_matches_transport_loop():
    for n in range(1, 7):
        for parts in _compositions_of(n):
            mu = Composition(parts)
            gm = G_mu(mu)
            oms = [omega(nu, mu) for nu in _similar_compositions(mu)]
            for w in enumerate_shortest_reps(n, mu.simple_reflections()):
                want = any(g * om == w for om in oms for g in gm)
                assert positive_sufficient(mu, w) == want, (parts, w)


def test_classify_all_matches_per_rep_classifier():
    for n in range(1, 6):
        for parts in _compositions_of(n):
            mu = Composition(parts)
            for window, verdict, thin in classify_all(mu):
                w = Permutation(window)
                assert thin == is_thin_general(mu, w)
                if positive_sufficient(mu, w):
                    assert verdict == 'Positive'
                else:
                    assert verdict == ('Unknown' if thin else 'Negative')


def test_classify_all_yields_windows():
    # the rows carry the rep windows themselves, in window order, with
    # no Permutation built for them
    for n in range(1, 7):
        for parts in _compositions_of(n):
            rows = classify_all(Composition(parts))
            assert all(type(w) is tuple for w, _, _ in rows), parts
            assert tuple(w for w, _, _ in rows) == coset_windows(parts)
