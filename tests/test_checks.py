"""Planted faults: the checks that read the production tables must
fail, naming the block, when one entry of a table is wrong, and the
kl-properties oracles must name the property a planted entry of a
copied kl_table(4) breaks."""

import pytest

from kostantpv import _kernels, checks, groupindex, klcells
from kostantpv.cup_diagrams import factors
from kostantpv.minimal_parabolic import (
    MinParContext,
    factorize,
    positive_window,
)
from kostantpv.permutations import _raw, coset_windows

REAL_BLOCK_TABLE = checks.block_table
REAL_PARABOLIC_TABLE = checks.parabolic_table
CHECKS = dict(checks.ALL_CHECKS)


def _run(name, n_max=5):
    return CHECKS[name](n_max)


@pytest.mark.parametrize('k', [1, 2])
def test_block_table_fault(monkeypatch, k):
    # x = 2 is neither the identity nor the antidominant rep, so the
    # flipped thin flag also changes the thin non-trivial set
    def block_table(ctx):
        table = REAL_BLOCK_TABLE(ctx)
        if (ctx.n, ctx.k) == (5, k):
            # drop the factor L_2 from the standard module at x = 2
            pairs = list(factors(table.ncups))
            table.rows[2] = [f for f in table.rows[2] if pairs[f][0] != 2]
            table.thin[2] = not table.thin[2]
        return table

    monkeypatch.setattr(checks, 'block_table', block_table)
    names = ['cross-oracle', 'thin-y', 'reconciliation']
    if k == 1:
        names.append('linear-quiver')
    for name in names:
        ok, detail = _run(name)
        assert not ok, name
        assert f'(5,{k})' in detail, (name, detail)


def test_parabolic_table_fault(monkeypatch):
    def parabolic_table(parts):
        windows, lengths, S = REAL_PARABOLIC_TABLE(parts)
        if parts == (2, 3):
            # one more q^0 in S_{x,w} at x = 3, w = 4
            cols = [dict(col) for col in S]
            cols[4][3] = cols[4].get(3, 0) + 1
            S = type(S)(cols, S.ncoef)
        return windows, lengths, S

    monkeypatch.setattr(checks, 'parabolic_table', parabolic_table)
    ok, detail = _run('cross-oracle')
    assert not ok
    assert '(5,2)' in detail, detail


def test_cross_oracle_builds_no_group_index_and_no_kl_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError('cross-oracle built a whole-group table')

    monkeypatch.setattr(groupindex.GroupIndex, '__init__', refuse)
    monkeypatch.setattr(groupindex, 'group_index', refuse)
    monkeypatch.setattr(klcells, 'kl_table', refuse)
    monkeypatch.setattr(checks, 'kl_table', refuse)
    ok, detail = _run('cross-oracle', 6)
    assert ok, detail
    assert detail == '1262 pairs agree, n <= 6'


def test_cross_oracle_builds_one_coset_index_per_fill(monkeypatch):
    # the lengths come with the table: every coset_index call lists its
    # windows through klcells.coset_windows
    real_windows, real_fill = klcells.coset_windows, _kernels.kl_fill
    index, fills = [], []

    def listing(parts):
        index.append(parts)
        return real_windows(parts)

    def fill(*args):
        fills.append(len(args[0]))
        return real_fill(*args)

    monkeypatch.setattr(klcells, 'coset_windows', listing)
    monkeypatch.setattr(_kernels, 'kl_fill', fill)
    ok, detail = _run('cross-oracle', 6)
    assert ok, detail
    # one fill for each (n, k) with 1 <= k < n <= 6
    assert len(index) == len(fills) == 15


def test_positive_window_is_the_minimal_theorem():
    # the rule positivity-ratio counts by, on every rep of every min:k
    # with n <= 7
    count = 0
    for n in range(2, 8):
        for k in range(1, n):
            ctx = MinParContext(n, k)
            for w in coset_windows(ctx.parts):
                assert positive_window(w, k) == \
                    factorize(ctx, _raw(w)).positive, (n, k, w)
                count += 1
    # (n - 1) values of k, n! / 2 reps each
    assert count == 17203


def test_cross_oracle_compares_rep_order(monkeypatch):
    def block_table(ctx):
        table = REAL_BLOCK_TABLE(ctx)
        return table._replace(words=table.words[::-1])

    monkeypatch.setattr(checks, 'block_table', block_table)
    ok, detail = _run('cross-oracle')
    assert not ok
    assert '(2,1): coset reps != block reps' in detail, detail


def _planted_kl4(x, w, coeffs):
    """A copy of kl_table(4) with P_{x,w} (windows as text) set to the
    q-coefficients coeffs, or taken out where they are all zero."""
    P = klcells.kl_table(4)
    at = klcells.whole_group(4)[1]
    cols = [dict(col) for col in P]
    xi, wi = (at[tuple(map(int, t))] for t in (x, w))
    cols[wi][xi] = sum(c << _kernels.BITS * d for d, c in enumerate(coeffs))
    if not cols[wi][xi]:
        del cols[wi][xi]
    return type(P)(cols, P.ncoef)


@pytest.mark.parametrize('x, w, coeffs, message', [
    # P_{1234,2314} = 1 becomes 2: its inverse 3124 keeps 1
    ('1234', '2314', [2], 'n=4: inverse symmetry'),
    # s_1 is not below s_2 s_3
    ('2134', '1342', [1], 'n=4: nonzero below Bruhat'),
    # a cover allows degree 0 alone
    ('1234', '2134', [1, 1], 'n=4: degree bound violated'),
], ids=['inverse', 'bruhat', 'degree'])
def test_kl_table_identities_name_a_planted_fault(x, w, coeffs, message):
    assert checks._kl_table_problems(4, klcells.kl_table(4)) == []
    assert message in checks._kl_table_problems(4, _planted_kl4(x, w, coeffs))


def test_mu_graph_cells_name_a_zeroed_mu():
    # without mu(1243, 1342) = 1, nothing leads from 1342 or 2341 back
    # to 1243, and their left cell splits in two
    assert checks._cells_against_mu_graph(4, klcells.kl_table(4)) == []
    planted = _planted_kl4('1243', '1342', [])
    assert checks._cells_against_mu_graph(4, planted) == \
        ['S_4 left cells: graph != tableau']


# The sizes past its selftest top at which each check's problems(n) is
# run here: mult --engine both serves every (n, k) up to n = 13, and
# classify comp: every (k, n - k) the KL fill admits; at n = 12 the cup
# engine and the KL tables agree on 2,704,154 pairs (x, y), 69,781 of
# them with a factor.  x-sets and worked-tables hold at (4, 2) alone.
PAST_THE_TOPS = {
    'factorization': (7,),
    'case-chains': (7, 8),
    'positivity-ratio': (8,),
    'cross-oracle': range(7, 13),
    'thin-y': range(8, 13),
    'branch-consistency': range(8, 13),
    'linear-quiver': range(8, 13),
    'socle-shadow': (7,),
    'kl-properties': (6,),
    'reconciliation': (7,),
}


def test_oracles_at_the_sizes_the_cli_serves():
    for name, problems, _, top, _ in checks.CHECKS:
        for n in PAST_THE_TOPS.get(name, ()):
            assert n > top, (name, n)
            assert problems(n) == [], (name, n)
    # the maximal part of reconciliation, as far as cross-oracle
    for n in range(8, 13):
        assert checks._maximal_reconciliation_problems(n) == [], n
