"""Planted faults: the checks that read the production tables must
fail, naming the block, when one entry of a table is wrong."""

from types import SimpleNamespace

import pytest

from kostantpv import checks
from kostantpv.cup_diagrams import DEGREE_BITS, MaxParContext

REAL_BLOCK_TABLE = checks.block_table
REAL_PARABOLIC_SUMS = checks.parabolic_sums
CHECKS = dict(checks.ALL_CHECKS)


def _run(name):
    return CHECKS[name](5)


@pytest.mark.parametrize('k', [1, 2])
def test_block_table_fault(monkeypatch, k):
    # x = 2 is neither the identity nor the antidominant rep, so the
    # flipped thin flag also changes the thin non-trivial set
    def block_table(ctx):
        blk, rows, thin = REAL_BLOCK_TABLE(ctx)
        if (ctx.n, ctx.k) == (5, k):
            # drop the factor L_2 from the standard module at x = 2
            rows[2] = [f for f in rows[2] if f >> DEGREE_BITS != 2]
            thin[2] = not thin[2]
        return blk, rows, thin

    monkeypatch.setattr(checks, 'block_table', block_table)
    names = ['cross-oracle', 'thin-y', 'reconciliation']
    if k == 1:
        names.append('linear-quiver')
    for name in names:
        ok, detail = _run(name)
        assert not ok, name
        assert f'(5,{k})' in detail, (name, detail)


def test_parabolic_sums_fault(monkeypatch):
    J = MaxParContext(5, 2).J

    def parabolic_sums(n, J_, reps, targets):
        sums = REAL_PARABOLIC_SUMS(n, J_, reps, targets)
        if n == 5 and frozenset(J_) == J:
            sums[3, 4, 0] += 1
        return sums

    monkeypatch.setattr(checks, 'parabolic_sums', parabolic_sums)
    ok, detail = _run('cross-oracle')
    assert not ok
    assert '(5,2)' in detail, detail


def test_cross_oracle_compares_rep_order(monkeypatch):
    def block_table(ctx):
        blk, rows, thin = REAL_BLOCK_TABLE(ctx)
        return SimpleNamespace(words=blk.words[::-1]), rows, thin

    monkeypatch.setattr(checks, 'block_table', block_table)
    ok, detail = _run('cross-oracle')
    assert not ok
    assert '(2,1): coset reps != block reps' in detail, detail
