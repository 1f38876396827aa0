"""Acceptance gate: twelve named criteria, one pass/fail line each.

Each criterion runs the matching named check of checks.ALL_CHECKS at
its full documented bound, then enforces the documented time budget
where one exists.  Sub-millisecond budgets are measured on a warm cache
(best of three runs after a warmup call); wall budgets for the heavy
sweeps are measured cold within the test session.
"""

import time

from kostantpv import checks

# By check, in scoreboard order: (the bound, the time budget in seconds
# or None, whether the budget is measured warm).
CRITERIA = {
    'x-sets': (4, 0.001, True),
    'factorization': (6, 1.0, False),
    'case-chains': (6, 30.0, False),
    'positivity-ratio': (7, None, False),
    'worked-tables': (4, 0.001, True),
    'cross-oracle': (6, 300.0, False),
    'thin-y': (7, None, False),
    'branch-consistency': (7, None, False),
    'linear-quiver': (7, None, False),
    'socle-shadow': (6, None, False),
    'kl-properties': (5, 120.0, False),
    'reconciliation': (6, None, False),
}


def _timed(fn, bound):
    t0 = time.perf_counter()
    out = fn(bound)
    return time.perf_counter() - t0, out


def _criterion(number):
    name, check = checks.ALL_CHECKS[number - 1]
    bound, budget, warm = CRITERIA[name]
    # the declaration runs the check as far as the bound
    assert checks.CHECKS[number - 1][3] >= bound, name
    elapsed, (ok, detail) = _timed(check, bound)
    if warm:
        elapsed = min(_timed(check, bound)[0] for _ in range(3))
        detail += f'; {elapsed * 1e6:.0f}us warm'
    elif budget is not None:
        detail += f'; {elapsed:.2f}s'
    ok = ok and (budget is None or elapsed < budget)
    print(f'criterion {number}: {"PASS" if ok else "FAIL"} ({detail})')
    assert ok, f'criterion {number}: {detail}'


def test_criterion_01_seed_sets():
    _criterion(1)


def test_criterion_02_factorization_bijection():
    _criterion(2)


def test_criterion_03_case_chains():
    _criterion(3)


def test_criterion_04_positivity_ratio():
    _criterion(4)


def test_criterion_05_worked_tables():
    _criterion(5)


def test_criterion_06_cross_oracle():
    _criterion(6)


def test_criterion_07_thin_iff_Y():
    _criterion(7)


def test_criterion_08_branch_consistency():
    _criterion(8)


def test_criterion_09_linear_quiver():
    _criterion(9)


def test_criterion_10_socle_shadow():
    _criterion(10)


def test_criterion_11_kl_infrastructure():
    _criterion(11)


def test_criterion_12_reconciliation():
    _criterion(12)
