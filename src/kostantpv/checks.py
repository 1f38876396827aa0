r"""
Named consistency checks tying the three classification engines and
the supporting machinery together.

Each check is declared once, in CHECKS: a function listing the problems
it finds at one n, the first n and the top n that selftest runs it to
(x-sets and worked-tables at 4 alone, kl-properties to 5,
factorization, case-chains, cross-oracle, socle-shadow and
reconciliation to 6, positivity-ratio, thin-y, branch-consistency and
linear-quiver to 7), and the text of a pass.  ALL_CHECKS holds each as
a function of n_max returning (ok, detail): failures are collected and
reported, never thrown, so the selftest command can print a full
scoreboard.  The acceptance tests run the same functions at their tops,
and tier-1 runs each per-n function past its top.

cross-oracle, thin-y, linear-quiver and the maximal part of
reconciliation read the tables the CLI serves: the sparse rows and thin
column of cup_diagrams.block_table, and, for cross-oracle, the
klcells.parabolic_table that mult --engine kl reads, one per (n, k),
graded row by row as mult prints it.  positivity-ratio decides the
minimal-parabolic verdict on the windows of permutations.coset_windows
by positive_window, the rule is_kostant_positive_minimal reads, to
which reconciliation holds classify min:k rep by rep.

Two independent oracles live here because both the CLI selftest and
the test suite need them: an R-polynomial inversion oracle for
Kazhdan-Lusztig polynomials, computed on LaurentPolynomial in q, and
a mu-graph strongly-connected-component pass for cells, computed on
int bitsets.  The table properties (normalization, vanishing,
degree bound, both symmetries) are checked on the columns of
klcells.kl_table entry by entry, with the Bruhat order read from
dominance rows.  Like every command, selftest loads no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import le

from .bigrassmannian import (
    complement_bigrassmannians,
    is_bigrassmannian,
    socle_descriptor,
)
from .compositions import (
    Composition,
    classify_all,
    positive_sufficient,
)
from .cup_diagrams import (
    WEDGE,
    MaxParContext,
    _words,
    antidominant_rep,
    block_table,
    enumerate_admissible,
    enumerate_oriented,
    factors,
    graded_multiplicity,
    in_Y,
    is_kostant_positive_maximal,
    labeller,
    phi,
    shortest_reps,
)
from .klcells import (
    graded_row,
    kl_polynomial,
    kl_table,
    left_cell_key,
    parabolic_table,
    right_cell_key,
    whole_group,
)
from .laurent import LaurentPolynomial
from .minimal_parabolic import (
    MinParContext,
    case_analysis,
    enumerate_X,
    factorize,
    hat_G,
    is_kostant_positive_minimal,
    positive_window,
    tau,
)
from .permutations import (
    Permutation,
    _raw,
    bruhat_leq,
    coset_windows,
    dominance_matrix,
    enumerate_group,
    identity,
    longest_element,
    longest_element_parabolic,
    parse_permutation,
    simple_reflection,
    w0_conjugate,
)


def _x_set_problems(n: int) -> list:
    """The six minimal-parabolic seeds at (n, k) = (4, 2)."""
    problems = []
    plus, minus = enumerate_X(MinParContext(n, 2))
    want_plus = {parse_permutation(t) for t in ('2314', '1234', '1423')}
    want_minus = {parse_permutation(t) for t in ('2134', '1243', '2143')}
    if set(plus) != want_plus:
        problems.append(f'X+ = {sorted(str(w) for w in plus)}')
    if set(minus) != want_minus:
        problems.append(f'X- = {sorted(str(w) for w in minus)}')
    return problems


def _factorization_problems(n: int) -> list:
    """Unique factorization w = sigma tau covers all shortest reps."""
    problems = []
    for k in range(1, n):
        ctx = MinParContext(n, k)
        plus, minus = enumerate_X(ctx)
        taus = set(plus) | set(minus)
        ghat = hat_G(ctx)
        products = {g * t for g in ghat for t in taus}
        reps = set(map(_raw, coset_windows(ctx.parts)))
        if len(products) != len(ghat) * len(taus):
            problems.append(f'({n},{k}): collision in G x X')
        if products != reps:
            problems.append(f'({n},{k}): image is not the rep set')
        if len(reps) * 2 != math.factorial(n):
            problems.append(f'({n},{k}): |reps| != n!/2')
        for w in reps:
            f = factorize(ctx, w)
            if not (f.sigma in ghat and f.tau in taus
                    and f.sigma * f.tau == w):
                problems.append(f'({n},{k}): bad factorization of {w}')
                break
    return problems


def _case_chain_problems(n: int) -> list:
    """Predicted bigrassmannian chains match brute-force complements."""
    problems = []
    for k in range(1, n):
        ctx = MinParContext(n, k)
        s = simple_reflection(n, k)
        for i in range(1, n):
            for j in range(i + 2, n + 1):
                t = tau(ctx, i, j)
                predicted = set(case_analysis(ctx, i, j).predicted)
                if predicted != complement_bigrassmannians(s * t, t):
                    problems.append(f'({n},{k}) tau({i},{j}): chain mismatch')
                    continue
                if len(predicted) < 2:
                    problems.append(f'({n},{k}) tau({i},{j}): chain too short')
                descents = [b.right_descents() for b in predicted]
                if len(set(descents)) != len(descents):
                    problems.append(
                        f'({n},{k}) tau({i},{j}): repeated descent')
    return problems


def _ratio_problems(n: int) -> list:
    """Positive-to-negative count is (n-1) : (C(n,2)-(n-1)), any k."""
    problems = []
    expected = Fraction(n - 1, n * (n - 1) // 2 - (n - 1))
    for k in range(1, n):
        reps = coset_windows(MinParContext(n, k).parts)
        pos = sum(positive_window(w, k) for w in reps)
        neg = len(reps) - pos
        if Fraction(pos, neg) != expected:
            problems.append(f'({n},{k}): {pos}/{neg} != {expected}')
    return problems


def _worked_table_problems(n: int) -> list:
    """Diagram counts and both graded multiplicity tables at (4, 2)."""
    problems = []
    ctx = MaxParContext(n, 2)
    words = _words(ctx)
    if words != ('^^vv', '^v^v', '^vv^', 'v^^v', 'v^v^', 'vv^^'):
        problems.append(f'W(4,2) = {words}')
    if len(enumerate_oriented('^v^v')) != 6:
        problems.append('oriented count for ^v^v')
    if len(enumerate_admissible('^v^v')) != 5:
        problems.append('admissible count for ^v^v')
    degrees = sorted(o.degree for o in enumerate_admissible('^^vv'))
    if degrees != [0, 1, 2]:
        problems.append(f'degrees for ^^vv: {degrees}')
    for x_text, want in (
        ('1234', {'1234': 0, '1324': 1, '3412': 2}),
        ('1324', {'1324': 0, '3124': 1, '1342': 1, '3412': 1, '3142': 2}),
    ):
        x = parse_permutation(x_text)
        got = {}
        for y in shortest_reps(ctx):
            d = graded_multiplicity(ctx, x, y)
            if d is not None:
                got[str(y)] = d
        if got != want:
            problems.append(f'table for x={x_text}: {got}')
    return problems


def _degrees(table) -> list:
    """Each row of a block_table as {y: the degree of L_y}."""
    pairs = list(factors(table.ncups))
    return [dict(map(pairs.__getitem__, row)) for row in table.rows]


def _cross_oracle_problems(n: int) -> list:
    """Cup-diagram multiplicities equal the KL alternating sums, at each
    (n, k): the row mult prints (klcells.graded_row) has the single term
    v^c where a cup gives degree c, and no entry where no cup does; an
    entry that is no single power of q, which graded_row refuses, is a
    failure."""
    problems = []
    for k in range(1, n):
        table = block_table(MaxParContext(n, k))
        kl = parabolic_table((k, n - k))
        windows = kl[0]
        if [[v <= k for v in w] for w in windows] != \
                [[c == WEDGE for c in word] for word in table.words]:
            problems.append(f'({n},{k}): coset reps != block reps')
            continue
        try:
            got = {(x, y): g for x in windows for y, g in graded_row(kl, x)}
        except ArithmeticError as exc:
            problems.append(f'({n},{k}): {exc}')
            continue
        want = {(windows[x], windows[y]): c
                for x, degrees in enumerate(_degrees(table))
                for y, c in degrees.items()}
        bad = [p for p in got.keys() | want.keys()
               if got.get(p) != want.get(p)]
        if bad:  # the windows are in order, as are their positions
            x, y = map(windows.index, min(bad))
            problems.append(f'({n},{k}): {len(bad)} pairs differ, '
                            f'first x={table.words[x]} y={table.words[y]}')
    return problems


def _thinness_problems(n: int) -> list:
    """Thinness is exactly membership of Phi(w) in the Y set."""
    problems = []
    for k in range(1, n):
        ctx = MaxParContext(n, k)
        words, _, _, thin = block_table(ctx)
        for word, t in zip(words, thin):
            if t != in_Y(ctx, word):
                problems.append(f'({n},{k}) w={word}')
        if (n, k) == (4, 2):
            listed = set(map(labeller(ctx), compress(words, thin)))
            if listed != {'1234', '1342', '3124', '3412'}:
                problems.append(f'thin list at (4,2): {sorted(listed)}')
    return problems


def _branch_problems(n: int) -> list:
    """For k in {1, n-1} the closed form and the Y test agree: 2 positives."""
    problems = []
    for k in {1, n - 1}:
        ctx = MaxParContext(n, k)
        reps = shortest_reps(ctx)
        closed = {w for w in reps if is_kostant_positive_maximal(ctx, w)}
        via_y = {w for w in reps if in_Y(ctx, phi(ctx, w))}
        if not closed == via_y == {identity(n), antidominant_rep(ctx)}:
            problems.append(f'({n},{k}): {sorted(str(w) for w in closed)}')
    return problems


def _linear_quiver_problems(n: int) -> list:
    """At k = 1 the standard modules form a linear chain of length n:
    the standard at rep x has L_x at degree 0 and L_{x+1} at degree 1,
    and no other factor."""
    chain = [{x: 0, x + 1: 1} for x in range(n - 1)] + [{n - 1: 0}]
    if _degrees(block_table(MaxParContext(n, 1))) != chain:
        return [f'({n},1): not a two-step chain']
    return []


def _socle_shadow_problems(n: int) -> list:
    """Singleton socle descriptors are exactly the bigrassmannians."""
    return [f'n={n} w={w}' for w in enumerate_group(n)
            if (len(socle_descriptor(w)) == 1) != is_bigrassmannian(w)]


def _dominance(windows) -> list:
    """The dominance rows of each window, flattened: x <= y in Bruhat
    order exactly when each entry of x's is <= that of y's."""
    return [sum(dominance_matrix(_raw(w)), ()) for w in windows]


def _inverses(windows, at) -> list:
    """The position of the inverse of each window."""
    return [at[_raw(w).inverse.window] for w in windows]


def _kl_table_problems(n: int, P) -> list:
    """The properties of the KL table P of S_n (kl_table(n)), checked on
    its columns entry by entry: normalization P_ww = 1, vanishing off
    the Bruhat order, the degree bound 2d <= l(w) - l(x) - 1 for x != w,
    and the symmetries P_{x,w} = P_{x^-1,w^-1} and
    P_{x,w} = P_{w0 x w0, w0 w w0}."""
    problems = []
    windows, at, lengths, _ = whole_group(n)
    dom = _dominance(windows)
    entries = [(x, w, P.coefficients(p))
               for w, col in enumerate(P) for x, p in col.items()]
    if any(P.coefficients(col.get(w, 0)) != [1] for w, col in enumerate(P)):
        problems.append(f'n={n}: P_ww != 1')
    if not all(all(map(le, dom[x], dom[w])) for x, w, _ in entries):
        problems.append(f'n={n}: nonzero below Bruhat')
    if any(x != w and 2 * len(c) - 2 > lengths[w] - lengths[x] - 1
           for x, w, c in entries):
        problems.append(f'n={n}: degree bound violated')
    conjugate = [at[w0_conjugate(w)] for w in windows]
    for name, image in (('inverse', _inverses(windows, at)),
                        ('w0-conjugation', conjugate)):
        if any({image[x]: p for x, p in col.items()} != P[image[w]]
               for w, col in enumerate(P)):
            problems.append(f'n={n}: {name} symmetry')
    return problems


def _kl_problems(n: int) -> list:
    """Normalization, vanishing, degree bound, symmetries, both oracles
    (the R-polynomial inversion at n = 4), and one involution per
    one-sided cell, on one kl_table(n)."""
    P = kl_table(n)
    problems = _kl_table_problems(n, P)
    if n == 4:
        problems += _kl_against_r_oracle(n)
    return problems + _cells_against_mu_graph(n, P)


def _minimal_reconciliation_problems(n: int) -> list:
    """The verdicts of classify min:k against the minimal theorem, rep
    by rep."""
    problems = []
    for k in range(1, n):
        ctx = MinParContext(n, k)
        for window, verdict, _ in classify_all(Composition(ctx.parts)):
            w = _raw(window)
            positive = is_kostant_positive_minimal(ctx, w)
            if verdict != ('Positive' if positive else 'Negative'):
                problems.append(f'minimal ({n},{k}) w={w}: {verdict}')
    return problems


def _maximal_reconciliation_problems(n: int) -> list:
    """The verdicts of classify comp:k,n-k against the cup engine.  The
    sufficient condition finds the two positives of (k, k) alone; every
    Positive is thin and Kostant positive, and the Unknowns are the thin
    reps but the identity and the antidominant one."""
    problems = []
    if n % 2 == 0:
        k = n // 2
        mu = Composition((k, k))
        pos = {w for w in map(_raw, coset_windows(mu.parts))
               if positive_sufficient(mu, w)}
        w0J = longest_element_parabolic(n, mu.simple_reflections())
        if pos != {identity(n), w0J * longest_element(n)}:
            problems.append(f'(k,k) with k={k}: {len(pos)} positives')
    for k in range(1, n):
        ctx = MaxParContext(n, k)
        unknowns, suff = set(), set()
        for window, verdict, thin in classify_all(Composition((k, n - k))):
            w = _raw(window)
            if verdict == 'Positive':
                suff.add(w)
                if not thin:
                    problems.append(
                        f'maximal ({n},{k}) w={w}: positive but not thin')
            elif verdict == 'Unknown':
                unknowns.add(w)
        thin_nontrivial = {
            w for w, t in zip(shortest_reps(ctx), block_table(ctx).thin) if t
        } - {identity(n), antidominant_rep(ctx)}
        if unknowns != thin_nontrivial:
            problems.append(
                f'maximal ({n},{k}): unknowns != thin non-trivial set')
        if not all(is_kostant_positive_maximal(ctx, w) for w in suff):
            problems.append(f'maximal ({n},{k}): spurious positive')
    return problems


def r_polynomial(x: Permutation, w: Permutation,
                 _memo=None) -> LaurentPolynomial:
    """R_{x,w} as a polynomial in q (exponents are q-degrees), by the
    descent recursion.

    >>> r = r_polynomial(parse_permutation('12'), parse_permutation('21'))
    >>> r.coefficient(0), r.coefficient(1)
    (-1, 1)
    """
    if _memo is None:
        _memo = {}
    key = (x.window, w.window)
    if key in _memo:
        return _memo[key]
    if x == w:
        out = LaurentPolynomial.one()
    elif not bruhat_leq(x, w):
        out = LaurentPolynomial.zero()
    else:
        s = simple_reflection(len(w.window), min(w.left_descents()))
        sw = s * w
        sx = s * x
        if sx.length < x.length:
            out = r_polynomial(sx, sw, _memo)
        else:
            # (q - 1) R_{x,sw} + q R_{sx,sw}
            r = r_polynomial(x, sw, _memo)
            out = r.shifted(1) - r + r_polynomial(sx, sw, _memo).shifted(1)
    _memo[key] = out
    return out


def kl_from_r_oracle(n: int) -> dict:
    """Every nonzero P_{x,w} for S_n by inverting the R-polynomial
    identity, as polynomials in q.

    Independent of the production recursion: only R-polynomials, the
    defining degree truncation and each element's dominance rows are used.
    """
    elements = sorted(enumerate_group(n), key=lambda w: (w.length, w.window))
    dom = dict(zip(elements, _dominance(w.window for w in elements)))
    memo: dict = {}
    P: dict = {}
    for wi, w in enumerate(elements):
        P[(w, w)] = LaurentPolynomial.one()
        below = [x for x in elements[:wi] if all(map(le, dom[x], dom[w]))]
        for x in sorted(below, key=lambda u: -u.length):
            total = LaurentPolynomial.zero()
            for y in below + [w]:
                if y.length <= x.length or not all(map(le, dom[x], dom[y])):
                    continue
                total = total + r_polynomial(x, y, memo) * P[(y, w)]
            bound = (w.length - x.length - 1) // 2
            P[(x, w)] = LaurentPolynomial(
                (e, -c) for e, c in total.terms if e <= bound)
    return P


def _kl_against_r_oracle(n: int) -> list:
    problems = []
    oracle = kl_from_r_oracle(n)
    for w in enumerate_group(n):
        for x in enumerate_group(n):
            got = kl_polynomial(x, w)
            want = oracle.get((x, w), LaurentPolynomial.zero())
            if got != want:
                problems.append(
                    f'S_{n} oracle: P({x},{w}) = {got.terms} != {want.terms}')
    return problems


def _mu_graph_cells(n: int, side: str, P) -> set:
    """Cells as strongly connected components of the mu-graph of the KL
    table P of S_n.

    y -> s y for every s with s y > y, and y -> z for every z < y with
    mu(z, y) != 0 and some s that is a descent of z but not of y (s
    acting on the given side).  reach[y], an int bitset, is the
    reflexive transitive closure of the graph (Warshall); two elements
    share a cell when each reaches the other, that is when they reach
    the same set.
    """
    windows, at, lengths, mul = whole_group(n)
    if side == 'left':
        # s w = (w^-1 s)^-1
        inverse = _inverses(windows, at)
        mul = [[inverse[row[i]] for i in inverse] for row in mul]
    dom = _dominance(windows)
    descents = [sum(1 << s for s, row in enumerate(mul)
                    if lengths[row[y]] < lengths[y])
                for y in range(len(windows))]
    reach = []
    for y, col in enumerate(P):
        # s y for the s with s y > y are distinct: the sum is their union
        r = 1 << y | sum(1 << row[y] for row in mul
                         if lengths[row[y]] > lengths[y])
        for z, p in col.items():
            diff = lengths[y] - lengths[z]
            if diff > 0 and diff & 1 and descents[z] & ~descents[y]:
                mu = P.coefficients(p)[diff >> 1:]
                if mu and mu[0] and all(map(le, dom[z], dom[y])):
                    r |= 1 << z
        reach.append(r)
    for k in range(len(reach)):
        bit, rk = 1 << k, reach[k]
        for i, ri in enumerate(reach):
            if ri & bit:
                reach[i] = ri | rk
    return {frozenset(y for y, ry in enumerate(reach) if ry == r)
            for r in set(reach)}


def _cells_against_mu_graph(n: int, P) -> list:
    """Tableau cells against the mu-graph cells of the KL table P of S_n
    on both sides, and one involution per cell."""
    problems = []
    windows, at, _, _ = whole_group(n)
    involution = [i == j for i, j in enumerate(_inverses(windows, at))]
    for side, key_fn in (('left', left_cell_key), ('right', right_cell_key)):
        keys = [key_fn(_raw(w)) for w in windows]
        cells = {frozenset(i for i, key in enumerate(keys) if key == cell)
                 for cell in set(keys)}
        if _mu_graph_cells(n, side, P) != cells:
            problems.append(f'S_{n} {side} cells: graph != tableau')
        if any(sum(involution[i] for i in c) != 1 for c in cells):
            problems.append(f'n={n}: cell without unique involution')
    return problems


# Each check, declared once: (name, problems, first, top, detail).
# selftest lists problems(n), what the check finds wrong at n, for
# first <= n <= min(n_max, top), and a pass reads detail(t), t the last
# n reached; the tests run the same problems(n) past top.
CHECKS = (
    ('x-sets', _x_set_problems, 4, 4,
     lambda t: 'X+(4,2) and X-(4,2) both match'),
    # n!/2 reps of each min:k
    ('factorization', _factorization_problems, 2, 6, lambda t: (
        'bijection on {} reps, n <= {}'.format(sum(
            (n - 1) * math.factorial(n) // 2 for n in range(2, t + 1)), t))),
    # one chain per tau(i, j), j >= i + 2, of each min:k
    ('case-chains', _case_chain_problems, 3, 6, lambda t: (
        '{} chains verified, n <= {}'.format(sum(
            (n - 1) * math.comb(n - 1, 2) for n in range(3, t + 1)), t))),
    ('positivity-ratio', _ratio_problems, 3, 7,
     lambda t: f'ratio matches for all k, n <= {t}'),
    ('worked-tables', _worked_table_problems, 4, 4,
     lambda t: 'section tables at (4,2) reproduced'),
    # C(n, k)^2 pairs of reps of each max:k, C(2n, n) - 2 in all
    ('cross-oracle', _cross_oracle_problems, 2, 6, lambda t: (
        '{} pairs agree, n <= {}'.format(sum(
            math.comb(2 * n, n) - 2 for n in range(2, t + 1)), t))),
    ('thin-y', _thinness_problems, 2, 7,
     lambda t: f'thin iff Y membership, n <= {t}'),
    ('branch-consistency', _branch_problems, 2, 7,
     lambda t: f'branches agree for k in {{1, n-1}}, n <= {t}'),
    ('linear-quiver', _linear_quiver_problems, 2, 7,
     lambda t: f'two-step chains verified, n <= {t}'),
    ('socle-shadow', _socle_shadow_problems, 2, 6,
     lambda t: f'shadow equivalence exhaustive, n <= {t}'),
    ('kl-properties', _kl_problems, 2, 5,
     lambda t: f'tables, oracles, and cells agree, n <= {t}'),
    ('reconciliation', lambda n: (_minimal_reconciliation_problems(n)
                                  + _maximal_reconciliation_problems(n)),
     2, 6, lambda t: f'classifier reconciled, n <= {t}'),
)


def _runner(problems, first, top, detail):
    """The check as selftest runs it, a function of n_max: (ok, detail),
    the failures collected, never thrown.  A check of one size is
    skipped below it."""
    def run(n_max: int):
        if first == top > n_max:
            return True, f'skipped (needs n_max >= {top})'
        reached = min(n_max, top)
        found = [p for n in range(first, reached + 1) for p in problems(n)]
        if len(found) > 1:
            return False, f'{len(found)} failures, first: {found[0]}'
        return (False, found[0]) if found else (True, detail(reached))
    return run


ALL_CHECKS = tuple((name, _runner(*check)) for name, *check in CHECKS)
