"""Request pools and seeded passes for the benchmark workloads.

A request is the argv list handed to ``kostantpv.cli.main``.  Each
workload has a pool, the finite set of requests its generator can draw
(every one of them has a golden digest in goldens.json), and a pass, the
seeded draw one run serves.  Passes are stratified: the seed picks the
order, the parameters inside each stratum and (except in `session`) the
format, while the number of requests per stratum is fixed, so that the
work in a pass hardly depends on the seed.  No request repeats within a
pass.

The pools are enumerated here, without importing the program, so the
program receives nothing but argv.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / 'goldens.json'

WORKLOADS = ('maxpar', 'klpar', 'session', 'selftest')

# Workloads whose requests each start a fresh interpreter; `session`
# serves its whole pass from one warm process.
COLD = ('maxpar', 'klpar', 'selftest')

FORMATS = ('json', 'tsv')


def key(argv) -> str:
    """The golden-table key of a request."""
    return ' '.join(argv)


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def load_goldens() -> dict:
    """Request key -> sha256 of its stdout, recorded from the seed code."""
    with open(GOLDENS) as f:
        return json.load(f)


def verdict(argv, code, out: bytes, goldens: dict):
    """None when the request succeeded, else why it failed.

    A request fails if it exits nonzero, if `mult` reports that its two
    engines disagree, or if its stdout differs from the golden.
    """
    if code != 0:
        return f'exit code {code}'
    if argv[0] == 'mult' and (b'"agree": false' in out
                              or b'# agree\tfalse' in out):
        return 'engines disagree'
    want = goldens.get(key(argv))
    if want is None:
        return 'no golden for this request'
    if digest(out) != want:
        return 'stdout differs from the golden'
    return None


def window_text(window) -> str:
    return ''.join(str(v) for v in window)


def max_reps(n: int, k: int):
    """Shortest coset reps for max:k, as windows in lexicographic order.

    x is one exactly when its window lists 1..k, and k+1..n, in
    increasing order, so x is fixed by the positions of 1..k.
    """
    reps = []
    for low in itertools.combinations(range(n), k):
        small, large = iter(range(1, k + 1)), iter(range(k + 1, n + 1))
        reps.append(tuple(next(small) if pos in low else next(large)
                          for pos in range(n)))
    return sorted(reps)


def compositions(n: int):
    """All compositions of n, in a fixed order."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def classify_max(n, k, n_max, fmt):
    argv = ['classify', '--n', str(n), '--parabolic', f'max:{k}',
            '--format', fmt]
    return argv + (['--n-max', str(n_max)] if n > 8 else [])


def classify_min(n, k, fmt):
    return ['classify', '--n', str(n), '--parabolic', f'min:{k}',
            '--format', fmt]


def classify_comp(n, parts, fmt):
    return ['classify', '--n', str(n), '--parabolic',
            'comp:' + ','.join(str(p) for p in parts), '--format', fmt]


def mult(n, k, x, fmt):
    return ['mult', '--n', str(n), '--k', str(k), '--x', window_text(x),
            '--engine', 'both', '--format', fmt]


def socle(n, w, fmt):
    return ['socle', '--n', str(n), '--w', window_text(w), '--format', fmt]


def cells(n, fmt):
    return ['cells', '--n', str(n), '--format', fmt]


SELFTEST = ['selftest', '--n-max', '8']

MAXPAR_N = (8, 9, 10)
KL_N = 6            # the program's dense Kazhdan-Lusztig ceiling
SESSION_KL_N = (3, 4, 5, 6)
SESSION_MAX_N = (4, 5, 6, 7, 8)
SESSION_SOCLE_N = (5, 6, 7)
SESSION_CELLS_N = (4, 5, 6, 7)
SOCLE_STRIDE = 97   # every 97th element of S_n in window order
KLPAR_COMP_TAKE = {2: 3, 3: 3, 4: 2, 5: 2}   # parts -> compositions taken


def _formats(build, *args):
    """One group: the same request in each output format."""
    return [build(*args, fmt) for fmt in FORMATS]


def _parabolic_comps(n: int):
    """Compositions of n with a proper, nontrivial Levi.

    The all-ones composition is left out: its quotient is all of S_n,
    and at n = 6 one such request costs as much as thirty others.
    """
    return [mu for mu in compositions(n) if 1 < len(mu) < n]


def _strata(workload: str) -> dict:
    """Stratum name -> (groups taken per pass or None for all, groups).

    A pass takes that many groups from each stratum, and one request,
    in a seeded format, from each group taken.
    """
    if workload == 'maxpar':
        return {
            f'max n={n}': (None, [_formats(classify_max, n, k, 10)
                                  for k in range(1, n)])
            for n in MAXPAR_N
        }
    if workload == 'klpar':
        # Cold, a mult request is faster than a min:k one, which is
        # faster than a comp: one.  Ten of each of the outer kinds put
        # the median request in the middle of the five min:k requests,
        # not on the edge of a cluster where noise moves it.
        n = KL_N
        strata = {'min': (None, [_formats(classify_min, n, k)
                                 for k in range(1, n)])}
        for parts, take in KLPAR_COMP_TAKE.items():
            strata[f'comp parts={parts}'] = (take, [
                _formats(classify_comp, n, mu)
                for mu in _parabolic_comps(n) if len(mu) == parts])
        for k in range(1, n):
            strata[f'mult k={k}'] = (2, [_formats(mult, n, k, x)
                                         for x in max_reps(n, k)])
        return strata
    if workload == 'session':
        strata = {}
        for n in SESSION_KL_N:
            strata[f'mult n={n}'] = (None, [
                _formats(mult, n, k, x)
                for k in range(1, n) for x in max_reps(n, k)])
            strata[f'min/comp n={n}'] = (None, (
                [_formats(classify_min, n, k) for k in range(1, n)]
                + [_formats(classify_comp, n, mu)
                   for mu in _parabolic_comps(n)]))
        for n in SESSION_MAX_N:
            strata[f'max n={n}'] = (None, [_formats(classify_max, n, k, 8)
                                           for k in range(1, n)])
        for n in SESSION_SOCLE_N:
            group = itertools.permutations(range(1, n + 1))
            strata[f'socle n={n}'] = (None, [
                _formats(socle, n, w)
                for w in itertools.islice(group, 0, None, SOCLE_STRIDE)])
        for n in SESSION_CELLS_N:
            strata[f'cells n={n}'] = (None, [_formats(cells, n)])
        # Formats alternate in a fixed pattern and only the order is
        # seeded: with seeded formats the session's peak RSS moved by 7%
        # from seed to seed.
        turn = itertools.count()
        return {name: (None, [[group[next(turn) % 2]] for group in groups])
                for name, (_, groups) in strata.items()}
    if workload == 'selftest':
        return {'selftest': (None, [[SELFTEST]])}
    raise ValueError(f'unknown workload {workload!r}')


def pool(workload: str) -> list:
    """Every request the workload's generator can draw."""
    return [req for _, groups in _strata(workload).values()
            for group in groups for req in group]


def draw_pass(workload: str, seed: int) -> list:
    """The seeded pass: a list of distinct requests, in serving order."""
    rng = random.Random(f'{workload}:{seed}')
    reqs = []
    for take, groups in _strata(workload).values():
        chosen = groups if take is None else rng.sample(groups, take)
        reqs.extend(rng.choice(group) for group in chosen)
    rng.shuffle(reqs)
    return reqs
