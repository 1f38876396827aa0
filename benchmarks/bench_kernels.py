"""Time the kernels, the KL fills and the cup layer alone.

Runs the Bruhat comparability matrix on S_6 and S_7 and the sparse
Kazhdan-Lusztig fill on S_5 and S_6, and reports the best of --repeat
runs.  Each fill is timed only after its table has passed the
kl-properties identities (checks._kl_table_problems) and, laid out
densely (dense_table), matched the per-column fill on the Bruhat
matrix (kl_fill_by_column; both kept in tests/oracles.py); its row
also gives the entries it stores and their packed width.

The index the fills run over is timed alone: GroupIndex(7) and
GroupIndex(8), each after its windows have matched their Lehmer-code
ranks (the reference rank in tests/oracles.py) and its inverses have
matched, and klcells.coset_index((2, 2, 2, 2)), after its windows
have matched the S_8 filter enumerate_shortest_reps and its lengths the
Permutation lengths.

The fill takes the lengths and right action of klcells.coset_index
and the number of q-degrees kept: _kernels.kl_fill(lengths, mul, ncoef).
The same fill over the shortest reps alone is timed at n = 6 for min:3
(1,1,2,1,1) and max:3 (3,3), each after its dense layout has matched
parabolic_sums, the alternating sum over the whole-group table that the
tests keep in tests/oracles.py, over the group indices of the reps.
The whole of klcells.parabolic_table, the reps listed and filled anew each run,
is timed at 4,4 (max:4 at n = 8, where no whole-group table exists),
after it has matched the cup degree table of that block.

Thinness (compositions._filled_thin, which fills the columns of the
cell of w_0^mu w_0 and the columns they read alone) is timed for min:3
at n = 6 (1,1,2,1,1), for 1,1,2,1,1,1 and for 2,2,2,2, each
after it has matched the thinness summed over the cell's columns of the
full parabolic_table; its row gives the columns filled out of the reps.

The quotient cell (compositions._quotient_cell, by Knuth moves,
uncached) is timed over every composition of 6 and of 8, after each
cell has matched the RSK partition of S_6 or S_8 (the elements whose
insertion tableau is that of w_0^mu w_0).

The walk behind `cells` (tableaux.window_shapes) is timed at n = 8,
after its shapes have matched rsk of every element of S_8, in window
order.

The cup layer is timed at (14, 7), (16, 8) and (17, 8): the whole of
cup_diagrams.block_table (the words listed, capped and filled into
sparse rows anew each run), after three seeded columns of the rows,
decoded through cup_diagrams.factors, have matched the object-level
orient(d_of(word y).diagram, word x) at every x (orient is the reference
kept in tests/oracles.py).  The walk that lists one row from its word
(cup_diagrams.row) is timed on the alternating word of each of these
blocks, after 20 seeded rows have matched block_table, and on the
largest row MAX_ROW_FACTORS admits,
(^v)^10 at (20, 10), after its factor count has matched Catalan(11).

The socle sweep times bigrassmannian.socle_descriptor on every element
of S_2..S_6, after checking every descriptor with n <= 5 against the
pairwise definition (Bruhat-maximal among the bigrassmannians b with
permutations.bruhat_leq(b, w)).  The S_12 row times 1,000 seeded w,
after checking 50 of them the same way.

The parse rows time reading every argv of tests/cli_goldens.json into
its namespace, by cli._read_args and by the argparse parser
(cli._build_parser().parse_args, the parser built once beforehand),
after every namespace the two build has matched.

The cold-start rows give the median wall time of 11 fresh interpreters
each, with its quartiles, so a difference between two runs can be read
against their spread, and the largest peak RSS among them (getrusage
of each child), with PYTHONPATH pointing at this checkout's src/ and
no bytecode written (so each compiles every module it loads):
`import kostantpv.cli`, a `classify max:5` at n = 10, a
`classify min:3` at n = 6,
`classify max:8` at n = 16 in both formats, and `mult --engine cup` at
(20, 10) for the x of word (^v)^10, the largest row
cup_diagrams.MAX_ROW_FACTORS admits, whose stdout must match
kostantpv.cli.main run in this process.

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kostantpv import _kernels, cli
from kostantpv.bigrassmannian import bigrassmannians, socle_descriptor
from kostantpv.checks import _kl_table_problems
from kostantpv.compositions import Composition, _filled_thin, _quotient_cell
from kostantpv.cup_diagrams import (
    MAX_ROW_FACTORS,
    MaxParContext,
    block_table,
    d_of,
    factors,
    labeller,
    row,
)
from kostantpv.groupindex import GroupIndex, group_index
from kostantpv.klcells import coset_index, parabolic_table
from kostantpv.permutations import (
    Permutation,
    bruhat_leq,
    enumerate_group,
    longest_element,
    longest_element_parabolic,
)
from kostantpv.tableaux import rsk, window_shapes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / 'src'
sys.path.insert(0, str(ROOT / 'tests'))
from oracles import (  # noqa: E402
    dense_degrees,
    dense_table,
    enumerate_shortest_reps,
    kl_fill_by_column,
    mul,
    orient,
    parabolic_sums,
    rank,
)
GOLDENS = ROOT / 'tests' / 'cli_goldens.json'
COLD_RUNS = 11


def best_of(repeat, fn, *args):
    best = float('inf')
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_case(name, repeat, fn, *args, note=''):
    print(f'{name:24s} {best_of(repeat, fn, *args) * 1e3:10.2f} ms{note}')


def bench_group_index(n, repeat):
    g = GroupIndex(n)
    every = np.arange(g.N)
    if not (np.array_equal(rank(g.windows), every)
            and not mul(g, every, g.inverse).any()):
        raise SystemExit(f'GroupIndex({n}) disagrees with the Lehmer ranks')
    bench_case(f'GroupIndex({n})', repeat, GroupIndex, n,
               note=f'  ({g.N:,} elements)')


def bench_coset_index(parts, repeat):
    n = sum(parts)
    windows, _, lengths, _ = coset_index(parts)
    J = Composition(parts).simple_reflections()
    if (windows != tuple(w.window for w in enumerate_shortest_reps(n, J))
            or lengths != [Permutation(w).length for w in windows]):
        raise SystemExit(f'coset_index {parts} disagrees with the S_{n} '
                         'filter')
    bench_case(f'coset_index {",".join(map(str, parts))}', repeat,
               coset_index, parts, note=f'  ({len(windows):,} reps)')


def fill_args(parts):
    """(windows, (lengths, mul, ncoef)): the reps' windows and the
    arguments of _kernels.kl_fill over them, from coset_index."""
    windows, _, lengths, mul = coset_index(parts)
    return windows, (lengths, mul, max(lengths) // 2 + 1)


def entries(S):
    """The note of a fill's row: the entries it stores, and their width."""
    return f'{S.size:,} entries of {S.itemsize} bytes'


def bench_kl_fill(n, repeat):
    _, args = fill_args((1,) * n)
    S = _kernels.kl_fill(*args)
    problems = _kl_table_problems(n, S)
    if problems:
        raise SystemExit(f'kl_fill S_{n}: {problems}')
    if not np.array_equal(dense_table(S),
                          kl_fill_by_column(group_index(n), args[2])):
        raise SystemExit(f'kl_fill S_{n} disagrees with the per-column fill')
    bench_case(f'kl_fill S_{n}', repeat, _kernels.kl_fill, *args,
               note=f'  ({entries(S)})')


def bench_parabolic_fill(kind, k, parts, repeat):
    n = sum(parts)
    J = Composition(parts).simple_reflections()
    windows, args = fill_args(parts)
    reps = [group_index(n).index[w] for w in windows]
    S = _kernels.kl_fill(*args)
    sums = parabolic_sums(n, J, reps, reps)
    if not (np.array_equal(dense_table(S), sums[:, :, :S.ncoef])
            and not sums[:, :, S.ncoef:].any()):
        raise SystemExit(f'kl_fill {kind}:{k} at n = {n} disagrees with '
                         'parabolic_sums')
    bench_case(f'kl_fill {kind}:{k} n={n}', repeat, _kernels.kl_fill, *args,
               note=f'  ({len(reps)} reps, {entries(S)})')


def bench_parabolic_table(k, m, repeat):
    """parabolic_table((k, m)) against the cup degrees of max:k: a
    degree c at (x, y) is S = q^d with 2d = l(y) - l(x) - c, and no
    factor is a zero S."""
    windows, lengths, S = parabolic_table((k, m))
    if list(lengths) != [Permutation(w).length for w in windows]:
        raise SystemExit(f'parabolic_table {k},{m} lengths disagree with '
                         'the Permutation lengths')
    deg = dense_degrees(block_table(MaxParContext(k + m, k)))
    lengths = np.array(lengths)
    d, odd = np.divmod(lengths[None, :] - lengths[:, None] - deg, 2)
    dense = dense_table(S)
    want = np.zeros_like(dense)
    x, y = np.nonzero(deg >= 0)
    want[x, y, d[x, y]] = 1
    if odd[x, y].any() or not np.array_equal(dense, want):
        raise SystemExit(f'parabolic_table {k},{m} disagrees with the '
                         'cup degrees')
    bench_case(f'parabolic_table {k},{m}', repeat, parabolic_table, (k, m),
               note=f'  ({len(windows)} reps, {entries(S)})')


def bench_thinness(parts, repeat):
    mu = Composition(parts)
    quotient = _quotient_cell(mu)
    reps, _, S = parabolic_table(parts)
    total = [0] * len(reps)
    for w in quotient:
        for x, P in S[reps.index(w)].items():
            total[x] += sum(S.coefficients(P))
    name = f'thinness {",".join(map(str, parts))}'
    if _filled_thin(mu) != (reps, tuple(t == 1 for t in total)):
        raise SystemExit(f'{name} disagrees with the full fill')
    filled = sum(col is not None for col in parabolic_table(parts,
                                                            quotient)[2])
    bench_case(name, repeat, _filled_thin, mu,
               note=f'  ({filled:,} of {len(reps):,} columns filled)')


def compositions(n):
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        yield Composition(tuple(parts))


def bench_quotient_cell(n, repeat):
    fibers = {}
    for w in enumerate_group(n):
        fibers.setdefault(rsk(w).insertion, []).append(w.window)
    mus = list(compositions(n))
    for mu in mus:
        seed = rsk(longest_element_parabolic(n, mu.simple_reflections())
                   * longest_element(n)).insertion
        if _quotient_cell(mu) != tuple(fibers[seed]):
            raise SystemExit(f'_quotient_cell {mu.to_text()} is not the '
                             'right cell of the RSK partition')

    def run_all():
        for mu in mus:
            _quotient_cell(mu)

    bench_case(f'quotient_cell S_{n}', repeat, run_all,
               note=f'  ({len(mus)} compositions, Knuth moves)')


def bench_window_shapes(n, repeat):
    shapes, ids = window_shapes(n)
    if [shapes[i] for i in ids] != [rsk(w).shape for w in enumerate_group(n)]:
        raise SystemExit(f'window_shapes({n}) disagrees with rsk')
    bench_case(f'window_shapes S_{n}', repeat, window_shapes, n,
               note=f'  ({len(ids):,} elements, {len(shapes)} shapes)')


def bench_cup_block(n, k, repeat):
    ctx = MaxParContext(n, k)
    table = block_table(ctx)
    pairs = list(factors(table.ncups))
    label = labeller(ctx)
    rng = random.Random(n)
    for y in rng.sample(range(len(table.words)), 3):
        diagram = d_of(table.words[y]).diagram
        for x, word in enumerate(table.words):
            ocd = orient(diagram, word)
            got = [d for y2, d in map(pairs.__getitem__, table.rows[x])
                   if y2 == y]
            if got != ([] if ocd is None else [ocd.degree]):
                raise SystemExit(f'block_table({n},{k}) at {label(word)} '
                                 f'{label(table.words[y])} disagrees with '
                                 'orient')
    for x in rng.sample(range(len(table.words)), 20):
        want = [(table.words[y], d)
                for y, d in map(pairs.__getitem__, table.rows[x])]
        if row(ctx, table.words[x]) != (want, table.thin[x]):
            raise SystemExit(f'row at {label(table.words[x])} disagrees '
                             f'with block_table({n},{k})')
    del table, pairs

    bench_case(f'block_table ({n},{k})', repeat, block_table, ctx)
    word = '^v' * k + 'v' * (n - 2 * k)
    bench_case(f'row ({n},{k}) ^v..', repeat, row, ctx, word,
               note=f'  ({len(row(ctx, word)[0]):,} factors)')


def bench_cup_row_ceiling(repeat):
    """The largest row MAX_ROW_FACTORS admits: (^v)^10 at (20, 10) has
    Catalan(11) factors."""
    ctx, word = MaxParContext(20, 10), '^v' * 10
    count = len(row(ctx, word)[0])
    if count != MAX_ROW_FACTORS or count != math.comb(22, 11) // 12:
        raise SystemExit(f'row at {word} lists {count} factors, not '
                         'Catalan(11)')
    bench_case('row (20,10) ^v..', repeat, row, ctx, word,
               note=f'  ({count:,} factors)')


def check_socle(n, ws):
    """Compare socle_descriptor(w) with the pairwise definition."""
    bs = bigrassmannians(n)
    above = {b: {c for c in bs if c != b and bruhat_leq(b, c)} for b in bs}
    for w in ws:
        under = {b for b in bs if bruhat_leq(b, w)}
        if set(socle_descriptor(w)) != {b for b in under
                                        if not above[b] & under}:
            raise SystemExit(f'socle_descriptor {w} disagrees with '
                             'the pairwise definition')


def bench_socle(repeat):
    for n in range(2, 6):
        check_socle(n, enumerate_group(n))
    groups = [list(enumerate_group(n)) for n in range(2, 7)]

    def run_all():
        for group in groups:
            for w in group:
                socle_descriptor(w)

    t = best_of(repeat, run_all)
    print(f'{"socle S_2..S_6":24s} {t * 1e3:10.2f} ms  (every w)')

    rng = random.Random(12)
    ws = [Permutation(rng.sample(range(1, 13), 12)) for _ in range(1000)]
    check_socle(12, ws[:50])

    def run_seeded():
        for w in ws:
            socle_descriptor(w)

    t = best_of(repeat, run_seeded)
    print(f'{"socle S_12":24s} {t * 1e3:10.2f} ms  (1,000 seeded w)')


def bench_parse(repeat):
    argvs = [key.split(' ') for key in json.loads(GOLDENS.read_text())]
    parse_args = cli._build_parser().parse_args
    for argv in argvs:
        if vars(cli._read_args(argv)) != vars(parse_args(argv)):
            raise SystemExit(f'_read_args {argv} disagrees with argparse')

    def read_all(read):
        for argv in argvs:
            read(argv)

    note = f'  ({len(argvs)} golden argvs)'
    for name, read in (('parse _read_args', cli._read_args),
                       ('parse argparse', parse_args)):
        bench_case(name, repeat, read_all, read, note=note)


# Starts one child and prints its wall time, its peak RSS in MiB (from
# getrusage), its exit code and the sha256 of its stdout.  It runs in a
# small interpreter of its own: a child started straight from this
# (larger) process would be charged this process's peak RSS as well.
LAUNCHER = """
import hashlib, os, subprocess, sys, tempfile, time
with tempfile.TemporaryFile() as out:
    t0 = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=out,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out.seek(0)
    print(wall, usage.ru_maxrss / 1024, proc.returncode,
          hashlib.sha256(out.read()).hexdigest())
"""


def cold_run(args, env):
    """(wall seconds, peak RSS in MiB, exit code, sha256 of stdout) of
    one fresh interpreter."""
    proc = subprocess.run([sys.executable, '-c', LAUNCHER, sys.executable,
                           *args], env=env, capture_output=True, text=True,
                          check=True)
    wall, rss, code, digest = proc.stdout.split()
    return float(wall), float(rss), int(code), digest


def bench_cold_start():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE='1')
    cases = [('import kostantpv.cli', ['-c', 'import kostantpv.cli'], None)]
    # the x of word (^v)^10: the wedges carry 1..10, the vees 11..20
    x = '[' + ','.join(f'{p},{p + 10}' for p in range(1, 11)) + ']'
    for name, argv in (
        ('cold max:5 n=10',
         ['classify', '--n', '10', '--parabolic', 'max:5', '--n-max', '10']),
        ('cold min:3 n=6', ['classify', '--n', '6', '--parabolic', 'min:3']),
        *((f'cold max:8 n=16 {fmt}',
           ['classify', '--n', '16', '--parabolic', 'max:8', '--n-max', '16',
            '--format', fmt]) for fmt in ('tsv', 'json')),
        ('cold mult cup (20,10)',
         ['mult', '--n', '20', '--k', '10', '--x', x, '--engine', 'cup',
          '--n-max', '20']),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        want = hashlib.sha256(out.getvalue().encode()).hexdigest()
        cases.append((name, ['-m', 'kostantpv.cli', *argv], want))
    for name, args, want in cases:
        times, peak = [], 0.0
        for _ in range(COLD_RUNS):
            wall, rss, code, digest = cold_run(args, env)
            times.append(wall)
            peak = max(peak, rss)
            if code != 0 or (want is not None and digest != want):
                raise SystemExit(f'{name}: a fresh process disagrees with '
                                 'cli.main in process')
        q1, median, q3 = (t * 1e3 for t in statistics.quantiles(times))
        print(f'{name:24s} {median:10.2f} ms'
              f'  (median of {COLD_RUNS} fresh processes, quartiles '
              f'{q1:.2f}-{q3:.2f} ms, peak {peak:.0f} MiB)')


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        '--repeat', type=int, default=3, help='timed runs per case (best kept)'
    )
    args = parser.parse_args()

    for n in (7, 8):
        bench_group_index(n, args.repeat)
    bench_coset_index((2, 2, 2, 2), args.repeat)
    for n in (6, 7):
        bench_case(f'leq_matrix S_{n}', args.repeat, _kernels.leq_matrix,
                   group_index(n).dominance)
    for n in (5, 6):
        bench_kl_fill(n, args.repeat)
    bench_parabolic_fill('min', 3, (1, 1, 2, 1, 1), args.repeat)
    bench_parabolic_fill('max', 3, (3, 3), args.repeat)
    bench_parabolic_table(4, 4, args.repeat)
    for parts in ((1, 1, 2, 1, 1), (1, 1, 2, 1, 1, 1), (2, 2, 2, 2)):
        bench_thinness(parts, args.repeat)
    for n in (6, 8):
        bench_quotient_cell(n, args.repeat)
    bench_window_shapes(8, args.repeat)
    for n, k in ((14, 7), (16, 8), (17, 8)):
        bench_cup_block(n, k, args.repeat)
    bench_cup_row_ceiling(args.repeat)
    bench_socle(args.repeat)
    bench_parse(args.repeat)
    bench_cold_start()


if __name__ == '__main__':
    main()
