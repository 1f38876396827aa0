"""Time the numpy kernels, the KL fills and the cup layer alone.

Runs the Bruhat comparability matrix on S_6 and S_7 and the dense
Kazhdan-Lusztig fill on S_5 and S_6, and reports the best of --repeat
runs.  Each fill is timed only after its table has passed the
kl-properties identities (checks._kl_table_problems); its row also
gives the bytes of the int8 table it writes.

The index the fills run over is timed alone: GroupIndex(7) and
GroupIndex(8), each after its windows have matched their Lehmer-code
ranks (the reference rank in tests/oracles.py) and its inverses have
matched, and groupindex.coset_index((2, 2, 2, 2)), after its windows
have matched the S_8 filter enumerate_shortest_reps and its lengths the
Permutation lengths.

The same fill over the shortest reps alone (klcells._fill_args, over
groupindex.coset_index) is timed at n = 6 for min:3
(1,1,2,1,1) and max:3 (3,3), each after its table has matched
parabolic_sums, the alternating sum over the whole-group table that the
tests keep in tests/oracles.py, over the group indices of the reps.
The whole
of klcells.parabolic_table, the reps listed and filled anew each run,
is timed at 4,4 (max:4 at n = 8, where no whole-group table exists),
after it has matched the cup degree table of that block.

The quotient cell (compositions._quotient_cell, by inverse row
insertion) is timed over every composition of 6, with its cache
cleared each run, after each cell has matched the RSK partition of S_6
(the elements whose insertion tableau is that of w_0^mu w_0).

The walk behind `cells` (tableaux.window_shapes) is timed at n = 8,
after its shapes have matched rsk of every element of S_8, in window
order.

The cup layer is timed at (14, 7), (16, 8) and (17, 8): setting up
cup_diagrams.Block (the words listed and capped anew each run) and
filling its sparse rows (Block.table), after three seeded columns of the
rows have matched the object-level orient(d_of(word y).diagram, word x)
at every x (orient is the reference kept in tests/oracles.py).

The socle sweep times bigrassmannian.socle_descriptor on every element
of S_2..S_6, after checking every descriptor with n <= 5 against the
pairwise definition (Bruhat-maximal among the bigrassmannians b with
permutations.bruhat_leq(b, w)).  The S_12 row times 1,000 seeded w,
after checking 50 of them the same way.

The cold-start rows give the median wall time of 5 fresh interpreters
each, and the largest peak RSS among them (getrusage of each child),
with PYTHONPATH pointing at this checkout's src/ and no bytecode
written (so each compiles every module it loads): `import kostantpv.cli`,
a `classify max:5` at n = 10, a `classify min:3` at n = 6,
`classify max:8` at n = 16 in both formats, and `mult --engine cup` at
(20, 10), the largest block cup_diagrams.MAX_BLOCK_WORDS admits, whose
stdout must match kostantpv.cli.main run in this process.

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
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
from kostantpv.checks import _kl_table_problems, dense_degrees
from kostantpv.compositions import Composition, _quotient_cell
from kostantpv.cup_diagrams import (
    DEGREE_BITS,
    Block,
    MaxParContext,
    WeightWord,
    block_table,
    d_of,
)
from kostantpv.groupindex import GroupIndex, coset_index, group_index
from kostantpv.klcells import _fill_args, parabolic_table
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
    enumerate_shortest_reps,
    mul,
    orient,
    parabolic_sums,
    rank,
)
COLD_RUNS = 5


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
            or lengths.tolist() != [Permutation(w).length
                                    for w in windows]):
        raise SystemExit(f'coset_index {parts} disagrees with the S_{n} '
                         'filter')
    bench_case(f'coset_index {",".join(map(str, parts))}', repeat,
               coset_index, parts, note=f'  ({len(windows):,} reps)')


def bench_kl_fill(n, repeat):
    _, *args = _fill_args((1,) * n)
    P = _kernels.kl_fill(*args).transpose(1, 0, 2)
    problems = _kl_table_problems(group_index(n), P)
    if problems:
        raise SystemExit(f'kl_fill S_{n}: {problems}')
    bench_case(f'kl_fill S_{n}', repeat, _kernels.kl_fill, *args,
               note=f'  ({P.nbytes:,} bytes, {P.dtype})')


def bench_parabolic_fill(kind, k, parts, repeat):
    n = sum(parts)
    J = Composition(parts).simple_reflections()
    windows, *args = _fill_args(parts)
    reps = [group_index(n).index[w] for w in windows]
    S = _kernels.kl_fill(*args).transpose(1, 0, 2)
    sums = parabolic_sums(n, J, reps, reps)
    if not (np.array_equal(S, sums[:, :, :S.shape[2]])
            and not sums[:, :, S.shape[2]:].any()):
        raise SystemExit(f'kl_fill {kind}:{k} at n = {n} disagrees with '
                         'parabolic_sums')
    bench_case(f'kl_fill {kind}:{k} n={n}', repeat, _kernels.kl_fill, *args,
               note=f'  ({len(reps)} reps, {S.nbytes:,} bytes)')


def bench_parabolic_table(k, m, repeat):
    """parabolic_table((k, m)) against the cup degrees of max:k: a
    degree c at (x, y) is S = q^d with 2d = l(y) - l(x) - c, and no
    factor is a zero S."""
    windows, S = parabolic_table((k, m))
    deg = dense_degrees(block_table(MaxParContext(k + m, k))[1])
    lengths = np.array([Permutation(w).length for w in windows])
    d, odd = np.divmod(lengths[None, :] - lengths[:, None] - deg, 2)
    want = np.zeros_like(S)
    x, y = np.nonzero(deg >= 0)
    want[x, y, d[x, y]] = 1
    if odd[x, y].any() or not np.array_equal(S, want):
        raise SystemExit(f'parabolic_table {k},{m} disagrees with the '
                         'cup degrees')
    bench_case(f'parabolic_table {k},{m}', repeat, parabolic_table, (k, m),
               note=f'  ({len(windows)} reps, {S.nbytes:,} bytes)')


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
    g = group_index(n)
    tableau = [rsk(g.perm(i)).insertion for i in range(g.N)]
    mus = list(compositions(n))
    for mu in mus:
        seed = rsk(longest_element_parabolic(n, mu.simple_reflections())
                   * longest_element(n)).insertion
        want = tuple(g.perm(i).window for i in range(g.N)
                     if tableau[i] == seed)
        if _quotient_cell(mu) != want:
            raise SystemExit(f'_quotient_cell {mu.to_text()} is not the '
                             'right cell of the RSK partition')

    def run_all():
        _quotient_cell.cache_clear()
        for mu in mus:
            _quotient_cell(mu)

    bench_case(f'quotient_cell S_{n}', repeat, run_all,
               note=f'  ({len(mus)} compositions, inverse RSK)')


def bench_window_shapes(n, repeat):
    shapes, ids = window_shapes(n)
    if [shapes[i] for i in ids] != [rsk(w).shape for w in enumerate_group(n)]:
        raise SystemExit(f'window_shapes({n}) disagrees with rsk')
    bench_case(f'window_shapes S_{n}', repeat, window_shapes, n,
               note=f'  ({len(ids):,} elements, {len(shapes)} shapes)')


def bench_cup_block(n, k, repeat):
    ctx = MaxParContext(n, k)
    blk = Block(ctx)
    rows, _ = blk.table()
    words = [WeightWord(word) for word in blk.words]
    for y in random.Random(n).sample(range(len(words)), 3):
        diagram = d_of(words[y]).diagram
        for x, word in enumerate(words):
            ocd = orient(diagram, word)
            got = [f - (y << DEGREE_BITS) for f in rows[x]
                   if f >> DEGREE_BITS == y]
            if got != ([] if ocd is None else [ocd.degree]):
                raise SystemExit(f'Block({n},{k}).table() at {blk.label(x)} '
                                 f'{blk.label(y)} disagrees with orient')
    del rows

    bench_case(f'Block({n},{k})', repeat, Block, ctx)
    bench_case(f'Block.table ({n},{k})', repeat, blk.table)


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
    x = '[' + ','.join(map(str, range(1, 21))) + ']'
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
        print(f'{name:24s} {statistics.median(times) * 1e3:10.2f} ms'
              f'  (median of {COLD_RUNS} fresh processes, '
              f'peak {peak:.0f} MiB)')


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
    bench_quotient_cell(6, args.repeat)
    bench_window_shapes(8, args.repeat)
    for n, k in ((14, 7), (16, 8), (17, 8)):
        bench_cup_block(n, k, args.repeat)
    bench_socle(args.repeat)
    bench_cold_start()


if __name__ == '__main__':
    main()
