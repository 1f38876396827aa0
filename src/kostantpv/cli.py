r"""
Command-line front end: batch classification, multiplicity tables,
socle descriptors, cell membership, and the selftest scoreboard.

Output is deterministic: identical invocations produce byte-identical
stdout.  JSON objects are emitted with sorted keys; TSV rows use the
permutation digit form and '^'/'v' weight words so tables stay
grep-able.  Exit codes: 0 success, 1 check failure (an engine
disagreement or a failing selftest), 2 usage error.

The default n ceiling is 8.  It can be raised with --n-max, with a
warning, except for selftest where 8 is a hard bound.  Paths that need
a parabolic Kazhdan-Lusztig table (classify min:k and comp:, and mult
with the kl and both engines) refuse a fill over klcells.MAX_FILL_BYTES,
counted from the parts alone; classify max:k refuses blocks with more
than cup_diagrams.MAX_TABLE_FACTORS composition factors, mult --engine
cup blocks of more than cup_diagrams.MAX_BLOCK_WORDS words, and cells
n > MAX_CELLS_N.

Each command returns its stdout as a sequence of chunks.  classify
(max:k, min:k and comp:) and cells encode their rows a chunk at a time
through a per-format row template, straight from windows and
precomputed texts (per factor, per verdict, per shape), so no row
object and no whole table of text is ever held.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from itertools import chain, islice, permutations, repeat, starmap

from .permutations import (
    Permutation,
    _window_text,
    is_shortest_coset_rep,
    parse_permutation,
)

# Each command imports the engine it runs, so a request loads (and,
# when no bytecode is written, compiles) only that engine: classify
# max:k and mult --engine cup the cup diagrams alone, with no numpy,
# and socle and cells no numpy either.  The requests that take well
# under a millisecond (classify max:k, mult, socle) reach their engines
# through the cached loaders below, not an import statement per call:
# in a warm process whose caches went cold between requests, one import
# statement took 5-40 us, a cached call 1-5 us.


@lru_cache(maxsize=None)
def _cup_diagrams():
    from . import cup_diagrams
    return cup_diagrams


@lru_cache(maxsize=None)
def _bigrassmannian():
    from . import bigrassmannian
    return bigrassmannian


DEFAULT_N_MAX = 8

# cells writes a row for every element of S_n.  At n = 9 (362,880 rows)
# a fresh process took 0.49-0.61 s and a 25-28 MiB peak as TSV,
# 0.56-0.76 s and 25-56 MiB as JSON (2-core x86, 3-4 runs each); n = 10
# has ten times the rows.
MAX_CELLS_N = 9


class UsageError(Exception):
    pass


def _guard_n(n: int, n_max: int) -> None:
    if n < 1:
        raise UsageError(f'n must be positive, got {n}')
    if n > n_max:
        raise UsageError(
            f'n={n} exceeds the limit {n_max}; '
            'raise it with --n-max if you mean it'
        )
    if n_max > DEFAULT_N_MAX:
        print(
            f'warning: n limit raised to {n_max}; runs beyond n=8 can take '
            'very long and use much memory',
            file=sys.stderr,
        )


def _parse_parabolic(n: int, text: str):
    kind, sep, rest = text.partition(':')
    if not sep:
        raise UsageError(f'malformed parabolic descriptor {text!r}')
    if kind in ('min', 'max'):
        try:
            k = int(rest)
        except ValueError:
            raise UsageError(f'malformed k in {text!r}') from None
        if not 1 <= k <= n - 1:
            raise UsageError(f'k={k} out of range 1..{n - 1}')
        return kind, k
    if kind == 'comp':
        from .compositions import Composition

        try:
            mu = Composition.from_text(rest)
        except ValueError as e:
            raise UsageError(str(e)) from None
        if mu.n != n:
            raise UsageError(
                f'composition {rest} sums to {mu.n}, expected n={n}'
            )
        return kind, mu
    raise UsageError(f'unknown parabolic kind {kind!r}; use min, max or comp')


def _parse_perm(n: int, text: str) -> Permutation:
    try:
        w = parse_permutation(text)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if len(w.window) != n:
        raise UsageError(f'{text!r} is a window of size {len(w.window)}, not {n}')
    return w


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + '\n'


def _tsv_cell(value) -> str:
    if value is None:
        return '-'
    if value is True:
        return 'true'
    if value is False:
        return 'false'
    return str(value)


def _emit_tsv(header, rows) -> str:
    lines = ['# ' + '\t'.join(header)]
    for row in rows:
        lines.append('\t'.join(_tsv_cell(row.get(col)) for col in header))
    return '\n'.join(lines) + '\n'


def _mult_text(template, rows) -> str:
    """The text of rows, each the tuple of its template's arguments.  It
    encodes every row table, and keeps the name of the multiplicity
    rows it first wrote: perfbench's tracer times it as cli.encode."""
    return ''.join(starmap(template.format, rows))


# encoded and written this many rows at a time
CHUNK_ROWS = 512


def _row_chunks(head, template, columns, tail):
    """head, the rows of template over the columns (iterables) a chunk
    at a time, then tail.  The template takes first the separator from
    the row before: none for the first row, ',\n' after (which TSV
    templates leave out)."""
    rows = zip(chain(('',), repeat(',\n')), *columns)
    yield head
    while text := _mult_text(template, islice(rows, CHUNK_ROWS)):
        yield text
    yield tail


def _row_frame(fmt: str, context: dict, header) -> tuple:
    """(head, tail) around the rows: the TSV header, or the JSON of the
    context as _emit_json writes it, its closing '\n}\n' traded for
    the rows."""
    if fmt == 'tsv':
        return _emit_tsv(header, ()), ''
    head = _emit_json({'context': context})
    return head[:-3] + ',\n  "rows": [\n', '\n  ]\n}\n'


CLASSIFY_HEADER = ['w', 'word', 'verdict', 'thin', 'a_value',
                   'multiplicities']

# A classify max:k row in each format: (template, sep, factor).  The
# template takes the columns of _classify_max (the separator from the
# row before, w, word, verdict, thin, a_value) and the multiplicities
# last: the factor texts, joined by sep.  The JSON of every row
# template is what json.dumps(..., sort_keys=True, indent=2) writes;
# windows, labels, words, verdicts and shapes need no escaping.
MAX_ROW = {
    'tsv': ('{1}\t{2}\t{3}\t{4}\t{5}\t{6}\n', ';', '{}:{}'),
    'json': ('{0}    {{\n      "a_value": {5},\n      "multiplicities": [\n'
             '{6}\n      ],\n      "thin": {4},\n      "verdict": "{3}",\n'
             '      "w": "{1}",\n      "word": "{2}"\n    }}',
             ',\n', '        [\n          "{}",\n          {}\n        ]'),
}

# A classify min:k or comp: row in each format; the template takes the
# separator, w, verdict and thin.
CLASSIFY_ROW = {
    'tsv': '{1}\t-\t{2}\t{3}\t-\t-\n',
    'json': ('{0}    {{\n      "a_value": null,\n      "multiplicities": '
             'null,\n      "thin": {3},\n      "verdict": "{2}",\n'
             '      "w": "{1}",\n      "word": null\n    }}'),
}

CELLS_HEADER = ['w', 'shape', 'small', 'penultimate']

# A cells row in each format: (template, shape).  The template takes
# the separator, w and the text of its shape, which is shape.format of
# the shape, small and penultimate.
CELLS_ROW = {
    'tsv': ('{1}\t{2}\n', '{}\t{}\t{}'),
    'json': ('{0}    {{\n{2}      "w": "{1}"\n    }}',
             '      "penultimate": {2},\n      "shape": "{0}",\n'
             '      "small": {1},\n'),
}


def _classify_max(n: int, k: int, parabolic: str, fmt: str):
    """The chunks of classify max:k, after the table is built (a
    UsageError past its ceiling comes before any output)."""
    cup = _cup_diagrams()
    ctx = cup.MaxParContext(n, k)
    try:
        blk, rows, thin = cup.block_table(ctx)
    except ValueError as e:
        raise UsageError(str(e)) from None
    template, sep, factor = MAX_ROW[fmt]
    labels = list(map(blk.label, range(len(blk.words))))
    texts = [None] * (len(labels) << cup.DEGREE_BITS)
    for y, label in enumerate(labels):
        for d in range(blk.ncups[y] + 1):
            texts[y << cup.DEGREE_BITS | d] = factor.format(label, d)
    columns = (
        labels,
        blk.words,
        ['Positive' if cup.is_positive_word(ctx, word) else 'Negative'
         for word in blk.words],
        map(_tsv_cell, thin),
        blk.ncups,
        (sep.join(map(texts.__getitem__, factors)) for factors in rows),
    )
    head, tail = _row_frame(fmt, {'n': n, 'parabolic': parabolic},
                            CLASSIFY_HEADER)
    return _row_chunks(head, template, columns, tail)


def cmd_classify(n: int, parabolic: str, fmt: str, n_max: int):
    """Full classification table over the shortest coset reps."""
    _guard_n(n, n_max)
    kind, arg = _parse_parabolic(n, parabolic)
    if kind == 'max':
        return _classify_max(n, arg, parabolic, fmt), 0
    from .compositions import Composition, classify_all

    if kind == 'min':
        from .minimal_parabolic import MinParContext

        arg = Composition(MinParContext(n, arg).parts)
    try:
        classified = classify_all(arg)
    except ValueError as e:
        raise UsageError(str(e)) from None
    ws, verdicts, thin = zip(*classified)
    head, tail = _row_frame(fmt, {'n': n, 'parabolic': parabolic},
                            CLASSIFY_HEADER)
    return _row_chunks(head, CLASSIFY_ROW[fmt], (
        map(str, ws), verdicts, map(_tsv_cell, thin)), tail), 0


def _cup_mult_rows(ctx: MaxParContext, x: Permutation):
    cup = _cup_diagrams()
    try:
        blk = cup.block(ctx)
    except ValueError as e:
        raise UsageError(str(e)) from None
    factors, _ = blk.row(blk.index(x))
    mask = (1 << cup.DEGREE_BITS) - 1
    return [{'y': blk.label(f >> cup.DEGREE_BITS), 'degree': f & mask}
            for f in factors]


# The max:k tables _max_table holds, least recently used first.
_MAX_TABLES: dict = {}


def _max_table(ctx: MaxParContext) -> tuple:
    """parabolic_table for max:k, kept like block(ctx): a mult request
    reads one row of it.  The table is at most 2 KB at n <= 6; the
    largest that MAX_FILL_BYTES admits, at (22, 3) and (22, 19), takes
    69 MB.  The least recently used tables are dropped while the fill
    buffers held add up to more than MAX_FILL_BYTES, the bound of one
    fill, so a warm process holds at most that many bytes of them."""
    table = _MAX_TABLES.pop(ctx, None)
    if table is None:
        from .klcells import MAX_FILL_BYTES, parabolic_table

        table = parabolic_table((ctx.k, ctx.m))
        while _MAX_TABLES and table[1].base.nbytes + sum(
                S.base.nbytes for _, S in _MAX_TABLES.values()) \
                > MAX_FILL_BYTES:
            del _MAX_TABLES[next(iter(_MAX_TABLES))]
    _MAX_TABLES[ctx] = table
    return table


def _kl_mult_rows(ctx: MaxParContext, x: Permutation):
    try:
        reps, S = _max_table(ctx)
    except ValueError as e:
        raise UsageError(str(e)) from None
    sums = S[reps.index(x.window)]
    rows = []
    for window, coeffs in zip(reps, sums.tolist()):
        nonzero = [d for d, c in enumerate(coeffs) if c]
        if not nonzero:
            continue
        y = Permutation(window)
        shift = y.length - x.length
        if len(nonzero) == 1 and coeffs[nonzero[0]] == 1:
            degree = shift - 2 * nonzero[0]
        else:
            from .laurent import LaurentPolynomial

            degree = str(LaurentPolynomial.from_q_coeffs(coeffs, shift))
        rows.append({'y': str(y), 'degree': degree})
    return rows


def cmd_multiplicities(n: int, k: int, x_text: str, engine: str, fmt: str,
                       n_max: int):
    """Composition factors of one standard module, by either engine."""
    _guard_n(n, n_max)
    if not 1 <= k <= n - 1:
        raise UsageError(f'k={k} out of range 1..{n - 1}')
    ctx = _cup_diagrams().MaxParContext(n, k)
    x = _parse_perm(n, x_text)
    if not is_shortest_coset_rep(x, ctx.J):
        raise UsageError(f'{x_text} is not a shortest coset rep for max:{k}')
    agree = None
    if engine == 'cup':
        rows = _cup_mult_rows(ctx, x)
    elif engine == 'kl':
        rows = _kl_mult_rows(ctx, x)
    else:
        rows = _cup_mult_rows(ctx, x)
        agree = rows == _kl_mult_rows(ctx, x)
    payload = {
        'context': {'n': n, 'k': k, 'x': str(x), 'engine': engine},
        'rows': rows,
    }
    if agree is not None:
        payload['agree'] = agree
    code = 1 if agree is False else 0
    if fmt == 'json':
        return [_emit_json(payload)], code
    lines = [_emit_tsv(['y', 'degree'], rows)]
    if agree is not None:
        lines.append(f'# agree\t{_tsv_cell(agree)}\n')
    return lines, code


def cmd_socle(n: int, w_text: str, fmt: str, n_max: int):
    """Generators of the socle descriptor of one element."""
    _guard_n(n, n_max)
    w = _parse_perm(n, w_text)
    generators = sorted(
        str(b) for b in _bigrassmannian().socle_descriptor(w)
    )
    if fmt == 'json':
        payload = {'context': {'n': n, 'w': str(w)}, 'generators': generators}
        return [_emit_json(payload)], 0
    return [_emit_tsv(['generator'],
                      [{'generator': g} for g in generators])], 0


def cmd_cells(n: int, fmt: str, n_max: int):
    """Cell data for the whole group: shape, small and penultimate flags."""
    _guard_n(n, n_max)
    if n > MAX_CELLS_N:
        raise UsageError(
            'cells keeps a row for each of the n! elements of S_n, and is '
            f'kept to n <= {MAX_CELLS_N}'
        )
    from .tableaux import window_shapes

    # small: the shape (n-1, 1); penultimate: w w_0 small, and w -> w w_0
    # reverses the window, which transposes the shape
    small, penultimate = (n - 1, 1), (2,) + (1,) * (n - 2)
    template, shape_text = CELLS_ROW[fmt]
    shapes, ids = window_shapes(n)
    texts = [shape_text.format(','.join(map(str, shape)), _tsv_cell(
        shape == small), _tsv_cell(shape == penultimate)) for shape in shapes]
    windows = map(_window_text, permutations(map(str, range(1, n + 1))),
                  repeat(n))
    head, tail = _row_frame(fmt, {'n': n}, CELLS_HEADER)
    return _row_chunks(head, template, (
        windows, map(texts.__getitem__, ids)), tail), 0


def cmd_selftest(n_max: int) -> int:
    """Run every named check up to n_max and print a scoreboard; the
    time each check took goes to stderr."""
    from .checks import ALL_CHECKS

    if n_max > DEFAULT_N_MAX:
        raise UsageError(
            f'selftest is bounded at n_max={DEFAULT_N_MAX}; '
            f'{n_max} would not finish at a desk'
        )
    if n_max < 2:
        raise UsageError('selftest needs n_max >= 2')
    failures = 0
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn(n_max)
        except Exception as exc:
            ok, detail = False, f'unexpected {type(exc).__name__}: {exc}'
        print(f'{name}: {time.perf_counter() - start:.3f} s', file=sys.stderr)
        print(f'{"ok  " if ok else "FAIL"} {name}: {detail}')
        if not ok:
            failures += 1
    total = len(ALL_CHECKS)
    print(f'{total - failures}/{total} checks passed (n_max={n_max})')
    return 1 if failures else 0


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog='kostantpv',
        description='Kostant positivity of parabolic Verma modules for sl_n.',
    )
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('classify', help='classification table for one parabolic')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--parabolic', required=True,
                   help='min:k, max:k, or comp:p1,p2,...')
    p.add_argument('--format', choices=('json', 'tsv'), default='json')
    p.add_argument('--n-max', type=int, default=DEFAULT_N_MAX)

    p = sub.add_parser('mult', help='composition factors of a standard module')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--k', type=int, required=True)
    p.add_argument('--x', required=True, help='shortest coset rep')
    p.add_argument('--engine', choices=('cup', 'kl', 'both'), default='both')
    p.add_argument('--format', choices=('json', 'tsv'), default='json')
    p.add_argument('--n-max', type=int, default=DEFAULT_N_MAX)

    p = sub.add_parser('socle', help='socle descriptor generators')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--w', required=True)
    p.add_argument('--format', choices=('json', 'tsv'), default='json')
    p.add_argument('--n-max', type=int, default=DEFAULT_N_MAX)

    p = sub.add_parser('cells', help='cell membership data for S_n')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--format', choices=('json', 'tsv'), default='json')
    p.add_argument('--n-max', type=int, default=DEFAULT_N_MAX)

    p = sub.add_parser('selftest', help='run the named consistency checks')
    p.add_argument('--n-max', type=int, default=5)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == 'classify':
            out, code = cmd_classify(args.n, args.parabolic, args.format,
                                     args.n_max)
        elif args.command == 'mult':
            out, code = cmd_multiplicities(args.n, args.k, args.x,
                                           args.engine, args.format,
                                           args.n_max)
        elif args.command == 'socle':
            out, code = cmd_socle(args.n, args.w, args.format, args.n_max)
        elif args.command == 'cells':
            out, code = cmd_cells(args.n, args.format, args.n_max)
        else:
            return cmd_selftest(args.n_max)
    except UsageError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    sys.stdout.writelines(out)
    return code


if __name__ == '__main__':
    sys.exit(main())
