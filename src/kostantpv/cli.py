r"""
Command-line front end: batch classification, multiplicity tables,
socle descriptors, cell membership, and the selftest scoreboard.

Output is deterministic: identical invocations produce byte-identical
stdout.  JSON objects are emitted with sorted keys; TSV rows use the
permutation digit form and '^'/'v' weight words so tables stay
grep-able.  Exit codes: 0 success, 1 check failure (an engine
disagreement or a failing selftest), 2 usage error: main prints any
ValueError a command raises before it writes, its own or an engine's
(a malformed argument, a request past a ceiling), as 'error: ...';
141 when stdout is closed early (a reader such as head that stops), as
SIGPIPE would, with nothing on stderr.  Every other exception is a
fault, and main does not catch it.

The default n ceiling is 8.  It can be raised with --n-max, with a
warning, except for selftest where 8 is a hard bound.  Paths that need
a parabolic Kazhdan-Lusztig table (classify min:k and comp:, and mult
with the kl and both engines) refuse a fill over klcells.MAX_FILL_BYTES,
counted from the parts alone; mult reads its table from
klcells.held_table, which keeps tables within that bound in all, so the
CLI holds none.  classify max:k refuses blocks with more than
cup_diagrams.MAX_TABLE_FACTORS composition factors, mult --engine cup
rows of more than cup_diagrams.MAX_ROW_FACTORS, cells n > MAX_CELLS_N
and socle n > MAX_SOCLE_N.

Each command is declared once, in COMMANDS, with the options they
share beside it.  main reads a request's argv off that table
(_read_args) and calls the command's handler; only an argv the reader
declines (help, a flag abbreviated, repeated or given as --flag=value,
a missing or malformed argument) goes to the argparse parser built
from the same table, which prints help, usage and refusals.  A
handler returns its stdout as a sequence of chunks and its exit code,
and main alone writes them.  Every command but selftest encodes its
rows a chunk at a time through a per-format row template, from windows
and precomputed texts (per factor, verdict, generator or shape) and
the ints the engines return, so no row object and no whole page of
output is ever held (socle sorts its generators' texts); selftest
returns its scoreboard, a line per check and the total.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import lru_cache
from importlib import import_module
from itertools import chain, islice, permutations, repeat, starmap
from types import SimpleNamespace

from .permutations import (
    Permutation,
    _window_text,
    decimal,
    parse_permutation,
)

# Every command reaches the engines it runs through the cached loader
# below, so a request loads (and, when no bytecode is written,
# compiles) only those engines, and none loads numpy: classify max:k
# and mult --engine cup the cup diagrams alone.  No function a request
# runs has an import statement: in a warm process whose caches went
# cold between requests, one import statement took 5-40 us, a cached
# call 1-5 us, and the requests of classify max:k, mult and socle take
# well under a millisecond.  argparse is imported in _build_parser
# alone, which runs only for help and refusals.


@lru_cache(maxsize=None)
def _engine(name: str):
    """The module kostantpv.<name>, imported on first use."""
    return import_module(f'{__package__}.{name}')


DEFAULT_N_MAX = 8

# cells writes a row for every element of S_n.  At n = 9 (362,880 rows)
# a fresh process took 0.49-0.61 s and a 25-28 MiB peak as TSV,
# 0.56-0.76 s and 25-56 MiB as JSON (2-core x86, 3-4 runs each); n = 10
# has ten times the rows.
MAX_CELLS_N = 9

# socle writes a generator, an n-window, per essential box of w: up to
# n^2 / 8 of them, at the zigzag window h+1, h-1, h+3, h-3, ..., n-1, 1,
# n, 2, n-2, 4, ... (h = n / 2), the most a search over small n found;
# a random window has about n^2 / 36.  It holds their texts alone, to
# sort them: at n = 720 that window took 1.4-2.2 s and a 211 MiB peak
# as JSON or TSV, within classify --n 18 max:9 TSV (3.6 s, 215 MiB);
# memory binds, n = 724 took 214 MiB (2-core x86, fresh processes).
MAX_SOCLE_N = 720


def _guard_n(n: int, n_max: int) -> None:
    if n < 1:
        raise ValueError(f'n must be positive, got {n}')
    if n > n_max:
        raise ValueError(
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
    """(kind, context): the MaxParContext of max:k, the Composition of
    the Levi of min:k and comp:.  A k out of range or a malformed part
    raises the ValueError of the context or of Composition.from_text."""
    kind, sep, rest = text.partition(':')
    if not sep:
        raise ValueError(f'malformed parabolic descriptor {text!r}')
    if kind in ('min', 'max'):
        try:
            k = decimal(rest)
        except ValueError:
            raise ValueError(f'malformed k in {text!r}') from None
        if kind == 'max':
            return kind, _engine('cup_diagrams').MaxParContext(n, k)
        return kind, _engine('compositions').Composition(
            _engine('minimal_parabolic').MinParContext(n, k).parts)
    if kind == 'comp':
        mu = _engine('compositions').Composition.from_text(rest)
        if mu.n != n:
            raise ValueError(
                f'composition {rest} sums to {mu.n}, expected n={n}'
            )
        return kind, mu
    raise ValueError(f'unknown parabolic kind {kind!r}; use min, max or comp')


def _parse_perm(n: int, flag: str, text: str) -> Permutation:
    """The window of size n given as the argument flag; a ValueError
    names the flag."""
    try:
        w = parse_permutation(text)
    except ValueError as exc:
        raise ValueError(f'argument {flag}: {exc}') from None
    if len(w.window) != n:
        raise ValueError(f'argument {flag}: {text!r} is a window of size '
                         f'{len(w.window)}, not {n}')
    return w


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + '\n'


def _bool_text(flag) -> str:
    """A bool as JSON and TSV write it."""
    return 'true' if flag else 'false'


def _emit_tsv(header) -> str:
    return '# ' + '\t'.join(header) + '\n'


def _mult_text(template, rows) -> str:
    """The text of rows, each the tuple of its template's arguments.  It
    encodes every command's rows, and keeps the name of the multiplicity
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
    text = _mult_text(template, islice(rows, CHUNK_ROWS))
    if not text:  # json.dumps writes a list with no rows as '[]'
        yield (head + tail).replace('[\n\n  ]', '[]')
        return
    yield head
    while text:
        yield text
        text = _mult_text(template, islice(rows, CHUNK_ROWS))
    yield tail


def _row_frame(fmt: str, fields: dict, header, key='rows') -> tuple:
    """(head, tail) around the rows: the TSV header, or the JSON of the
    head fields and of the row list under key, which sorts after them,
    as _emit_json writes it, the list opened for the rows."""
    if fmt == 'tsv':
        return _emit_tsv(header), ''
    head = _emit_json(fields)
    return head[:-3] + f',\n  "{key}": [\n', '\n  ]\n}\n'


# A classify max:k row in each format: (template, sep, factor).  The
# template takes the columns of _max_rows (the separator from the
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

# A mult row in each format; the template takes the separator, y and
# the degree of y's factor, an int.
MULT_ROW = {
    'tsv': '{1}\t{2}\n',
    'json': '{0}    {{\n      "degree": {2},\n      "y": "{1}"\n    }}',
}

# A socle generator in each format; the template takes the separator
# and the text of the generator's window.
SOCLE_ROW = {'tsv': '{1}\n', 'json': '{0}    "{1}"'}

# A cells row in each format: (template, shape).  The template takes
# the separator, w and the text of its shape, which is shape.format of
# the shape, small and penultimate.
CELLS_ROW = {
    'tsv': ('{1}\t{2}\n', '{}\t{}\t{}'),
    'json': ('{0}    {{\n{2}      "w": "{1}"\n    }}',
             '      "penultimate": {2},\n      "shape": "{0}",\n'
             '      "small": {1},\n'),
}


def _max_rows(ctx: MaxParContext, fmt: str):
    """(template, columns) of the classify max:k rows, after the table
    is built (its ValueError past the ceiling comes before any output)."""
    cup = _engine('cup_diagrams')
    words, ncups, rows, thin = cup.block_table(ctx)
    template, sep, factor = MAX_ROW[fmt]
    labels = list(map(cup.labeller(ctx), words))
    texts = [factor.format(labels[y], d) for y, d in cup.factors(ncups)]
    return template, (
        labels,
        words,
        ['Positive' if cup.is_positive_word(ctx, word) else 'Negative'
         for word in words],
        map(_bool_text, thin),
        ncups,
        (sep.join(map(texts.__getitem__, factors)) for factors in rows),
    )


def cmd_classify(args):
    """Full classification table over the shortest coset reps."""
    n, fmt = args.n, args.format
    _guard_n(n, args.n_max)
    kind, ctx = _parse_parabolic(n, args.parabolic)
    if kind == 'max':
        template, columns = _max_rows(ctx, fmt)
    else:
        ws, verdicts, thin = zip(*_engine('compositions').classify_all(ctx))
        template, columns = CLASSIFY_ROW[fmt], (
            (_window_text(map(str, w), n) for w in ws), verdicts,
            map(_bool_text, thin))
    head, tail = _row_frame(
        fmt, {'context': {'n': n, 'parabolic': args.parabolic}},
        ['w', 'word', 'verdict', 'thin', 'a_value', 'multiplicities'])
    return _row_chunks(head, template, columns, tail), 0


def cmd_multiplicities(args):
    """Composition factors of one standard module, by either engine."""
    n, k, engine, fmt = args.n, args.k, args.engine, args.format
    _guard_n(n, args.n_max)
    cup = _engine('cup_diagrams')
    ctx = cup.MaxParContext(n, k)
    x = _parse_perm(n, '--x', args.x)
    try:  # phi's own message does not echo the text given
        word = cup.phi(ctx, x)
    except ValueError:
        raise ValueError(f'{args.x} is not a shortest coset rep for max:{k}'
                         ) from None
    # a row is (the text of y, the degree of its factor)
    if engine != 'kl':
        label = cup.labeller(ctx)
        rows = [(label(y), d) for y, d in cup.row(ctx, word)[0]]
    if engine != 'cup':
        klcells = _engine('klcells')
        kl_rows = [(_window_text(map(str, y), n), d)
                   for y, d in klcells.graded_row(
                       klcells.held_table((k, n - k)), x.window)]
    fields = {'context': {'n': n, 'k': k, 'x': str(x), 'engine': engine}}
    if engine == 'kl':
        rows = kl_rows
    elif engine == 'both':
        fields['agree'] = rows == kl_rows
    agree = fields.get('agree')
    head, tail = _row_frame(fmt, fields, ['y', 'degree'])
    if fmt == 'tsv' and agree is not None:
        tail = f'# agree\t{_bool_text(agree)}\n'
    return _row_chunks(head, MULT_ROW[fmt], (
        (y for y, _ in rows), (d for _, d in rows)), tail), (
        1 if agree is False else 0)


def cmd_socle(args):
    """Generators of the socle descriptor of one element, by text."""
    n, fmt = args.n, args.format
    _guard_n(n, args.n_max)
    if n > MAX_SOCLE_N:
        raise ValueError(
            'socle lists up to n^2/8 generators of n values each, and is '
            f'kept to n <= {MAX_SOCLE_N}'
        )
    w = _parse_perm(n, '--w', args.w)
    texts = sorted(_window_text(window, n) for window in _engine(
        'bigrassmannian').socle_windows(w, list(map(str, range(n + 1)))))
    head, tail = _row_frame(fmt, {'context': {'n': n, 'w': str(w)}},
                            ['generator'], 'generators')
    return _row_chunks(head, SOCLE_ROW[fmt], (texts,), tail), 0


def cmd_cells(args):
    """Cell data for the whole group: shape, small and penultimate flags."""
    n = args.n
    _guard_n(n, args.n_max)
    if n > MAX_CELLS_N:
        raise ValueError(
            'cells keeps a row for each of the n! elements of S_n, and is '
            f'kept to n <= {MAX_CELLS_N}'
        )
    # small: the shape (n-1, 1); penultimate: w w_0 small, and w -> w w_0
    # reverses the window, which transposes the shape
    small, penultimate = (n - 1, 1), (2,) + (1,) * (n - 2)
    template, shape_text = CELLS_ROW[args.format]
    shapes, ids = _engine('tableaux').window_shapes(n)
    texts = [shape_text.format(','.join(map(str, shape)), _bool_text(
        shape == small), _bool_text(shape == penultimate)) for shape in shapes]
    windows = map(_window_text, permutations(map(str, range(1, n + 1))),
                  repeat(n))
    head, tail = _row_frame(args.format, {'context': {'n': n}},
                            ['w', 'shape', 'small', 'penultimate'])
    return _row_chunks(head, template, (
        windows, map(texts.__getitem__, ids)), tail), 0


def cmd_selftest(args):
    """Run every named check up to n_max and return the scoreboard; the
    time each check took goes to stderr as it ends."""
    n_max = args.n_max
    if n_max > DEFAULT_N_MAX:
        raise ValueError(
            f'selftest is bounded at n_max={DEFAULT_N_MAX}; '
            f'{n_max} would not finish at a desk'
        )
    if n_max < 2:
        raise ValueError('selftest needs n_max >= 2')
    checks = _engine('checks').ALL_CHECKS
    lines, passed = [], 0
    for name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn(n_max)
        except Exception as exc:
            ok, detail = False, f'unexpected {type(exc).__name__}: {exc}'
        print(f'{name}: {time.perf_counter() - start:.3f} s', file=sys.stderr)
        lines.append(f'{"ok  " if ok else "FAIL"} {name}: {detail}\n')
        passed += ok
    lines.append(f'{passed}/{len(checks)} checks passed (n_max={n_max})\n')
    return lines, 0 if passed == len(checks) else 1


# The options every command but selftest shares, each (flag,
# add_argument keywords): --n first, --format and --n-max last, around
# the command's own.  selftest takes --n-max alone, default 5.
N_OPTION = ('--n', {'type': decimal, 'required': True})
TAIL_OPTIONS = (
    ('--format', {'choices': ('json', 'tsv'), 'default': 'json'}),
    ('--n-max', {'type': decimal, 'default': DEFAULT_N_MAX}),
)

# (name, help, handler, every argument the command takes, in help order)
COMMANDS = (
    ('classify', 'classification table for one parabolic', cmd_classify, (
        N_OPTION,
        ('--parabolic', {'required': True,
                         'help': 'min:k, max:k, or comp:p1,p2,...'}),
        *TAIL_OPTIONS,
    )),
    ('mult', 'composition factors of a standard module', cmd_multiplicities, (
        N_OPTION,
        ('--k', {'type': decimal, 'required': True}),
        ('--x', {'required': True, 'help': 'shortest coset rep'}),
        ('--engine', {'choices': ('cup', 'kl', 'both'), 'default': 'both'}),
        *TAIL_OPTIONS,
    )),
    ('socle', 'socle descriptor generators', cmd_socle, (
        N_OPTION, ('--w', {'required': True}), *TAIL_OPTIONS,
    )),
    ('cells', 'cell membership data for S_n', cmd_cells, (
        N_OPTION, *TAIL_OPTIONS,
    )),
    ('selftest', 'run the named consistency checks', cmd_selftest, (
        ('--n-max', {'type': decimal, 'default': 5}),
    )),
)


@lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process from COMMANDS:
    parse_args keeps no state between calls.  main builds it only for
    an argv _read_args declines (help, usage and refusals), so a
    request that reads cleanly never imports argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog='kostantpv',
        description='Kostant positivity of parabolic Verma modules for sl_n.',
    )
    sub = parser.add_subparsers(dest='command', required=True)
    for name, help_text, run, options in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag's value under."""
    return flag[2:].replace('-', '_')


# What _read_args reads off COMMANDS, per command: (handler, {flag:
# (dest, type, choices)}, {dest: default}, the required flags).
_READING = {
    name: (
        run,
        {flag: (_dest(flag), kw.get('type'), kw.get('choices'))
         for flag, kw in options},
        {_dest(flag): kw.get('default') for flag, kw in options},
        {flag for flag, kw in options if kw.get('required')},
    )
    for name, _, run, options in COMMANDS
}


def _read_args(argv):
    """The namespace the parser builds for argv, when argv is a command
    then (flag, value) pairs, each flag the command's, in full and once,
    each value not starting with '-' and of its type and choices, every
    required flag given; otherwise None, and the parser reads argv."""
    if not argv or argv[0] not in _READING:
        return None
    run, flags, defaults, required = _READING[argv[0]]
    given = argv[1::2]
    if len(argv) % 2 == 0 or len(set(given)) < len(given) or not (
            required.issubset(given)):
        return None
    values = dict(defaults)
    for flag, text in zip(given, argv[2::2]):
        if flag not in flags or text[:1] == '-':
            return None
        dest, kind, choices = flags[flag]
        if kind is not None:
            try:
                text = kind(text)
            except ValueError:
                return None
        if choices is not None and text not in choices:
            return None
        values[dest] = text
    return SimpleNamespace(command=argv[0], run=run, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv) or _build_parser().parse_args(argv)
    try:
        try:
            out, code = args.run(args)
        except ValueError as exc:
            print(f'error: {exc}', file=sys.stderr)
            return 2
        sys.stdout.writelines(out)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at devnull, so the flush
        # at exit cannot raise again, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == '__main__':
    sys.exit(main())
