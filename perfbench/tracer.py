"""Per-layer tracing of kostantpv, attached from outside the program.

The tracer wraps public functions of the program's modules.  Because
the modules import each other with ``from .x import y``, a function is
replaced under every name that refers to it in every kostantpv module,
not only where it is defined; methods are replaced on their class.

Two kinds of wrapper:

- a span records calls, total time and self time (total minus the time
  of spans nested inside it);
- a count records calls only.  It is used for leaves so hot that timing
  each call would cost more than the call (``bruhat_leq``, ``d_of``,
  ``phi``, ``is_shortest_coset_rep``).

Spans and counts are kept in memory as per-name aggregates and read
with ``report()``.  Cache counters come from ``cache_info()`` and table
sizes from array shapes ("computed" bytes, not measured memory).
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

PACKAGE = 'kostantpv'

MODULES = (
    '_kernels', 'bigrassmannian', 'checks', 'cli', 'compositions',
    'cup_diagrams', 'groupindex', 'klcells', 'laurent',
    'minimal_parabolic', 'permutations', 'tableaux',
)

# (module, attribute, span name): plain functions timed as spans.
SPANS = (
    ('klcells', 'parabolic_verma_multiplicity',
     'klcells.parabolic_verma_multiplicity'),
    ('klcells', 'is_small_cell_member', 'klcells.is_small_cell_member'),
    ('compositions', 'is_thin_general', 'compositions.is_thin_general'),
    ('compositions', 'positive_sufficient', 'compositions.positive_sufficient'),
    ('minimal_parabolic', 'factorize', 'minimal_parabolic.factorize'),
    ('cup_diagrams', 'graded_multiplicity', 'cup_diagrams.graded_multiplicity'),
    ('cup_diagrams', 'is_thin', 'cup_diagrams.is_thin'),
    ('bigrassmannian', 'socle_descriptor', 'bigrassmannian.socle_descriptor'),
    ('tableaux', 'rsk', 'tableaux.rsk'),
    ('cli', '_emit_json', 'cli.encode'),
    ('cli', '_emit_tsv', 'cli.encode'),
    ('cli', '_mult_text', 'cli.encode'),
)

# Kernels: spans whose result array size is added to '<name>.bytes'.
KERNELS = (
    ('_kernels', 'leq_matrix', 'kernels.leq_matrix'),
    ('_kernels', 'kl_fill', 'kernels.kl_fill'),
)

# (module, attribute, count name, count distinct first arguments?)
COUNTS = (
    ('permutations', 'bruhat_leq', 'permutations.bruhat_leq', False),
    ('permutations', 'is_shortest_coset_rep',
     'permutations.is_shortest_coset_rep', False),
    ('cup_diagrams', 'd_of', 'cup_diagrams.d_of', True),
    ('cup_diagrams', 'phi', 'cup_diagrams.phi', False),
)

# Methods of LaurentPolynomial, all reported as the one layer 'laurent'.
LAURENT_METHODS = (
    '__init__', 'zero', 'one', 'monomial', 'from_q_coeffs', 'is_zero',
    'coefficient', 'at_one', 'is_nonnegative', 'exponents', 'shifted',
    '__add__', '__sub__', '__neg__', '__mul__', '__eq__', '__str__',
)

# (module, lru_cache'd attribute, counter prefix)
CACHES = (
    ('groupindex', 'group_index', 'groupindex.group_index'),
    ('klcells', 'kl_table', 'klcells.kl_table'),
    ('cup_diagrams', 'shortest_reps', 'cup_diagrams.shortest_reps'),
    ('bigrassmannian', 'bigrassmannians', 'bigrassmannian.bigrassmannians'),
    ('compositions', 'right_cell_of_longest_quotient',
     'compositions.right_cell_of_longest_quotient'),
)


def _module(name: str):
    return importlib.import_module(f'{PACKAGE}.{name}')


class Tracer:
    """Wraps the program's layers; ``uninstall`` restores them."""

    def __init__(self):
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.distinct = {}       # count name -> set of first arguments
        self._open = []          # child-time accumulator per open span
        self._undo = []
        self._cache_base = {}

    # -- wrappers

    def _span(self, name, fn, after=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn, distinct):
        counts = self.counts
        if distinct:
            seen = self.distinct.setdefault(name, set())

            def counted(*args, **kwargs):
                counts[name] += 1
                seen.add(args[0])
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _add_bytes(self, name):
        def after(_args, result):
            self.counts[name + '.bytes'] += result.size * result.itemsize
        return after

    def _add_group_size(self, args, _result):
        self.counts['groupindex.N'] += args[0].N

    # -- patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped):
        """Rebind every module-level name that refers to `original`."""
        for name in MODULES:
            mod = _module(name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _wrap_method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._span(name, raw.__func__)))
        else:
            self._set(cls, attr, self._span(name, raw))

    def install(self):
        for mod, attr, name in SPANS:
            fn = getattr(_module(mod), attr)
            self._replace_everywhere(fn, self._span(name, fn))
        for mod, attr, name in KERNELS:
            fn = getattr(_module(mod), attr)
            self._replace_everywhere(
                fn, self._span(name, fn, after=self._add_bytes(name)))
        for mod, attr, name, distinct in COUNTS:
            fn = getattr(_module(mod), attr)
            self._replace_everywhere(fn, self._count(name, fn, distinct))
        cls = _module('laurent').LaurentPolynomial
        for attr in LAURENT_METHODS:
            self._wrap_method(cls, attr, 'laurent')
        self._set(_module('groupindex').GroupIndex, '__init__', self._span(
            'groupindex.build',
            _module('groupindex').GroupIndex.__dict__['__init__'],
            after=self._add_group_size))
        # The scoreboard holds its check functions in a tuple, bound at
        # import; replace the tuple in every module that imported it.
        checks = _module('checks').ALL_CHECKS
        self._replace_everywhere(checks, tuple(
            (name, self._span(f'checks.{name}', fn)) for name, fn in checks))
        self._cache_base = self._cache_counts()

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading

    @staticmethod
    def _cache_counts():
        out = {}
        for mod, attr, prefix in CACHES:
            info = getattr(_module(mod), attr).cache_info()
            out[prefix + '.hits'] = info.hits
            out[prefix + '.misses'] = info.misses
        return out

    def report(self) -> dict:
        """Raw per-name aggregates, summable across processes."""
        cache = self._cache_counts()
        return {
            'spans': {k: list(v) for k, v in self.spans.items()},
            'counts': dict(self.counts),
            'distinct': {k: len(v) for k, v in self.distinct.items()},
            'cache': {k: v - self._cache_base.get(k, 0)
                      for k, v in cache.items()},
        }


def merge(reports) -> dict:
    """Sum raw reports from several processes."""
    total = {'spans': {}, 'counts': Counter(), 'distinct': Counter(),
             'cache': Counter()}
    for rep in reports:
        for name, (calls, tot, self_s) in rep['spans'].items():
            acc = total['spans'].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += tot
            acc[2] += self_s
        for part in ('counts', 'distinct', 'cache'):
            total[part].update(rep[part])
    return total


def run_traced(main, argv):
    """Run ``main(argv)`` under a fresh tracer; return (exit code, report)."""
    tracer = Tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    return code, tracer.report()

