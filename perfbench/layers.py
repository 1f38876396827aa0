"""Per-layer metrics, and the end-to-end metric each should move.

Written down before any timing, as the benchmark's prediction: a change
to a layer should move the end-to-end metrics named beside it, on the
workloads named there, and leave the others alone.  The traced run
prints this table with its numbers; BENCHMARK.json lists the same
metrics, in the same order, under "per_layer".
"""

from __future__ import annotations

# Prediction for each group of layer metrics.
KL_TABLES = ('wall_s, request_p50_s and peak_rss_mb on klpar; only setup_s '
             'on session; nothing on maxpar')
ALT_SUM = 'wall_s on klpar; request_p50_s and request_tail_s on session'
CUP = ('wall_s and request_tail_s on maxpar; a little on klpar and '
       'session')
OBJECTS = 'request_tail_s on session; wall_s on selftest'
CHECK = 'wall_s on selftest'
ENCODE = 'wall_s on maxpar and session'
CACHE = ('setup_s on session and wall_s on klpar; the counts tell a cold '
         'request from a warm one')
TRACE = 'none: the cost of tracing itself'

# The names of kostantpv.checks.ALL_CHECKS, in scoreboard order.
CHECK_NAMES = (
    'x-sets', 'factorization', 'case-chains', 'positivity-ratio',
    'worked-tables', 'cross-oracle', 'thin-y', 'branch-consistency',
    'linear-quiver', 'socle-shadow', 'kl-properties', 'reconciliation',
)

CACHE_PREFIXES = (
    'groupindex.group_index', 'cup_diagrams.shortest_reps',
    'bigrassmannian.bigrassmannians',
    'compositions.right_cell_of_longest_quotient',
)


def _span(name, field):
    index = {'calls': 0, 'total_s': 1, 'self_s': 2}[field]
    return lambda r: r['spans'].get(name, (0, 0.0, 0.0))[index]


def _count(name):
    return lambda r: r['counts'].get(name, 0)


def _cache(name):
    return lambda r: r['cache'].get(name, 0)


def _distinct_ratio(name):
    def ratio(r):
        calls = r['counts'].get(name, 0)
        return r['distinct'].get(name, 0) / calls if calls else 0.0
    return ratio


# (metric, unit, better, prediction, value from a merged trace report).
# 'cli.stdout_bytes' and 'trace.overhead_s' are measured by the harness.
METRICS = [
    ('groupindex.build_s', 's', 'lower', KL_TABLES,
     _span('groupindex.build', 'total_s')),
    ('groupindex.N', 'count', 'lower', KL_TABLES, _count('groupindex.N')),
    ('kernels.leq_matrix.self_s', 's', 'lower', KL_TABLES,
     _span('kernels.leq_matrix', 'self_s')),
    ('kernels.leq_matrix.bytes', 'bytes', 'lower', KL_TABLES,
     _count('kernels.leq_matrix.bytes')),
    ('kernels.kl_fill.self_s', 's', 'lower', KL_TABLES,
     _span('kernels.kl_fill', 'self_s')),
    ('kernels.kl_fill.bytes', 'bytes', 'lower', KL_TABLES,
     _count('kernels.kl_fill.bytes')),
    ('klcells.kl_table.hits', 'count', 'higher', KL_TABLES,
     _cache('klcells.kl_table.hits')),
    ('klcells.kl_table.misses', 'count', 'lower', KL_TABLES,
     _cache('klcells.kl_table.misses')),
    ('klcells.parabolic_verma_multiplicity.calls', 'count', 'lower', ALT_SUM,
     _span('klcells.parabolic_verma_multiplicity', 'calls')),
    ('klcells.parabolic_verma_multiplicity.self_s', 's', 'lower', ALT_SUM,
     _span('klcells.parabolic_verma_multiplicity', 'self_s')),
    ('laurent.calls', 'count', 'lower', ALT_SUM, _span('laurent', 'calls')),
    ('laurent.self_s', 's', 'lower', ALT_SUM, _span('laurent', 'self_s')),
    ('compositions.is_thin_general.self_s', 's', 'lower', ALT_SUM,
     _span('compositions.is_thin_general', 'self_s')),
    ('compositions.positive_sufficient.self_s', 's', 'lower', ALT_SUM,
     _span('compositions.positive_sufficient', 'self_s')),
    ('minimal_parabolic.factorize.self_s', 's', 'lower', ALT_SUM,
     _span('minimal_parabolic.factorize', 'self_s')),
    ('cup_diagrams.graded_multiplicity.calls', 'count', 'lower', CUP,
     _span('cup_diagrams.graded_multiplicity', 'calls')),
    ('cup_diagrams.graded_multiplicity.self_s', 's', 'lower', CUP,
     _span('cup_diagrams.graded_multiplicity', 'self_s')),
    ('cup_diagrams.d_of.calls', 'count', 'lower', CUP,
     _count('cup_diagrams.d_of')),
    ('cup_diagrams.d_of.distinct_ratio', 'ratio', 'higher', CUP,
     _distinct_ratio('cup_diagrams.d_of')),
    ('cup_diagrams.phi.calls', 'count', 'lower', CUP,
     _count('cup_diagrams.phi')),
    ('cup_diagrams.is_thin.self_s', 's', 'lower', CUP,
     _span('cup_diagrams.is_thin', 'self_s')),
    ('permutations.is_shortest_coset_rep.calls', 'count', 'lower', CUP,
     _count('permutations.is_shortest_coset_rep')),
    ('permutations.bruhat_leq.calls', 'count', 'lower', OBJECTS,
     _count('permutations.bruhat_leq')),
    ('bigrassmannian.socle_descriptor.self_s', 's', 'lower', OBJECTS,
     _span('bigrassmannian.socle_descriptor', 'self_s')),
    ('tableaux.rsk.calls', 'count', 'lower', OBJECTS,
     _span('tableaux.rsk', 'calls')),
    ('tableaux.rsk.self_s', 's', 'lower', OBJECTS,
     _span('tableaux.rsk', 'self_s')),
    ('klcells.is_small_cell_member.self_s', 's', 'lower', OBJECTS,
     _span('klcells.is_small_cell_member', 'self_s')),
    *[(f'checks.{name}.total_s', 's', 'lower', CHECK,
       _span(f'checks.{name}', 'total_s')) for name in CHECK_NAMES],
    ('cli.encode.self_s', 's', 'lower', ENCODE, _span('cli.encode', 'self_s')),
    ('cli.stdout_bytes', 'bytes', 'lower', ENCODE, None),
    *[(f'{prefix}.{kind}', 'count', better, CACHE,
       _cache(f'{prefix}.{kind}'))
      for prefix in CACHE_PREFIXES
      for kind, better in (('hits', 'higher'), ('misses', 'lower'))],
    ('trace.overhead_s', 's', 'lower', TRACE, None),
]


def per_layer(report, stdout_bytes, overhead_s) -> dict:
    """Every per-layer metric as {name: {'value', 'unit'}}."""
    measured = {'cli.stdout_bytes': stdout_bytes,
                'trace.overhead_s': overhead_s}
    return {
        name: {'value': measured[name] if get is None else get(report),
               'unit': unit}
        for name, unit, _, _, get in METRICS
    }
