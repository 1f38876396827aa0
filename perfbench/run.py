"""Benchmark of the kostantpv command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout; the package is imported from
its src/ directory, never from an installed copy.  One client drives
``kostantpv.cli.main(argv)`` in a closed loop: the next request is sent
only after the previous one returned.  The workloads (workloads.py) are

  maxpar    classify max:k for every k at n = 8, 9, 10, a fresh
            interpreter per request (cup-diagram engine, no KL tables);
  klpar     classify min:k / comp: and mult --engine both at n = 6, a
            fresh interpreter per request (each builds the KL table);
  session   about 270 requests at n <= 8 served by one warm process
            whose KL tables were built during set-up;
  selftest  selftest --n-max 8, in a fresh interpreter.

Every request's stdout is checked against goldens.json; a request that
exits nonzero, reports disagreeing engines or differs from its golden
counts as failed, and the run goes on.  Requests not started within
--seconds also count as failed; the passes are sized to finish well
inside the --seconds of BENCHMARK.json on two cores.

All processes of a run share one core, and every time is calibrated
against a probe of that core's speed (calibration.py): the values are
reference seconds.  Raw times are printed beside them.

With --trace 0 the last line of stdout holds the end-to-end metrics:
setup_s (median set-up: interpreter start and import of kostantpv.cli,
plus the table warm-up for session), wall_s (one pass: the sum of its
request times), request_p50_s and peak_rss_mb (largest child process).
Lines before it give the environment stamp, request_tail_s with its
percentile and sample count, and failed_frac.  With --trace 1 the pass
runs twice, untraced and then traced (tracer.py); the last line holds
the per-layer metrics of the traced pass (layers.py) and the tracing
overhead, traced wall_s minus untraced wall_s.  `--workload all` runs
every workload in turn and prints each one's lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COLD_SETUPS = 5       # set-ups timed per cold run; the median is reported
SESSION_SETUPS = 3    # session processes started per run; the last serves
CHILD_TIMEOUT = 100   # seconds; a run must end within 180


def child_env() -> dict:
    """The children's environment: the checkout's sources, and one fixed
    string-hash seed, because set and dict orders decide how soon some of
    the program's loops exit (a random seed moved session wall_s by 4%)."""
    env = dict(os.environ)
    env['PYTHONPATH'] = str(SRC)
    env['PYTHONHASHSEED'] = '0'
    return env


def env_stamp(workload: str, seed: int, trace: int) -> dict:
    """What the numbers depend on besides the code.

    A numba machine and a numpy-only machine run different kernels;
    compare.py refuses to compare runs whose kernel paths differ.
    """
    sha = 'unknown'
    if (ROOT / '.git').exists():
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    try:
        numba_version = metadata.version('numba')
    except metadata.PackageNotFoundError:
        numba_version = None
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    no_numba = os.environ.get('KOSTANTPV_NO_NUMBA', '')
    return {
        'workload': workload, 'seed': seed, 'trace': trace,
        'git_sha': sha,
        'python': platform.python_version(),
        'numpy': metadata.version('numpy'),
        'numba_version': numba_version,
        'numba_imports': numba_imports,
        'KOSTANTPV_NO_NUMBA': no_numba,
        'kernel_path': 'numba' if numba_imports and not no_numba else 'numpy',
        'nproc': len(os.sched_getaffinity(0)),
    }


class Pass:
    """The outcome of serving one pass of requests.

    Each result is [argv, calibrated seconds or None if not served,
    failure or None, stdout bytes, raw seconds or None].
    """

    def __init__(self, results, raw_wall_s, reports=()):
        self.results = results
        self.raw_wall_s = raw_wall_s
        self.reports = list(reports)

    @property
    def times(self):
        return [r[1] for r in self.results if r[1] is not None]

    @property
    def wall_s(self):
        """Calibrated time of the pass: the sum of its request times."""
        return sum(self.times)

    @property
    def failed(self):
        return sum(1 for r in self.results if r[2] is not None)

    @property
    def stdout_bytes(self):
        return sum(r[3] for r in self.results)

    def report_failures(self):
        for argv, _, why, *_ in self.results:
            if why is not None:
                print(f'FAILED {workloads.key(argv)}: {why}', file=sys.stderr)


def _timed(cmd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


def cold_setups():
    """Calibrated times to start an interpreter and import kostantpv.cli."""
    times = []
    before = calibration.probe()
    for _ in range(COLD_SETUPS):
        dt, proc = _timed([sys.executable, '-c', 'import kostantpv.cli'])
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors='replace'))
        after = calibration.probe()
        times.append(calibration.calibrated(dt, [before, after]))
        before = after
    return times


def cold_pass(reqs, goldens, seconds, trace) -> Pass:
    """One fresh interpreter per request, as a command-line user runs it."""
    results, reports = [], []
    start = time.perf_counter()
    before = calibration.probe()
    for argv in reqs:
        if time.perf_counter() - start >= seconds:
            results.append([argv, None, 'not started within --seconds', 0,
                            None])
            continue
        cmd = [sys.executable, str(HERE / 'child.py'), '--trace', str(trace),
               '--', *argv]
        try:
            dt, proc = _timed(cmd)
        except subprocess.TimeoutExpired:
            results.append([argv, None, 'timed out', 0, None])
            continue
        after = calibration.probe()
        why = workloads.verdict(argv, proc.returncode, proc.stdout, goldens)
        last = proc.stderr.decode().rstrip('\n').rpartition('\n')[2]
        if not last.startswith(child.REPORT_MARK):
            results.append([argv, None, why or 'no report from the child',
                            len(proc.stdout), dt])
            continue
        report = json.loads(last[len(child.REPORT_MARK):])
        if trace:
            reports.append(report['trace'])
        cal = calibration.calibrated(dt, [before, *report['probes'], after])
        results.append([argv, cal, why, len(proc.stdout), dt])
        before = after
    return Pass(results, time.perf_counter() - start, reports)


def _session_process(seed, seconds, trace, setup_only):
    """Run session.py; return (calibrated set-up time, its JSON report)."""
    cmd = [sys.executable, str(HERE / 'session.py'), '--seed', str(seed),
           '--seconds', str(seconds), '--trace', str(trace)]
    if setup_only:
        cmd.append('--setup-only')
    before = calibration.probe()
    t0 = time.perf_counter()
    # Unbuffered, so that readline takes no more than the `ready` line
    # and communicate() gets the rest.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != b'ready':
            raise RuntimeError('session process failed during set-up')
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f'session process exited {proc.returncode}')
    # The child probes the core itself, right after `ready`.
    data = json.loads(rest.strip().splitlines()[-1])
    probes = [before, data['probe_after_ready']]
    return calibration.calibrated(setup, probes), data


def session_pass(seed, seconds, trace, setups=1):
    """Serve the pass from one warm process; return (set-up times, Pass).

    The first `setups - 1` processes only set up and exit, so that the
    set-up time is a median over `setups` starts.
    """
    times = [_session_process(seed, seconds, trace, True)[0]
             for _ in range(setups - 1)]
    setup, data = _session_process(seed, seconds, trace, False)
    times.append(setup)
    reports = [data['trace']] if data['trace'] else []
    return times, Pass(data['results'], data['raw_wall_s'], reports)


def tail(times):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below twenty samples."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return 100 * (n - 10) // n, ordered[n - 11]


def serve_pass(workload, seed, seconds, goldens, trace):
    """Return (calibrated set-up times, Pass); cold set-ups are separate."""
    if workload in workloads.COLD:
        reqs = workloads.draw_pass(workload, seed)
        return [], cold_pass(reqs, goldens, seconds, trace)
    return session_pass(seed, seconds, trace,
                        1 if trace else SESSION_SETUPS)


def run_untraced(workload, seed, seconds, goldens):
    setups = cold_setups() if workload in workloads.COLD else []
    more, result = serve_pass(workload, seed, seconds, goldens, 0)
    setups += more
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        'setup_s': {'value': statistics.median(setups), 'unit': 's'},
        'wall_s': {'value': result.wall_s, 'unit': 's'},
        'request_p50_s': {'value': statistics.median(result.times),
                          'unit': 's'},
        'peak_rss_mb': {'value': rss_mb, 'unit': 'MB'},
    }
    return setups, result, metrics


def run_traced(workload, seed, seconds, goldens):
    """The pass untraced, then traced; per-layer metrics of the latter."""
    plain = serve_pass(workload, seed, seconds, goldens, 0)[1]
    traced = serve_pass(workload, seed, seconds, goldens, 1)[1]
    report = tracer.merge(traced.reports)
    metrics = layers.per_layer(report, traced.stdout_bytes,
                               traced.wall_s - plain.wall_s)
    return plain, traced, metrics


def print_summary(workload, setups, result, metrics):
    times = result.times
    n = len(result.results)
    raw = [r[4] for r in result.results if r[4] is not None]
    notes = {
        'setup_s': f'median of {len(setups)} set-ups',
        'wall_s': f'one pass of {n} requests; raw wall '
                  f'{result.raw_wall_s:.3f} s',
        'request_p50_s': f'n={len(times)}; raw '
                         f'{statistics.median(raw) if raw else 0:.6f} s',
        'peak_rss_mb': 'largest child process',
    }
    for name, m in metrics.items():
        print(f'{workload:9s} {name:15s} {m["value"]:12.6f} {m["unit"]:3s} '
              f'{notes[name]}')
    t = tail(times)
    if t is None:
        print(f'{workload:9s} {"request_tail_s":15s} {"-":>12s} s   '
              f'omitted: n={len(times)} < 20')
    else:
        print(f'{workload:9s} {"request_tail_s":15s} {t[1]:12.6f} s   '
              f'p{t[0]}, n={len(times)}, 10 beyond')
    print(f'{workload:9s} {"failed_frac":15s} {result.failed / n:12.6f} 1   '
          f'{result.failed}/{n} failed')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True,
                        choices=(*workloads.WORKLOADS, 'all'))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=int, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / 'kostantpv' / 'cli.py').is_file():
        print(f'error: no package sources at {SRC}; run from a kostantpv '
              'checkout', file=sys.stderr)
        return 2
    if args.workload == 'all':
        # One harness process per workload, so that each peak RSS is its own.
        code = 0
        for name in workloads.WORKLOADS:
            code |= subprocess.run([
                sys.executable, __file__, '--workload', name,
                '--seed', str(args.seed), '--seconds', str(args.seconds),
                '--trace', str(args.trace)]).returncode
        return code

    goldens = workloads.load_goldens()
    name = args.workload
    print('stamp ' + json.dumps(env_stamp(name, args.seed, args.trace)))
    calibration.pin_to_one_core()
    if args.trace:
        plain, traced, metrics = run_traced(name, args.seed, args.seconds,
                                            goldens)
        passes = (plain, traced)
        for metric, unit, _, moves, _ in layers.METRICS:
            print(f'{name:9s} {metric:52s} {metrics[metric]["value"]:14.6f} '
                  f'{unit:6s} moves: {moves}')
    else:
        setups, result, metrics = run_untraced(name, args.seed, args.seconds,
                                               goldens)
        passes = (result,)
        print_summary(name, setups, result, metrics)
    for p in passes:
        p.report_failures()
    failed = sum(p.failed for p in passes)
    print(json.dumps({'correct': failed == 0,
                      'attempted': sum(len(p.results) for p in passes),
                      'failed': failed, 'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
