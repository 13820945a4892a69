"""Benchmark of the recountgame package: seeded workloads with checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload rec-reduce --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``rec-reduce``,
``man-search`` and ``cli-oneshot``.  One client runs operations in a closed
loop (the next starts when the previous one has finished), single process,
no worker threads.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:
set-up time (median of several fresh set-ups), throughput, median and 90th
percentile latency, and peak resident memory; the timed phase lasts
``--seconds`` and at least 100 operations.  The four times are scaled to a
reference machine speed, measured by timing a fixed loop during the run.
``--trace 1`` runs a fixed number of operations twice, untraced and with
timing wrappers on the package's layers, in turns of order, and reports the
per-layer metrics.
Both modes check every answer after the timed part and print one JSON object
as the last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench-trace"
WORKLOADS = ("rec-reduce", "man-search", "cli-oneshot")
WATCHDOG_S = 175  # every run must end within 180 s
SETUP_REPEATS = 4  # fresh set-ups timed before the timed phase, and again after it
PROBE_REPEATS = 5
MIN_OPS = 100  # so that ten latencies lie beyond the 90th percentile
# The machine's speed drifts by up to 1.5x over minutes, all code alike (see
# README.md, "Noise on the measuring machine").  A fixed loop, timed between
# operations and between set-ups, measures that speed; every end-to-end time
# is scaled by SPEED_REFERENCE_S / (the run's median loop time), that is, to
# the speed at which the loop takes SPEED_REFERENCE_S.
SPEED_LOOP = 20_000
SPEED_REFERENCE_S = 0.00180  # median loop time on the 2-vCPU Xeon VM of baseline.json
SPEED_INTERVAL_S = 0.1  # time the loop when this long has passed since the last one
SPEED_PER_SETUP = 3  # loop timings after each set-up


class Watchdog(BaseException):
    """Raised when a run overstays; not an ``Exception``, so the per-operation
    failure handler cannot swallow it."""


def _on_watchdog(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def _load_package():
    """Put the checkout's own sources first on the path and import them."""
    init = SRC / "recountgame" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} is missing; run from a checkout with the sources")
    sys.path.insert(0, str(SRC))
    import recountgame

    if Path(recountgame.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {recountgame.__file__}, not {init}")


def _run_op(op, **kwargs):
    """Run one operation; returns (result, error text or None, seconds)."""
    start = time.perf_counter()
    try:
        result, error = op.run(**kwargs), None
    except Exception:  # a failed operation is counted, the loop goes on
        result, error = None, traceback.format_exc(limit=-3)
    return result, error, time.perf_counter() - start


def _check(op, result, error):
    if error is not None:
        return error
    try:
        return op.check(result)
    except Exception:
        return "check raised: " + traceback.format_exc(limit=-3)


def _check_all(outcomes):
    """Check every (op, result, error); returns the number that failed."""
    failed = 0
    for op, result, error in outcomes:
        problem = _check(op, result, error)
        if problem is not None:
            failed += 1
            if failed <= 5:
                print(f"perfbench: FAILED {op.kind}: {problem}", file=sys.stderr)
    return failed


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _time_shares(kinds, seconds):
    total = sum(seconds)
    shares = defaultdict(float)
    for kind, s in zip(kinds, seconds):
        shares[kind] += s / total
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def _format_shares(shares):
    return ", ".join(f"{kind} {100 * share:.1f}%" for kind, share in shares.items())


def _wall(argv, env):
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT, timeout=60, env=env)
    return time.perf_counter() - start


def _speed_loop():
    """Seconds one run of a fixed pure-Python loop takes; it touches nothing
    of the package, so only the machine's speed moves it."""
    start = time.perf_counter()
    total = 0
    for i in range(SPEED_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def _setup_seconds(workloads, name, seed, speed):
    """Wall times of SETUP_REPEATS fresh interpreters that import the package
    and generate (and, for the CLI workload, write) the workload's inputs.
    Appends SPEED_PER_SETUP loop timings after each to ``speed``."""
    argv = [sys.executable, str(Path(__file__)), "--setup-only",
            "--workload", name, "--seed", str(seed)]
    env = workloads.child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(_wall(argv, env))
        speed.extend(_speed_loop() for _ in range(SPEED_PER_SETUP))
    return times


def _rss_before_ops_kib(workloads, deck):
    """Peak resident memory before the first operation: of this process with
    the deck built, or of a child interpreter that only imports the package."""
    if deck.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return workloads.spawn([sys.executable, "-c", "import recountgame"])[3]


def timed_run(workloads, name, seed, seconds, workdir):
    speed = []  # seconds of each timing of the speed loop
    setup_times = _setup_seconds(workloads, name, seed, speed)
    deck = workloads.build(name, seed, workdir)
    before_ops_kib = _rss_before_ops_kib(workloads, deck)
    outcomes, latencies = [], []
    start = last_speed = time.perf_counter()
    deadline = start + seconds
    speed_from = len(speed)
    # The deadline ends the timed phase, but never before MIN_OPS operations.
    while time.perf_counter() < deadline or len(outcomes) < MIN_OPS:
        op = deck.ops[len(outcomes) % len(deck.ops)]
        result, error, took = _run_op(op)
        outcomes.append((op, result, error))
        latencies.append(took)
        if time.perf_counter() - last_speed >= SPEED_INTERVAL_S:
            speed.append(_speed_loop())
            last_speed = time.perf_counter()
    # Wall time of the operations alone: the loop timings are not part of it.
    elapsed = time.perf_counter() - start - sum(speed[speed_from:])
    if deck.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max(result[3] for _, result, _ in outcomes if result is not None)

    failed = _check_all(outcomes)
    # Set-ups timed on both sides of the timed phase see more of the machine's
    # speed drift than a burst of them would.
    setup_times += _setup_seconds(workloads, name, seed, speed)
    count = len(outcomes)
    measured = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": count / elapsed,
        "op_ms_p50": 1000 * statistics.median(latencies),
        "op_ms_p90": 1000 * _percentile(latencies, 90),
    }
    # Above 1 when the machine ran faster than the reference speed.
    speedup = SPEED_REFERENCE_S / statistics.median(speed)
    values = {k: v / speedup if k == "ops_per_s" else v * speedup for k, v in measured.items()}
    values["peak_rss_mb"] = peak_kib / 1024
    shares = _time_shares([op.kind for op, _, _ in outcomes], latencies)
    print(f"perfbench {name} seed={seed}: {count} operations in {elapsed:.2f} s, "
          f"closed loop, 1 client; deck of {len(deck.ops)} "
          f"({'reused' if count > len(deck.ops) else 'not reused'})")
    print(f"  fail_ratio {failed / count} ({failed}/{count})")
    print(f"  setup_s median of {len(setup_times)} set-ups, half before and half after the "
          f"timed phase; latency quantiles over {count} samples, "
          f"{count - int(0.9 * count)} beyond p90")
    print(f"  peak_rss_mb before the first operation: {before_ops_kib / 1024:.2f} MB "
          f"({'this process, deck built' if deck.in_process else 'a child that imports the package'})")
    print(f"  time share by kind: {_format_shares(shares)}")
    print(f"  machine speed: speed loop median {1000 * statistics.median(speed):.3f} ms over "
          f"{len(speed)} timings, reference {1000 * SPEED_REFERENCE_S:.3f} ms; times below "
          f"are scaled by {speedup:.4f}; as measured: "
          + ", ".join(f"{k} {v:.4f}" for k, v in measured.items()))
    return values, count, failed


def _import_seconds(env):
    """Cumulative import times of the package and of networkx inside it,
    from ``python -X importtime -c "import recountgame"``."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import recountgame"],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=60, env=env,
    ).stderr
    found = {}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return found["recountgame"], found["networkx"]


def traced_run(workloads, name, seed, workdir):
    import tracing

    recorder = tracing.Recorder()
    recorder.install()
    deck = workloads.build(name, seed, workdir)
    recorder.uninstall()
    values = {k: v for k, v in recorder.aggregate().items() if k.startswith("generators.")}
    recorder.clear()

    # Each operation runs untraced and traced, the two in turns of order, so
    # that drift in the machine's speed and warm caches favour neither side of
    # the overhead ratio.
    ops = deck.trace_ops
    plain, traced = [], []
    for i, op in enumerate(ops):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                plain.append(_run_op(op))
                continue
            recorder.current_op = i
            recorder.install()
            if deck.in_process:
                traced.append(_run_op(op))
            else:
                prefix = [sys.executable, tracing.__file__, str(workdir / f"spans-{i}.json"), "--"]
                traced.append(_run_op(op, prefix=prefix))
            recorder.uninstall()
    untraced_s = sum(took for _, _, took in plain)
    traced_s = sum(took for _, _, took in traced)
    if not deck.in_process:
        for i in range(len(ops)):
            spans = workdir / f"spans-{i}.json"
            if spans.exists():
                recorder.extend(json.loads(spans.read_text(encoding="utf-8")), i)

    values.update(recorder.aggregate())
    values["trace.overhead_ratio"] = traced_s / untraced_s
    env = workloads.child_env()
    values["cli.interpreter_s"] = statistics.median(
        _wall([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPEATS))
    imports = [_import_seconds(env) for _ in range(PROBE_REPEATS)]
    values["cli.import_s"] = statistics.median(i[0] for i in imports)
    values["cli.import_networkx_s"] = statistics.median(i[1] for i in imports)

    TRACE_DIR.mkdir(exist_ok=True)
    recorder.write_csv(TRACE_DIR / f"{name}.csv")

    outcomes = [(op, r, e) for op, (r, e, _) in zip(ops, plain)]
    outcomes += [(op, r, e) for op, (r, e, _) in zip(ops, traced)]
    failed = _check_all(outcomes)

    kinds = [op.kind for op in ops]
    walks = Counter(
        op for op, name_id in zip(recorder.op, recorder.name)
        if recorder.names[name_id] == "defender._optimize_walk"
    )
    with_flow = recorder.ops_with("flow.")
    print(f"perfbench {name} seed={seed} traced: {len(ops)} operations, "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; spans in "
          f"{TRACE_DIR.name}/{name}.csv")
    print(f"  time share by kind (untraced): "
          f"{_format_shares(_time_shares(kinds, [t for _, _, t in plain]))}")
    print(f"  _optimize_walk calls per operation: median "
          f"{statistics.median(walks.get(i, 0) for i in range(len(ops)))}")
    print(f"  operations that ran a flow: {len(with_flow)}/{len(ops)} "
          f"({Counter(kinds[i] for i in with_flow)})")
    return values, len(outcomes), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the inputs, then exit (set-up timing)")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_watchdog)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # clean up
    signal.alarm(WATCHDOG_S)
    _load_package()
    import workloads  # needs the package path set by _load_package

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            workloads.build(args.workload, args.seed, workdir)
            return 0
        if args.trace:
            values, attempted, failed = traced_run(workloads, args.workload, args.seed, workdir)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed = timed_run(
                workloads, args.workload, args.seed, args.seconds, workdir)
            wanted = spec["end_to_end"]
    # A layer the workload never enters reports 0; end-to-end metrics must exist.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]],
                    "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']} {metric['unit']}")
    signal.alarm(0)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
