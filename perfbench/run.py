"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload populate --seed 3 --seconds 15 --trace 0

Runs from the root of a source checkout.  Every cell runs in this one
process through ``SweepEngine(jobs=1)`` with no disk cache, so host
time measures the simulator rather than a scheduler or a cache; only
set-up's import timing uses a child interpreter, one at a time.

``--trace 0`` measures.  After set-up, the workload's cells run in
order, pass after pass, until ``--seconds`` have elapsed (the first
pass always completes).  Each cell's time is the median of its runs;
throughput is the work of one pass over the sum of those medians.

Times are reported in *reference seconds*.  The host this runs on is
shared, and its speed drifts by tens of percent over minutes, which
would bury any change to the simulator.  So a fixed pure-Python plus
numpy loop (:func:`calibration_unit`) runs before and after every
timed interval, and the interval is rescaled to a host on which that
loop takes :data:`REFERENCE_UNIT_S`.  The raw host-second figures are
printed beside them and kept in the result file.  End-to-end metrics:

* ``pages_per_s`` — pages faulted into page tables per second;
* ``events_per_s`` — simulated translations per second (trace events;
  for populate, the page-set entries looked up and faulted);
* ``setup_s`` — a fresh import of the simulator plus input generation
  (median of three);
* ``peak_rss_mb`` — peak resident memory of this process.

``--trace 1`` runs one untraced pass and one pass with every layer in
``layers.TARGETS`` wrapped (``--seconds`` does not apply), and prints
the per-layer metrics.

Every cell's result record is compared with its scalar-engine reference
(see ``reference.py``); ``failed`` counts cell runs that raised or
differed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
and in trace mode the spans, are written under ``--out``.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Every simulator module the cells import, lazily or not.  Set-up
#: imports them all, so no import lands in a timed cell.
SIMULATOR_MODULES = (
    "repro.experiments.engine",
    "repro.experiments.runner",
    "repro.sim.datacenter",
    "repro.sim.fastpath",
    "repro.sim.simulator",
    "repro.traces.record",
    "repro.traces.workload",
)

#: Seconds :func:`calibration_unit` takes on the reference host (about
#: what it takes on an idle 2-core x86-64 cloud VM with Python 3.11).
REFERENCE_UNIT_S = 0.02


def calibration_unit() -> float:
    """Seconds one run of a fixed pure-Python plus numpy loop takes."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    values = np.random.default_rng(acc).random(250_000)
    values.sort()
    np.cumsum(values)
    return time.perf_counter() - start


def calibrate(repeats: int = 5) -> float:
    """Median :func:`calibration_unit` seconds: the host's current speed."""
    return statistics.median(calibration_unit() for _ in range(repeats))


def reference_seconds(elapsed: float, unit_before: float, unit_after: float) -> float:
    """``elapsed`` host seconds rescaled to the reference host's speed,
    taken as the mean of the calibration units around the interval."""
    return elapsed * 2.0 * REFERENCE_UNIT_S / (unit_before + unit_after)


def import_seconds() -> float:
    """Host seconds a fresh interpreter takes to import the simulator.

    Timed in a child process so that each set-up repetition imports
    from scratch; the child's interpreter start-up is not counted.
    """
    code = ("import time; start = time.perf_counter(); "
            + "; ".join(f"import {module}" for module in SIMULATOR_MODULES)
            + "; print(time.perf_counter() - start)")
    child = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_one(engine, inputs, label, cell):
    """Run one cell; returns ``(record or None, seconds, result or None)``."""
    from reference import record_of, run_cell

    start = time.perf_counter()
    try:
        result = run_cell(engine, inputs, cell)
    except Exception as exc:  # a raising cell is counted as failed, not fatal
        elapsed = time.perf_counter() - start
        print(f"cell {label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, elapsed, None
    elapsed = time.perf_counter() - start
    return record_of(result), elapsed, result


def _run_pass(engine, inputs, recorder=None):
    """Run every cell once; returns ``{label: (record, seconds, result)}``."""
    out = {}
    for index, (label, cell) in enumerate(inputs.cells):
        if recorder is not None:
            recorder.cell = index
        out[label] = _run_one(engine, inputs, label, cell)
    return out


def _mismatches(runs, reference) -> int:
    """Count cell runs whose record is missing or differs from the reference."""
    bad = 0
    for label, record in runs:
        expected = reference[label]
        if record != expected:
            bad += 1
            if record is not None:
                diff = sorted(
                    k for k in set(record) | set(expected)
                    if record.get(k) != expected.get(k)
                )
                print(f"cell {label} differs from its reference in {diff}",
                      file=sys.stderr)
    return bad


def timed(engine, inputs, seconds: float, setup_s: float):
    """Timed passes until ``seconds`` elapse; the end-to-end metrics."""
    from workloads import cell_work

    runs = []
    host = {label: [] for label, _ in inputs.cells}
    ref = {label: [] for label, _ in inputs.cells}
    units = [calibration_unit()]
    work = {}
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        for label, cell in inputs.cells:
            record, elapsed, result = _run_one(engine, inputs, label, cell)
            units.append(calibration_unit())
            runs.append((label, record))
            if record is not None:
                host[label].append(elapsed)
                ref[label].append(reference_seconds(elapsed, units[-2], units[-1]))
                work.setdefault(label, cell_work(inputs, label, result))
            if not first and time.perf_counter() >= deadline:
                break
        first = False
    peak_rss = _peak_rss_mb()
    done = [label for label, _ in inputs.cells if host[label]]
    if not done:
        raise RuntimeError("no cell completed; nothing to measure")
    ref_s = sum(statistics.median(ref[label]) for label in done)
    host_s = sum(statistics.median(host[label]) for label in done)
    events = sum(work[label][0] for label in done)
    pages = sum(work[label][1] for label in done)
    metrics = {
        "pages_per_s": (pages / ref_s, "pages/s"),
        "events_per_s": (events / ref_s, "events/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    first_pass = dict(runs[:len(inputs.cells)])
    detail = {
        "cell_host_s": host, "cell_reference_s": ref, "calibration_units_s": units,
        "events": events, "pages": pages,
        "host_pages_per_s": pages / host_s, "host_events_per_s": events / host_s,
    }
    return runs, first_pass, metrics, detail, []


def traced(engine, inputs, spans_path: str):
    """One untraced and one traced pass; the per-layer metrics."""
    from layers import PER_LAYER, SpanRecorder, consistency_problems
    from workloads import cell_work

    untraced = _run_pass(engine, inputs)
    with SpanRecorder() as recorder:
        spanned = _run_pass(engine, inputs, recorder)
    first_pass = {label: rec for label, (rec, _, _) in untraced.items()}
    runs = list(first_pass.items())
    runs += [(label, rec) for label, (rec, _, _) in spanned.items()]
    problems = []
    if any(spanned[label][0] != first_pass[label] for label in first_pass):
        problems.append("traced results differ from untraced results")
    layer = recorder.layer_metrics()
    work = [cell_work(inputs, label, result)
            for label, (_, _, result) in spanned.items() if result is not None]
    problems += consistency_problems(
        layer,
        pages=sum(p for _, p in work),
        events=sum(e for e, _ in work),
        replays=inputs.workload.kind != "memory",
    )
    untraced_s = sum(t for _, t, _ in untraced.values())
    traced_s = sum(t for _, t, _ in spanned.values())
    layer["bench.trace_overhead"] = traced_s / untraced_s
    recorder.save(spans_path, [label for label, _ in inputs.cells])
    metrics = {name: (layer.get(name), unit) for name, unit, _ in PER_LAYER}
    detail = {"untraced_s": untraced_s, "traced_s": traced_s}
    return runs, first_pass, metrics, detail, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the small test configuration (live references only)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for the result file, spans and scratch inputs")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    for module in SIMULATOR_MODULES:
        importlib.import_module(module)

    import reference
    from repro.experiments.engine import SweepEngine
    from workloads import SMOKE, WORKLOADS, prepare

    table = SMOKE if args.smoke else WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=args.out, prefix=f".{workload.name}-")
    try:
        # Set-up: import the simulator afresh, then generate the inputs.
        setup_host = []
        setup_ref = []
        calibration_unit()  # the first run of the loop pays one-time costs
        units = [calibration_unit()]
        for k in range(SETUP_REPEATS):
            imported = import_seconds()
            start = time.perf_counter()
            inputs = prepare(workload, args.seed, _mkdir(scratch, k))
            setup_host.append(imported + time.perf_counter() - start)
            units.append(calibration_unit())
            setup_ref.append(reference_seconds(setup_host[-1], units[-2], units[-1]))
        setup_s = statistics.median(setup_ref)

        engine = SweepEngine(jobs=1)
        stored = None if args.smoke else reference.load_stored(workload, args.seed)
        source = "stored" if stored is not None else "live"
        if args.trace:
            spans_path = os.path.join(args.out, f"spans-{workload.name}-seed{args.seed}.npz")
            runs, first_pass, metrics, detail, problems = traced(engine, inputs, spans_path)
        else:
            runs, first_pass, metrics, detail, problems = timed(
                engine, inputs, args.seconds, setup_s)

        if stored is None:
            stored = reference.compute(inputs)
        failed = _mismatches(runs, stored)
        attempted = len(runs)
        calibration_s = statistics.median(
            units + [calibrate()] + detail.get("calibration_units_s", []))
        if args.trace:
            metrics["bench.failed_frac"] = (failed / attempted, "ratio")
            metrics["host.calibration_s"] = (calibration_s, "s")
        for message in problems:
            print(f"consistency check failed: {message}", file=sys.stderr)
        correct = failed == 0 and not problems
        digest = reference.digest(first_pass) if None not in first_pass.values() else ""
        reported = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

        detail.update(
            workload=workload.name, seed=args.seed, trace=args.trace, reference=source,
            correct=correct, attempted=attempted, failed=failed,
            failed_frac=failed / attempted, digest=digest, problems=problems,
            calibration_s=calibration_s, reference_unit_s=REFERENCE_UNIT_S,
            setup_host_s=statistics.median(setup_host), setup_repeats_host_s=setup_host,
            metrics=reported,
        )
        result_path = os.path.join(
            args.out, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json")
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)

        print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
              f"reference {source}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:>16.6g} {unit}")
        for name in ("host_pages_per_s", "host_events_per_s", "setup_host_s"):
            if name in detail:
                print(f"  {name:34s} {detail[name]:>16.6g} (raw host time)")
        print(f"  failed_frac {failed}/{attempted}  digest {digest[:16]}  "
              f"calibration_s {calibration_s:.4f}")
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": reported}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _mkdir(parent: str, k: int) -> str:
    path = os.path.join(parent, str(k))
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
