"""cplkit benchmark: one workload per process, measured from outside.

Usage, from the repository root::

    python3 bench/run.py --workload fuzz_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics. ``--trace 1`` runs a fixed set of operations twice, untraced and
then with spans around every layer function, and reports the per-layer
metrics. Every output is checked against the other semantics; the last
line of standard output is one JSON object, and the exit code is 1 when
any operation failed. The package is imported from ``src/`` of the
checkout this file sits in, single-threaded, with no process pool.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from tracer import OP_SPAN, ROOT_SPAN, Tracer, install
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODULES = ("msc", "trace", "lang", "denot", "monitor", "simulator", "cli")
LIBRARY_MODULES = ("msc", "trace", "lang", "denot", "monitor", "simulator", "rng")
#: Set-ups per run; setup_s is the median of their scaled times.
SETUP_REPS = 15
#: The speed probe runs once per this much set-up or operation time.
PROBE_EVERY_S = 0.025
#: The probe's time at the fast speed on a 2-vCPU Intel Xeon virtual
#: machine with Python 3.11.7; end-to-end times are scaled to this speed.
REFERENCE_PROBE_S = 0.001


def _probe_unit() -> int:
    d = {}
    for i in range(300):
        d[(i, i & 3)] = str(i)
    return len(d)


def slowdown(busy_s: float) -> float:
    """How slowly the host runs this process just now, relative to the
    reference speed, for a set-up or operation that took ``busy_s``.

    On a shared host, interpreted code can run at two speeds, switching
    every few milliseconds (48 or 82 us for the probe unit on a 2-vCPU
    Xeon virtual machine), and the share of slow stretches drifts over
    minutes, moving whole runs by 20% or more. A fixed piece of
    pure-Python work slows in step, so it is timed right after each
    set-up and operation, about once per ``PROBE_EVERY_S`` of their time,
    and their times are divided by its mean time over
    ``REFERENCE_PROBE_S``.
    """
    times = []
    for _ in range(max(1, round(busy_s / PROBE_EVERY_S))):
        t0 = time.perf_counter()
        for _ in range(20):
            _probe_unit()
        times.append(time.perf_counter() - t0)
    return statistics.mean(times) / REFERENCE_PROBE_S


def load_library():
    """The package and its modules, as a namespace."""
    pkg = importlib.import_module("cplkit")
    lib = types.SimpleNamespace(package=pkg)
    for name in LIBRARY_MODULES:
        setattr(lib, name, importlib.import_module(f"cplkit.{name}"))
    return lib


def timed_set_ups(workload) -> tuple[list[float], list[float]]:
    """Import, load inputs and make the first causal query, SETUP_REPS
    times, each in a fresh interpreter (``setup_once.py``). Returns the
    set-up times and the slowdown measured right after each."""
    times, slowdowns = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload.name, str(workload.seed)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        r = json.loads(proc.stdout)
        times.append(r["setup_s"])
        slowdowns.append(r["slowdown"])
    return times, slowdowns


def set_up(workload):
    """Import the package and set the workload up for the run, untimed."""
    lib = load_library()
    origin = Path(lib.package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: cplkit was imported from {origin}, not from {SRC}")
    workload.setup(lib)
    gc.collect()
    return lib


def timed_op(workload, i: int, errors: list[int]):
    """Run one operation; returns its duration and output. An operation
    that raises is recorded in ``errors`` and has no output."""
    t0 = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        out = None
        errors.append(i)
        if len(errors) == 1:
            print(f"operation {i} raised {exc!r}", file=sys.stderr)
    return time.perf_counter() - t0, out


def verified(workload, i: int, out, errors: list[int]) -> None:
    if i not in errors and not workload.verify(i, out):
        errors.append(i)


def source_lines(module: str) -> int:
    path = SRC / "cplkit" / f"{module}.py"
    return len(path.read_text(encoding="utf-8").splitlines())


def measure(workload, seconds: int) -> tuple[dict, int, int]:
    """Untraced run: the end-to-end metrics. Operations run until their
    summed duration reaches ``seconds``; each is verified, and followed
    by the speed probe, outside its timing. Rates are the events and
    pairs of the operations that passed over their summed scaled time."""
    setup_times, setup_slowdowns = timed_set_ups(workload)
    set_up(workload)
    failed: list[int] = []
    durations: list[float] = []
    slowdowns: list[float] = []
    while not durations or sum(durations) < seconds:
        i = len(durations)
        dt, out = timed_op(workload, i, failed)
        durations.append(dt)
        verified(workload, i, out, failed)
        slowdowns.append(slowdown(dt))
    passed = [i for i in range(len(durations)) if i not in failed]
    events = sum(workload.size(i).events for i in passed)
    pairs = sum(workload.size(i).pairs for i in passed)
    spent = sum(durations[i] for i in passed)
    scaled = sum(durations[i] / slowdowns[i] for i in passed)
    rate = lambda n, t: n / t if t else 0.0  # noqa: E731
    print(f"{len(durations)} operations in {sum(durations):.2f} s")
    print(f"as measured: setup {statistics.median(setup_times):g} s, "
          f"{rate(pairs, spent):g} pairs/s, {rate(events, spent):g} events/s; "
          f"mean slowdown {statistics.mean(setup_slowdowns):.3f} in set-up, "
          f"{statistics.mean(slowdowns):.3f} after operations")
    metrics = {
        "setup_s": (statistics.median([t / k for t, k in zip(setup_times, setup_slowdowns)]), "s"),
        "pairs_per_s": (rate(pairs, scaled), "pairs/s"),
        "events_per_s": (rate(events, scaled), "events/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(durations), len(failed)


def measure_traced(workload, seed: int) -> tuple[dict, int, int]:
    """Traced run: a fixed set of operations untraced, then the same
    operations traced. Outputs of the traced pass are verified after the
    tracer is removed, so verification leaves no spans."""
    lib = set_up(workload)
    ops = range(workload.trace_ops)
    failed: list[int] = []
    untraced = 0.0
    for i in ops:
        dt, out = timed_op(workload, i, failed)
        untraced += dt
        verified(workload, i, out, failed)
    failed_untraced = len(failed)

    tracer = Tracer()
    install(tracer, lib)
    root = tracer.open(ROOT_SPAN)
    failed = []
    outputs = []
    try:
        for i in ops:
            sid = tracer.begin_op()
            try:
                outputs.append(timed_op(workload, i, failed)[1])
            finally:
                tracer.end_op(sid)
    finally:
        tracer.close(root)
        tracer.uninstall()
    traced = tracer.end[root] - tracer.start[root]

    # Per-layer counts cover the traced pass only.
    workload.payload_bytes.clear()
    workload.appended_events = 0
    for i, out in zip(ops, outputs):
        verified(workload, i, out, failed)
    failed_total = failed_untraced + len(failed)
    payload = workload.payload_bytes

    own = tracer.self_times()
    spans = tracer.span_counts()
    c = tracer.counts
    t = lambda name: own.get(name, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    layer_self = sum(v for k, v in own.items() if k not in (ROOT_SPAN, OP_SPAN))
    s, n, b, x = "s", "count", "bytes", "ratio"
    metrics = {
        "monitor.begin_s": (t("monitor.begin"), s),
        "monitor.finish_s": (t("monitor.finish"), s),
        "monitor.eval_s": (t("monitor.eval"), s),
        "monitor.events": (spans["monitor.begin"], n),
        "monitor.eval_calls_per_pair": (ratio(spans["monitor.eval"], c["monitor.values"]), x),
        "monitor.rows_adopted_per_recv": (ratio(c["monitor.rows_adopted"], c["monitor.recvs"]), x),
        "monitor.wire_encode_s": (t("monitor.wire") + t("monitor.wire_dumps"), s),
        "monitor.wire_bytes": (c["monitor.wire_bytes"], b),
        "monitor.coherence_s": (t("monitor.coherence"), s),
        "payload_bytes_mean": (statistics.mean(payload) if payload else 0.0, b),
        "payload_bytes_max": (max(payload, default=0), b),
        "denot.sat_table_s": (t("denot.sat_table"), s),
        "denot.sat_table_calls": (spans["denot.sat_table"], n),
        "denot.sat_table_useful_ratio": (ratio(c["denot.sat_table_distinct"], spans["denot.sat_table"]), x),
        "simulator.bfs_s": (t("simulator.bfs"), s),
        "simulator.bfs_useful_ratio": (ratio(c["simulator.bfs_distinct"], spans["simulator.bfs"]), x),
        "simulator.generate_s": (t("simulator.generate"), s),
        "simulator.diff_self_s": (t("simulator.diff"), s),
        "simulator.sample_s": (t("simulator.sample"), s),
        "simulator.run_self_s": (t("simulator.run"), s),
        "simulator.fuzz_self_s": (t("simulator.fuzz"), s),
        "simulator.load_self_s": (t("simulator.load"), s),
        "simulator.appended_events": (workload.appended_events, n),
        "trace.parse_s": (t("trace.parse"), s),
        "trace.parse_calls": (spans["trace.parse"], n),
        "trace.dump_s": (t("trace.dump"), s),
        "msc.validate_s": (t("msc.validate"), s),
        "msc.validate_calls": (spans["msc.validate"], n),
        "msc.analysis_s": (t("msc.analysis"), s),
        "msc.analysis_calls": (spans["msc.analysis"], n),
        "lang.parse_s": (t("lang.parse"), s),
        "lang.parse_calls": (spans["lang.parse"], n),
        "lang.expand_s": (t("lang.expand"), s),
        "lang.close_s": (t("lang.close"), s),
        "lang.subformulas": (c["lang.subformulas"], n),
        "trace_overhead": (ratio(traced, untraced), x),
        "trace_coverage": (ratio(layer_self, traced), x),
    }
    for module in MODULES:
        metrics[f"{module}.source_lines"] = (source_lines(module), "lines")
    tracer.write(HERE / "out" / f"spans-{workload.name}-seed{seed}.txt.gz")
    return metrics, 2 * len(ops), failed_total


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "cplkit" / "__init__.py").is_file():
        print(f"error: no cplkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, attempted, failed = measure_traced(workload, args.seed)
    else:
        metrics, attempted, failed = measure(workload, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}: fail_ratio {failed / attempted:g} "
          f"({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
