"""Spans around cplkit's layer functions, recorded from outside the library.

Each wrapper replaces a function at the name its caller binds (for
example ``cplkit.simulator.sat_table``, which ``differential_check``
calls), so the library itself is never edited. A span is (name, start,
end, parent); spans are appended to flat arrays while the traced phase
runs and are only summarised, and written to disk, after it ends.
``uninstall`` puts every original back.

Besides spans, hooks record counts at the same boundaries, read from the
arguments and results the library passes across them: events processed,
rows a receive adopts, subformula values produced, charts tabled.
"""

from __future__ import annotations

import gzip
import time
import types
from array import array
from collections import Counter
from pathlib import Path

ROOT_SPAN = "bench.timed"
OP_SPAN = "bench.op"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.current = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        # Per-operation identity sets for the useful-work ratios. The
        # objects are kept alive until the operation ends so that ids are
        # not reused within it.
        self._op_seen: dict[str, dict[tuple, tuple]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.current = sid
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.current = self.parent[sid]

    def begin_op(self) -> int:
        self._op_seen.clear()
        return self.open(OP_SPAN)

    def end_op(self, sid: int) -> None:
        self.close(sid)
        self._op_seen.clear()

    def first_in_op(self, kind: str, *objs) -> bool:
        """True the first time these objects are seen together in the
        current operation."""
        seen = self._op_seen.setdefault(kind, {})
        key = tuple(id(o) for o in objs)
        if key in seen:
            return False
        seen[key] = objs
        return True

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def wrap(
        self, owner, attr: str, name: str, before=None, after=None, when=None
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper. ``before(args)``
        runs ahead of the span, ``after(args, result)`` after it, so their
        own cost is charged to the caller and not to the layer. With
        ``when``, calls for which ``when(args)`` is false get no span. A
        name the library no longer has is skipped, and its layer reads 0."""
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        nid = self._nid(name)
        tracer = self
        start, end, names, parents = self.start, self.end, self.name, self.parent
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            sid = len(start)
            names.append(nid)
            parents.append(tracer.current)
            end.append(0.0)
            tracer.current = sid
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = clock()
                tracer.current = parents[sid]
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i] - child[i])
        return out

    def span_counts(self) -> Counter:
        return Counter(self.names[n] for n in self.name)

    def write(self, path: Path) -> None:
        """Spans as text: a header line of names, then one line per span
        with name index, start, end and parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("\t".join(self.names) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.name[i]} {self.start[i]:.9f} {self.end[i]:.9f} {self.parent[i]}\n"
                )


def install(tracer: Tracer, lib) -> None:
    """Wrap every layer boundary of the library modules in ``lib``."""
    sim, mon, den, lang, msc = lib.simulator, lib.monitor, lib.denot, lib.lang, lib.msc
    counts = tracer.counts

    def on_begin(args):
        s, d = args[0], args[1]
        if d.kind.tag == "recv" and d.incoming is not None:
            counts["monitor.recvs"] += 1
            counts["monitor.rows_adopted"] += sum(
                1 for b in s.lifelines if d.incoming.vc.get(b, 0) > s.vc.get(b, 0)
            )

    def on_finish(args):
        counts["monitor.values"] += len(args[0].guards.sub)

    def on_sat_table(args):
        if tracer.first_in_op("sat_table", args[0], args[1]):
            counts["denot.sat_table_distinct"] += 1

    def on_bfs(args):
        if tracer.first_in_op("bfs", args[0]):
            counts["simulator.bfs_distinct"] += 1

    def on_close(args, gs):
        counts["lang.subformulas"] += len(gs.sub)

    def on_dumps(args, text):
        counts["monitor.wire_bytes"] += len(text)

    def analysing(args):
        # Every causal query passes through Msc._ensure_analysis, but only
        # the first one on a chart builds the vector timestamps. This is
        # the one private name the benchmark reads: the analysis has no
        # public entry point of its own.
        return getattr(args[0], "_vts", None) is None

    # The layer boundaries, wrapped where the caller looks them up.
    tracer.wrap(sim, "begin_event", "monitor.begin", before=on_begin)
    tracer.wrap(sim, "finish_event", "monitor.finish", before=on_finish)
    tracer.wrap(mon, "eval_local", "monitor.eval")
    tracer.wrap(sim, "check_coherence", "monitor.coherence")
    tracer.wrap(mon.MessagePayload, "to_wire", "monitor.wire")
    for owner in (sim, mon, den):
        tracer.wrap(owner, "sat_table", "denot.sat_table", before=on_sat_table)
    tracer.wrap(sim, "causal_past_sets", "simulator.bfs", before=on_bfs)
    tracer.wrap(sim, "sample_linear_extension", "simulator.sample")
    tracer.wrap(sim, "gen_random_msc", "simulator.generate")
    tracer.wrap(sim, "gen_random_formulas", "simulator.generate")
    tracer.wrap(sim, "differential_check", "simulator.diff")
    tracer.wrap(sim, "run_scenario", "simulator.run")
    tracer.wrap(sim, "fuzz_sweep", "simulator.fuzz")
    tracer.wrap(sim, "fuzz_instance", "simulator.fuzz")
    tracer.wrap(sim, "load_scenario", "simulator.load")
    tracer.wrap(sim, "parse_trace", "trace.parse")
    tracer.wrap(sim, "dump_trace", "trace.dump")
    tracer.wrap(sim, "validate_msc", "msc.validate")
    tracer.wrap(msc.Msc, "_ensure_analysis", "msc.analysis", when=analysing)
    for owner in (sim, lang):
        tracer.wrap(owner, "parse_guard", "lang.parse")
        tracer.wrap(owner, "expand_derived", "lang.expand")
        tracer.wrap(owner, "close_guards", "lang.close", after=on_close)

    # run_scenario sizes each payload with json.dumps through the module
    # it imported; give the simulator a copy of that module whose dumps
    # is wrapped, leaving the real json module untouched.
    json_mod = sim.json
    proxy = types.SimpleNamespace(
        **{k: getattr(json_mod, k) for k in dir(json_mod) if not k.startswith("__")}
    )
    tracer.replace(sim, "json", proxy)
    tracer.wrap(proxy, "dumps", "monitor.wire_dumps", after=on_dumps)
