"""The benchmark's workloads, each driving cplkit only through its API.

A workload has three parts:

* ``setup(lib)`` loads its inputs through the library, builds the guard
  set and makes the first causal query. ``run.py`` times it, together
  with a fresh import of the package, as ``setup_s``.
* ``op(i)`` is one timed operation; it returns the operation's output.
* ``verify(i, output)`` runs outside the timing and says whether the
  output agrees with the other semantics. Outputs are dropped once
  verified, so memory does not grow with the number of operations. The
  wide workloads compute what they compare against in a child process
  (``oracle.py``), so that the oracle's memory stays out of the measured
  process's ``peak_rss_mb``.

``size(i)`` gives an operation's size in events and (event, subformula)
pairs, counted from the benchmark's own inputs.

``lib`` is a namespace holding the package's modules; every call goes
through a module attribute, so wrappers the tracer installs there are
seen.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from scenario import WideShape, continuation_events, wide_scenario

#: The acceptance sweep's generation parameters (``SWEEP_PARAMS`` in the
#: acceptance suite), minus its seed.
SWEEP_PARAMS = dict(
    lifelines=5,
    events_per_lifeline=8,
    message_prob=0.35,
    var_alphabet=3,
    formula_count=10,
    formula_depth=4,
)
SWEEP_EXTENSIONS = 5
ORACLE = Path(__file__).resolve().parent / "oracle.py"


@dataclass
class OpSize:
    events: int
    pairs: int


class Workload:
    name: str
    #: Operations in the traced run, fixed so that its counts repeat.
    trace_ops: int

    def __init__(self, seed: int, mutation: str | None):
        self.seed = seed
        self.mutation = mutation
        # Filled by ``verify`` where the outputs carry them.
        self.payload_bytes: list[int] = []
        self.appended_events = 0


class FuzzSweep(Workload):
    """``fuzz_sweep`` at the acceptance parameters, one instance per op."""

    name = "fuzz_sweep"
    trace_ops = 20

    def __init__(self, seed: int, mutation: str | None = None, params: dict | None = None):
        super().__init__(seed, mutation)
        self.params = dict(SWEEP_PARAMS if params is None else params)
        self._rng = random.Random(f"cplkit-bench-fuzz:{seed}")
        self._bases: list[int] = []
        self._sizes: dict[int, OpSize] = {}

    def base_seed(self, i: int) -> int:
        while len(self._bases) <= i:
            self._bases.append(self._rng.getrandbits(63))
        return self._bases[i]

    def setup(self, lib) -> None:
        self.lib = lib
        sim = lib.simulator
        p = sim.FuzzParams(**self.params, seed=self._derived(0))
        m = sim.gen_random_msc(p)
        sim.gen_random_formulas(p, m.lifelines)
        m.causal_leq(m.events[0], m.events[-1])

    def _derived(self, i: int) -> int:
        # fuzz_sweep derives each instance's seed from the base seed by one
        # SplitMix64 step; the benchmark repeats that step to regenerate
        # the instance it asked for.
        return self.lib.rng.SplitMix64(self.base_seed(i)).next_u64()

    def op(self, i: int):
        sim = self.lib.simulator
        return sim.fuzz_sweep(
            sim.FuzzParams(**self.params, seed=self.base_seed(i)),
            seeds=1,
            extensions=SWEEP_EXTENSIONS,
            mutation=self.mutation,
            keep_going=True,
            jobs=1,
        )

    def size(self, i: int) -> OpSize:
        if i not in self._sizes:
            sim = self.lib.simulator
            p = sim.FuzzParams(**self.params, seed=self._derived(i))
            m = sim.gen_random_msc(p)
            g = sim.gen_random_formulas(p, m.lifelines)
            events = len(m.events) * SWEEP_EXTENSIONS
            self._sizes[i] = OpSize(events=events, pairs=events * len(g.sub))
        return self._sizes[i]

    def verify(self, i: int, summary) -> bool:
        """An instance fails on any mismatch, coherence or invariant
        failure, or when it did not check every pair of every schedule."""
        size = self.size(i)
        return (
            summary.ok
            and summary.runs == SWEEP_EXTENSIONS
            and summary.events_checked == size.events
            and summary.pairs_checked == size.pairs
        )


class _Wide(Workload):
    """Shared input of the two wide workloads."""

    def __init__(self, seed: int, mutation: str | None, shape: WideShape):
        super().__init__(seed, mutation)
        self.shape = shape
        self.doc = wide_scenario(seed, shape)
        self._rng = random.Random(f"cplkit-bench-schedules:{seed}")
        self._schedules: list[int] = []

    def schedule_seed(self, i: int) -> int:
        while len(self._schedules) <= i:
            self._schedules.append(self._rng.getrandbits(63))
        return self._schedules[i]

    def ask_oracle(self, **args):
        """``self.expected(**args)``, computed by ``oracle.py`` in a child
        process that rebuilds this workload from its seed."""
        request = {
            "workload": self.name,
            "seed": self.seed,
            "mutation": self.mutation,
            "shape": asdict(self.shape),
            "args": args,
        }
        proc = subprocess.run(
            [sys.executable, str(ORACLE)],
            input=json.dumps(request), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"oracle failed:\n{proc.stderr}")
        return json.loads(proc.stdout)


def table_digest(table: dict) -> str:
    """A digest of a table of per-event values, rows as lists."""
    h = hashlib.sha256()
    for e in sorted(table):
        h.update(json.dumps([e, list(table[e])]).encode())
    return h.hexdigest()


class SimulateWide(_Wide):
    """``run_scenario`` on one wide scenario along sampled schedules."""

    name = "simulate_wide"
    trace_ops = 2

    def __init__(self, seed: int, mutation: str | None = None, shape: WideShape = WideShape()):
        super().__init__(seed, mutation, shape)
        self.events = len(self.doc["events"]) + continuation_events(self.doc)

    def setup(self, lib) -> None:
        self.lib = lib
        self.sc = lib.simulator.load_scenario(self.doc)
        self.g = self.sc.guard_set()
        m = self.sc.msc
        m.causal_leq(m.events[0], m.events[-1])
        # Expected verdicts per executed chart, keyed by the chart's digest;
        # every schedule grows the same chart unless the monitors are wrong.
        self.verdicts: dict[str, dict[int, bool]] = {}

    def op(self, i: int):
        return self.lib.simulator.run_scenario(
            self.sc, self.g, self.schedule_seed(i), self.mutation
        )

    def size(self, i: int) -> OpSize:
        return OpSize(events=self.events, pairs=self.events * len(self.g.sub))

    def verify(self, i: int, log) -> bool:
        """A run fails when a recorded verdict differs from ``sat_table``
        on the chart the run executed, or when it executed another number
        of events than the scenario has. Payload sizes and appended events
        are collected on the way."""
        self.payload_bytes += [
            r["payload_bytes"] for r in log.records if "payload_bytes" in r
        ]
        self.appended_events += len(log.msc.events) - len(self.sc.msc.events)
        chart = self.lib.trace.dump_trace(log.msc)
        key = hashlib.sha256(json.dumps(chart).encode()).hexdigest()
        if key not in self.verdicts:
            answer = self.ask_oracle(chart=chart)
            self.verdicts[key] = {int(e): v for e, v in answer.items()}
        expected = self.verdicts[key]
        return len(log.order) == self.events and all(
            r["verdict"] == expected[r["event"]] for r in log.records if "verdict" in r
        )

    def expected(self, chart: dict) -> dict[int, bool]:
        """``sat_table``'s value of each guard at its choice event of
        ``chart``, a dumped chart. Runs in the oracle process."""
        formulas, guard_index_of = self.sc.guard_formulas()
        rows = self.lib.denot.sat_table(self.lib.trace.parse_trace(chart), self.g)
        return {e: rows[e][self.g.index[formulas[k]]] for e, k in guard_index_of.items()}


class CheckWide(_Wide):
    """The offline ``cplkit check`` pipeline on the wide chart and guards,
    without output formatting."""

    name = "check_wide"
    trace_ops = 5

    def __init__(self, seed: int, mutation: str | None = None, shape: WideShape = WideShape()):
        super().__init__(seed, mutation, shape)
        # Guards in choice-event order, as `cplkit check` reads them.
        self.texts = [g["guard"] for g in sorted(
            self.doc["guards"], key=lambda g: g["choice_event_id"]
        )]
        self.monitor_digest: str | None = None

    def _pipeline(self, lib):
        sc = lib.simulator.load_scenario(self.doc)
        m = sc.msc
        formulas = [
            lib.lang.expand_derived(lib.lang.parse_guard(t, set(m.lifelines)), m.lifelines)
            for t in self.texts
        ]
        return m, lib.lang.close_guards(formulas)

    def setup(self, lib) -> None:
        self.lib = lib
        self.m, self.g = self._pipeline(lib)
        self.m.causal_leq(self.m.events[0], self.m.events[-1])

    def op(self, i: int):
        m, g = self._pipeline(self.lib)
        return self.lib.denot.sat_table(m, g)

    def size(self, i: int) -> OpSize:
        events = len(self.doc["events"])
        return OpSize(events=events, pairs=events * len(self.g.sub))

    def verify(self, i: int, table) -> bool:
        """A table fails when it differs from the per-event values the
        online monitors compute on the chart."""
        if self.monitor_digest is None:
            self.monitor_digest = self.ask_oracle()
        return table_digest(table) == self.monitor_digest

    def expected(self) -> str:
        """The digest of the monitors' value of every subformula at every
        event. Runs in the oracle process. ``differential_check`` replays
        the monitors once and reports each value where they differ from its
        own table; flipping those entries gives the monitors' values. Any
        coherence or invariant failure fails every table."""
        sim = self.lib.simulator
        m, g = self.m, self.g
        schedule = sim.sample_linear_extension(m, self.schedule_seed(0))
        report = sim.differential_check(m, g, schedule, self.mutation)
        if report.coherence_failures or report.invariant_failures:
            return ""
        rows = {e: list(row) for e, row in self.lib.denot.sat_table(m, g).items()}
        for x in report.mismatches:
            rows[x["event"]][x["sub_index"]] = x["monitor"]
        return table_digest(rows)


WORKLOADS = {w.name: w for w in (FuzzSweep, SimulateWide, CheckWide)}
