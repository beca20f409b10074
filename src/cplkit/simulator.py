"""Deterministic asynchronous replay, random generation, differential checks.

The simulator replays a chart along a sampled schedule (any total order
consistent with the causal order), drives one monitor per lifeline (each
evaluating only its cone of the guard set, :meth:`Scenario.cones`), routes
message payloads along the matched send/receive edges, records guard
verdicts at choice events, and optionally appends branch continuations
chosen by those verdicts.

The differential harness replays a chart the same way and, at every
event, compares every subformula value the monitor computed against the
denotational table and checks the state's coherence before and after
the evaluation phase (:func:`check_coherence`). Every expectation comes
from one :class:`Oracle` per chart and guard set, which stores the state
a coherent monitor holds at each event, its clock counted by a BFS
reachability pass without the vector-timestamp machinery: the checker
compares whole states first and explains only a state that differs.

All randomness flows through :class:`~cplkit.rng.SplitMix64`, so every
run replays exactly from its seed.
"""

from __future__ import annotations

import json
import time
from collections.abc import Mapping, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from operator import getitem
from types import MappingProxyType
from typing import NamedTuple

from .denot import sat_table
from .lang import (
    And,
    At,
    Atom,
    AtField,
    Cone,
    Formula,
    GuardSet,
    Lit,
    LocalVar,
    MAX_NESTING,
    Not,
    Or,
    PastAny,
    PastAt,
    Seen,
    Since,
    Truth,
    Yesterday,
    close_guards,
    expand_derived,
    guard_cones,
    parse_guard,
    pretty,
)
from .monitor import (
    EventDescriptor,
    MessagePayload,
    MonitorError,
    MonitorState,
    Row,
    begin_event,
    finish_event,
    init_monitor,
)
from .msc import (
    EventKind,
    Msc,
    Valuation,
    Value,
    topological_order,
    validate_msc,
    values_equal,
)
from .rng import SplitMix64
from .trace import TraceFormatError, decode_event, encode_valuation, parse_trace, read_json


class ScenarioError(Exception):
    """Raised for scenario files or continuations that cannot be executed."""


# ---------------------------------------------------------------------- #
# Scenarios
# ---------------------------------------------------------------------- #

#: A decoded continuation event: id, kind and valuation (its lifeline is
#: the deciding choice's).
Decoded = tuple[int, EventKind, Valuation]


@dataclass(frozen=True)
class Scenario:
    """A chart plus guard texts at choice events and optional branches.

    A branch maps a guarded choice to its ``(then, else)`` arms: lists of
    trace-schema event objects appended, in order, to the choice's lifeline
    when the guard takes that arm. Arms may send but not receive. Building
    a scenario checks the chart and every arm (:class:`ScenarioError`); it
    is read-only, so a changed scenario is a new one (``dataclasses.replace``).
    It holds its own copy of the chart, whose tables and valuations are
    read-only views (so an edit fails where it is made instead of being
    replayed unchecked) and whose analysis the validating walk built.
    Guards are parsed and closed once, on first use, with the cones.
    """

    msc: Msc
    guard_texts: Mapping[int, str]
    branches: Mapping[int, tuple[Sequence, Sequence]] = field(default_factory=dict)
    _arms: dict = field(init=False, repr=False, compare=False)  # decoded branches
    _owners: dict = field(init=False, repr=False, compare=False)  # guard event -> lifeline

    def __post_init__(self) -> None:
        m = self.msc
        report = validate_msc(m)
        if not report.ok:
            raise ScenarioError(f"scenario chart is not well-formed: {report.violations}")
        object.__setattr__(self, "msc", Msc(
            lifelines=m.lifelines,
            events=m.events,
            kind=MappingProxyType(dict(m.kind)),
            pid=MappingProxyType(dict(m.pid)),
            val=MappingProxyType({e: MappingProxyType(dict(v)) for e, v in m.val.items()}),
            succ=MappingProxyType(dict(m.succ)),
            msg=MappingProxyType(dict(m.msg)),
            **report.analysis,
        ))
        arms = {c: (tuple(a), tuple(b)) for c, (a, b) in self.branches.items()}
        object.__setattr__(self, "guard_texts", MappingProxyType(dict(self.guard_texts)))
        object.__setattr__(self, "branches", MappingProxyType(arms))
        arms, owners = _decode_branches(self)
        object.__setattr__(self, "_arms", arms)
        object.__setattr__(self, "_owners", owners)

    @cached_property
    def _guards(
        self,
    ) -> tuple[tuple[Formula, ...], Mapping[int, int], GuardSet, Mapping[str, Cone]]:
        lifelines = self.msc.lifelines
        items = sorted(self.guard_texts.items())
        formulas = tuple(
            expand_derived(parse_guard(text, set(lifelines)), lifelines)
            for _, text in items
        )
        indices = MappingProxyType({eid: i for i, (eid, _) in enumerate(items)})
        g = close_guards(formulas)
        owners = {i: self._owners[eid] for i, (eid, _) in enumerate(items)}
        return formulas, indices, g, MappingProxyType(guard_cones(g, lifelines, owners))

    def guard_formulas(self) -> tuple[tuple[Formula, ...], Mapping[int, int]]:
        """The expanded guards ordered by choice event id, and the
        event-id -> guard-index mapping."""
        return self._guards[:2]

    def guard_set(self) -> GuardSet:
        """The closed guard set; the same object on every call."""
        return self._guards[2]

    def cones(self) -> Mapping[str, Cone]:
        """Per lifeline, the cone of the guard set its monitor evaluates
        (:func:`~cplkit.lang.guard_cones`): a guard belongs to the
        lifeline of its choice event, which for a choice inside a
        continuation is the deciding lifeline."""
        return self._guards[3]


_SCENARIO_KEYS = {"lifelines", "events", "succ", "messages", "guards", "branches"}


def load_scenario(source) -> Scenario:
    """Load a scenario file: the trace schema plus ``guards`` and
    optional ``branches``."""
    data = source if isinstance(source, dict) else read_json(source, ScenarioError)
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")

    try:
        msc = parse_trace({k: data[k] for k in ("lifelines", "events", "succ", "messages")})
    except KeyError as exc:
        raise ScenarioError(f"missing scenario key {exc}") from exc
    except TraceFormatError as exc:
        raise ScenarioError(str(exc)) from exc

    for key in ("guards", "branches"):
        if not isinstance(data.get(key, []), list):
            raise ScenarioError(f"{key} must be a list")
    guard_texts: dict[int, str] = {}
    for i, entry in enumerate(data.get("guards", [])):
        if (
            not isinstance(entry, dict)
            or set(entry) != {"choice_event_id", "guard"}
            or type(entry["choice_event_id"]) is not int
            or not isinstance(entry["guard"], str)
        ):
            raise ScenarioError(f"guards[{i}]: expected {{choice_event_id, guard}}")
        eid = entry["choice_event_id"]
        if eid in guard_texts:
            raise ScenarioError(f"guards[{i}]: duplicate guard for event {eid}")
        guard_texts[eid] = entry["guard"]

    branches: dict[int, tuple[list, list]] = {}
    for i, entry in enumerate(data.get("branches", [])):
        if (
            not isinstance(entry, dict)
            or set(entry) != {"choice_event_id", "then", "else"}
            or type(entry["choice_event_id"]) is not int
        ):
            raise ScenarioError(
                f"branches[{i}]: expected {{choice_event_id, then, else}}"
            )
        eid = entry["choice_event_id"]
        if eid not in guard_texts:
            raise ScenarioError(f"branches[{i}]: event {eid} has no guard")
        if eid in branches:
            raise ScenarioError(f"branches[{i}]: duplicate branch for event {eid}")
        for arm in ("then", "else"):
            obj = entry[arm]
            if not isinstance(obj, dict) or set(obj) - {"events"}:
                raise ScenarioError(f"branches[{i}].{arm}: expected {{events}}")
            if not isinstance(obj.get("events", []), list):
                raise ScenarioError(f"branches[{i}].{arm}: events must be a list")
        branches[eid] = (entry["then"].get("events", []), entry["else"].get("events", []))

    return Scenario(msc=msc, guard_texts=guard_texts, branches=branches)


def _decode_branches(
    sc: Scenario,
) -> tuple[dict[int, tuple[list[Decoded], list[Decoded]]], dict[int, str]]:
    """Decode every continuation and check that appending any arm keeps
    the chart well-formed. Each event must be an object of the trace
    schema, not a receive, with an id used by no chart event and no other
    continuation event, on the lifeline of the choice that takes its
    branch (for choices inside continuations too). Guards must sit on
    choice events of the chart or of a continuation. Returns the decoded
    ``(then, else)`` events per branching choice, and the lifeline of each
    guarded choice."""
    lifelines = set(sc.msc.lifelines)
    pid, kind = sc.msc.pid.copy(), sc.msc.kind.copy()
    decoded: dict[int, tuple[list[Decoded], list[Decoded]]] = {}
    for c, arms in sc.branches.items():
        decoded[c] = ([], [])
        for arm, events, out in zip(("then", "else"), arms, decoded[c]):
            for i, ev in enumerate(events):
                where = f"branch at event {c}, {arm}[{i}]"
                try:
                    eid, b, k, v = decode_event(ev, where, lifelines)
                    if eid in kind:
                        raise TraceFormatError(f"{where}: duplicate event id {eid}")
                except TraceFormatError as exc:
                    raise ScenarioError(
                        f"continuation breaks the trace format: {exc}"
                    ) from exc
                if k.tag == "recv":
                    raise ScenarioError(
                        f"{where}: receive events are not allowed in continuations"
                    )
                pid[eid], kind[eid] = b, k
                out.append((eid, k, v))
    for eid in sc.guard_texts:
        if eid not in kind:
            raise ScenarioError(f"guard references unknown event {eid}")
        if kind[eid].tag != "choice":
            raise ScenarioError(f"guard on non-choice event {eid}")
    for c, arms in decoded.items():
        if c not in pid:
            raise ScenarioError(f"branch at unknown event {c}")
        for eid, _, _ in arms[0] + arms[1]:
            if pid[eid] != pid[c]:
                raise ScenarioError(
                    f"continuation event {eid} is not on the owner lifeline {pid[c]!r}"
                )
    return decoded, {eid: pid[eid] for eid in sc.guard_texts}


# ---------------------------------------------------------------------- #
# Schedules
# ---------------------------------------------------------------------- #

def sample_linear_extension(m: Msc, seed: int) -> list[int]:
    """One schedule of the chart, uniform among ready events at each step,
    deterministic per seed."""
    rng = SplitMix64(seed)
    order = topological_order(m, lambda n: rng.randint(0, n - 1))
    if len(order) != len(m.events):
        raise ScenarioError("chart is cyclic; cannot schedule")
    return order


# ---------------------------------------------------------------------- #
# Replay
# ---------------------------------------------------------------------- #

@dataclass
class RunLog:
    """Everything one replay produced, unencoded until :meth:`to_dict`."""

    order: list[int]
    records: list[dict]
    payloads: dict[int, MessagePayload]  # by send event
    states: dict[str, MonitorState]  # each lifeline's final state
    msc: Msc  # the executed chart, including appended continuations

    def to_dict(self) -> dict:
        """The printed log; ``payload_bytes`` is a payload's canonical JSON length."""
        size = {
            e: len(json.dumps(p.to_wire(), sort_keys=True, separators=(",", ":")))
            for e, p in self.payloads.items()
        }
        return {
            "order": list(self.order),
            "records": [
                {**r, "payload_bytes": size[r["event"]]} if r["event"] in size else r
                for r in self.records
            ],
            "snapshots": {  # final clock and rows in the wire encoding, and store
                b: {**MessagePayload(s.vc, s.view, s.var).to_wire(),
                    "store": encode_valuation(s.store)}
                for b, s in sorted(self.states.items())
            },
        }


def _descriptor(m: Msc, e: int, payloads) -> EventDescriptor:
    kind = m.kind[e]
    incoming = payloads[m.matching_send(e)] if kind.tag == "recv" else None
    return EventDescriptor(kind=kind, store_after=m.val[e], incoming=incoming)


def run_scenario(
    sc: Scenario, g: GuardSet, seed: int, mutation: str | None = None
) -> RunLog:
    """Replay a scenario: one monitor per lifeline, payloads delivered along
    message edges, verdicts recorded at guarded choice events, and branch
    continuations appended according to those verdicts.

    ``g`` must be the very object ``sc.guard_set()`` returns: every
    monitor in a run shares it and evaluates its lifeline's cone of it
    (:meth:`Scenario.cones`), and the verdict at each choice is read at
    its guard's position in the owner's cone.
    """
    if g is not sc.guard_set():
        raise ScenarioError("guard set is not this scenario's own sc.guard_set()")
    guard_index_of = sc.guard_formulas()[1]
    cones = sc.cones()
    arms_of = sc._arms
    m = sc.msc
    schedule = sample_linear_extension(m, seed)
    monitors = {b: init_monitor(b, g, m.lifelines, cones[b]) for b in m.lifelines}
    payloads: dict[int, MessagePayload] = {}
    records: list[dict] = []
    order: list[int] = []

    queue = list(schedule)
    pos = 0
    while pos < len(queue):
        e = queue[pos]
        pos += 1
        order.append(e)
        owner = m.pid[e]
        gidx = guard_index_of.get(e)
        desc = _descriptor(m, e, payloads)
        state = monitors[owner]
        begin_event(state, desc, mutation)
        payload = finish_event(state, desc, mutation)
        record: dict = {"event": e, "lifeline": owner, "kind": m.kind[e].tag}
        if payload is not None:
            payloads[e] = payload
        if gidx is not None:
            verdict = state.vals[state.cone.local[g.guard_pos[gidx]]]
            record["verdict"] = verdict
            if e in arms_of:
                arm = arms_of[e][0 if verdict else 1]
                m = m.append_local(owner, arm)
                queue.extend(eid for eid, _, _ in arm)
        records.append(record)

    log = RunLog(order=order, records=records, payloads=payloads, states=monitors, msc=m)
    if not m.is_linear_extension(log.order):
        raise ScenarioError("internal error: executed order is not a schedule")
    return log


# ---------------------------------------------------------------------- #
# Random charts and formulas
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class FuzzParams:
    """Knobs for random chart/formula generation. Counts are maxima; the
    generator draws sizes up to them."""

    lifelines: int = 3
    events_per_lifeline: int = 6
    message_prob: float = 0.35
    var_alphabet: int = 3
    value_alphabet: tuple[Value, ...] = (0, 1, 2, "a", "b", True, False)
    formula_depth: int = 3
    formula_count: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if min(
            self.lifelines,
            self.events_per_lifeline,
            self.var_alphabet,
            self.formula_count,
        ) < 1 or self.formula_depth < 0 or not self.value_alphabet:
            raise ValueError("counts must be at least 1 (depth may be 0)")
        if self.formula_depth > MAX_NESTING:
            raise ValueError(f"formula depth must be at most {MAX_NESTING}")
        if not 0.0 <= self.message_prob <= 1.0:
            raise ValueError("message_prob must be in [0, 1]")


def _random_valuation(rng: SplitMix64, p: FuzzParams) -> Valuation:
    out: Valuation = {}
    for i in range(p.var_alphabet):
        if rng.random() < 0.7:
            out[f"x{i}"] = rng.choice(p.value_alphabet)
    return out


def gen_random_msc(p: FuzzParams) -> Msc:
    """A well-formed random chart, deterministic per seed.

    Built by simulating an execution: creation order is a schedule, so the
    result is acyclic by construction. Receives consume a uniformly random
    in-flight message, which yields non-FIFO deliveries; messages left in
    flight at the end become unmatched sends.
    """
    rng = SplitMix64(p.seed)
    lifelines = tuple(f"L{i + 1}" for i in range(p.lifelines))
    budget = {b: rng.randint(0, p.events_per_lifeline) for b in lifelines}

    kind: dict[int, EventKind] = {}
    pid: dict[int, str] = {}
    val: dict[int, Valuation] = {}
    succ: dict[int, int] = {}
    msg: dict[int, int] = {}
    last: dict[str, int | None] = {b: None for b in lifelines}
    in_flight: list[tuple[int, str]] = []  # (send event, receiver)
    next_id = 0

    while True:
        open_lifelines = [b for b in lifelines if budget[b] > 0]
        if not open_lifelines:
            break
        b = rng.choice(open_lifelines)
        budget[b] -= 1
        eid = next_id
        next_id += 1

        deliverable = [x for x in in_flight if x[1] == b]
        if deliverable and rng.random() < 0.5:
            send_eid, _ = rng.choice(deliverable)
            in_flight.remove((send_eid, b))
            kind[eid] = EventKind("recv")
            msg[send_eid] = eid
            val[eid] = _random_valuation(rng, p)
        else:
            r = rng.random()
            others = [x for x in lifelines if x != b]
            if r < p.message_prob and others:
                to = rng.choice(others)
                kind[eid] = EventKind("send", to)
                in_flight.append((eid, to))
                prev = last[b]
                val[eid] = dict(val[prev]) if prev is not None else {}
            elif r < p.message_prob + 0.15:
                kind[eid] = EventKind("choice")
                prev = last[b]
                val[eid] = dict(val[prev]) if prev is not None else {}
            else:
                kind[eid] = EventKind("act")
                val[eid] = _random_valuation(rng, p)

        pid[eid] = b
        if last[b] is not None:
            succ[last[b]] = eid
        last[b] = eid

    return Msc(
        lifelines=lifelines,
        events=tuple(range(next_id)),
        kind=kind,
        pid=pid,
        val=val,
        succ=succ,
        msg=msg,
    )


_FORMULA_STREAM = 0x6A09E667F3BCC909  # offsets formula seeds from chart seeds


_LEAF_PICKS = ("atom", "atom", "true", "seen")
_INNER_PICKS = ("atom", "not", "and", "or", "yesterday", "since", "at", "past_at",
                "past_any", "seen", "true")
#: Operator constructors by pick, and how many subformulas each takes.
_NODES = {"not": (Not, 1), "yesterday": (Yesterday, 1), "past_any": (PastAny, 1),
          "and": (And, 2), "or": (Or, 2), "since": (Since, 2), "at": (At, 1),
          "past_at": (PastAt, 1)}


def random_formula(
    rng: SplitMix64, depth: int, lifelines: tuple[str, ...], p: FuzzParams
) -> Formula:
    """One random formula (derived forms included) of at most this depth."""
    pick = rng.choice(_LEAF_PICKS if depth == 0 else _INNER_PICKS)
    if pick == "atom":
        return _random_atom(rng, lifelines, p)
    if pick == "true":
        return Truth()
    if pick == "seen":
        return Seen(rng.choice(lifelines))
    node, arity = _NODES[pick]
    head = [rng.choice(lifelines)] if pick in ("at", "past_at") else []
    return node(*head, *[random_formula(rng, depth - 1, lifelines, p) for _ in range(arity)])


def _random_term(rng: SplitMix64, lifelines: tuple[str, ...], p: FuzzParams):
    name = f"x{rng.randint(0, p.var_alphabet - 1)}"
    return AtField(rng.choice(lifelines), name) if rng.random() < 0.5 else LocalVar(name)


def _random_atom(rng: SplitMix64, lifelines: tuple[str, ...], p: FuzzParams) -> Formula:
    op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
    if rng.random() < 0.6:
        left, right = _random_term(rng, lifelines, p), Lit(rng.choice(p.value_alphabet))
    elif rng.random() < 0.5:
        left, right = Lit(rng.choice(p.value_alphabet)), _random_term(rng, lifelines, p)
    else:
        left, right = _random_term(rng, lifelines, p), _random_term(rng, lifelines, p)
    return Atom(op, left, right)


def gen_random_formulas(p: FuzzParams, lifelines: tuple[str, ...]) -> GuardSet:
    """A random guard set (expanded and closed), deterministic per seed and
    independent of the chart stream for the same seed."""
    rng = SplitMix64(p.seed ^ _FORMULA_STREAM)
    formulas = [
        expand_derived(
            random_formula(rng, rng.randint(0, p.formula_depth), lifelines, p),
            lifelines,
        )
        for _ in range(p.formula_count)
    ]
    return close_guards(formulas)


# ---------------------------------------------------------------------- #
# Differential checking
# ---------------------------------------------------------------------- #

def causal_past_sets(m: Msc) -> dict[int, set[int]]:
    """Reflexive causal past of every event via BFS over reversed edges.

    Deliberately independent of the vector-timestamp machinery: this is
    the reachability oracle the clock invariants are checked against.
    """
    preds: dict[int, list[int]] = {e: [] for e in m.events}
    for src, dst in list(m.succ.items()) + list(m.msg.items()):
        preds[dst].append(src)
    past: dict[int, set[int]] = {}
    for e in m.events:
        seen = {e}
        frontier = [e]
        while frontier:
            cur = frontier.pop()
            for q in preds[cur]:
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        past[e] = seen
    return past


class Coherent(NamedTuple):
    """What a coherent monitor holds at event ``e`` (:func:`check_coherence`)."""

    clock: dict[str, int]  # each lifeline's count in the BFS causal past of e
    seen: dict[str, int]  # per lifeline with a positive count, its latest visible event
    before: dict[str, Row]  # view rows before the update: the own row is the previous event's
    view: dict[str, Row]  # view rows after the update: the own row is e's
    var: dict[str, dict[str, Value]]  # value rows: the own row is e's
    tags: tuple[list[str], list[str], list[type]]  # per value var[b][x]: b, x, its type
    store: dict[str, Value]  # e's valuation
    store_tags: list[type]  # the type of each store value, in store order
    old: Row  # the cone's values at the previous local event, all false at the first
    vals: Row  # the cone's values at e


class Oracle(NamedTuple):
    """What differential checks on one chart and guard set share, since no
    schedule changes it: the ``sat_table`` rows, the cones the monitors
    run and, per event, the :class:`Coherent` state of a monitor running
    them. :func:`prepare_oracle` builds it for the whole-plan cones."""

    msc: Msc
    guards: GuardSet
    rows: dict[int, Row]
    cones: dict[str, Cone]
    states: dict[int, Coherent]

    def sliced(self, cones: Mapping[str, Cone]) -> Oracle:
        """This oracle for ``cones``, one :func:`~cplkit.lang.guard_cones`
        result of the same guard set, with the same clocks."""
        seen = {e: (c.clock, c.seen) for e, c in self.states.items()}
        return self._replace(cones=cones, states=_coherent(self.msc, self.rows, cones, seen))


def prepare_oracle(m: Msc, g: GuardSet) -> Oracle:
    """Build the oracle once for all schedules of ``m`` under ``g``."""
    chains, seen = {b: m.events_of(b) for b in m.lifelines}, {}
    for e, past in causal_past_sets(m).items():
        clock = dict.fromkeys(m.lifelines, 0)
        for f in past:
            clock[m.pid[f]] += 1
        seen[e] = clock, {b: chains[b][k - 1] for b, k in clock.items() if k}
    rows, cones = sat_table(m, g), guard_cones(g, m.lifelines)
    return Oracle(m, g, rows, cones, _coherent(m, rows, cones, seen))


def _coherent(m: Msc, rows, cones: Mapping[str, Cone], seen) -> dict[int, Coherent]:
    """Per event, the state of its lifeline's monitor running ``cones``;
    ``seen`` holds each event's clock and latest visible events."""
    cone = next(iter(cones.values()), None)
    view_of = rows if cone is None or cone.whole else {  # on the positions each lifeline exports
        t: _project(rows[t], cone.exports[m.pid[t]]) for t in m.events}
    var_of = {  # an event's value row on the variables its lifeline mirrors
        t: {x: m.val[t][x] for x in cone.mirrors[m.pid[t]] if x in m.val[t]} for t in m.events
    }
    states = {}
    for e in m.events:
        me, prev, (clock, latest) = m.pid[e], m.last_loc(e), seen[e]
        steps, whole = cones[me].steps, cones[me].whole
        var = {b: var_of[t] for b, t in latest.items()}
        pairs = [(b, x) for b, row in var.items() for x in row]
        view = {b: view_of[t] for b, t in latest.items()}
        before = {b: row for b, row in view.items() if b != me}
        if prev is not None:
            before[me] = view_of[prev]
        states[e] = Coherent(
            clock, latest, before, view, var,
            ([b for b, _ in pairs], [x for _, x in pairs], [type(var[b][x]) for b, x in pairs]),
            dict(m.val[e]), [type(v) for v in m.val[e].values()],
            (False,) * len(steps) if prev is None else rows[prev] if whole
            else _project(rows[prev], steps),
            rows[e] if whole else _project(rows[e], steps),
        )
    return states


def _project(row: Row, positions: tuple[int, ...]) -> Row:
    """A ``sat_table`` row at ``positions``."""
    return tuple(map(row.__getitem__, positions))


def _same_values(row: Mapping[str, Value], want: Mapping[str, Value]) -> bool:
    """Tag-exact equality of two value rows, so that ``True`` and ``1`` differ."""
    return row.keys() == want.keys() and all(values_equal(row[x], v) for x, v in want.items())


@dataclass(frozen=True)
class CoherenceReport:
    """Outcome of the four coherence conditions, with failure details."""

    conditions: Mapping[str, tuple[bool, str]]  # "i".."iv" -> (ok, detail)

    @cached_property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.conditions.values())

    def failures(self) -> list[str]:
        return [f"({name}) {detail}" for name, (ok, detail) in self.conditions.items() if not ok]


#: The report on a coherent state, per phase.
_PASSED = {phase: CoherenceReport(MappingProxyType(dict.fromkeys(names, (True, ""))))
           for phase, names in (("pre", ("i", "ii", "iii", "iv")), ("post", ("i", "ii")))}


def _condition(bad: list[str]) -> tuple[bool, str]:
    return not bad, "; ".join(bad)


def check_coherence(
    s: MonitorState, oracle: Oracle, e: int, phase: str = "pre"
) -> CoherenceReport:
    """Does this state correctly describe the causal past of ``e``?

    ``oracle`` is :func:`prepare_oracle` of the chart and of ``s``'s own
    guard set, :meth:`~Oracle.sliced` to ``s``'s cones unless they run the
    whole plan. It stores each event's :class:`Coherent` state, as ``s``'s
    cone holds it, so nothing is derived here: the state is compared with
    it whole, dict to dict and tuple to tuple (value rows and the store
    tag-exactly), and a match returns a shared passing report. Only a
    state that differs is walked lifeline by lifeline, against the same
    expectations, to say which conditions fail and why.

    In phase ``"pre"`` the state is expected mid-update, after
    :func:`~cplkit.monitor.begin_event` for ``e`` and before
    :func:`~cplkit.monitor.finish_event` (the clock already counts
    ``e``). Checks, per condition:

      (i)   each clock component equals the number of that lifeline's
            events causally below ``e``;
      (ii)  for every other lifeline whose clock is right, view/value rows
            exist exactly when the clock is positive and then describe its
            latest visible event;
      (iii) the store induces the event's valuation on monitored
            variables, and the local value row mirrors it;
      (iv)  the previous-event values are the cone's values at the
            previous local event (all false when there is none).

    In phase ``"post"``, after ``finish_event``, only (i) and (ii) are
    checked, (ii) over every lifeline: the own rows must describe ``e``
    itself.
    """
    if phase not in _PASSED:
        raise MonitorError(f"unknown coherence phase {phase!r}")
    if oracle.msc.pid[e] != s.me:
        raise MonitorError(f"event {e} is not on lifeline {s.me!r}")
    cone = oracle.cones[s.me]
    if oracle.guards is not s.guards or (s.cone is not cone and s.cone != cone):
        raise ScenarioError("oracle was prepared for another guard set or other cones")
    want = oracle.states[e]
    lifelines, keys, types = want.tags
    if (
        s.vc == want.clock
        and s.var == want.var
        and [*map(type, map(getitem, map(s.var.__getitem__, lifelines), keys))] == types
        and (s.view == want.view if phase == "post" else
             s.view == want.before and s.old == want.old and s.store == want.store
             and [*map(type, map(s.store.__getitem__, want.store))] == want.store_tags)
    ):
        return _PASSED[phase]

    counts = want.clock
    i_bad = [f"{b}: clock {s.vc.get(b, 0)} != causal past {counts[b]}"
             for b in counts if s.vc.get(b, 0) != counts[b]]
    ii_bad: list[str] = []
    for b, k in counts.items():
        if (b == s.me and phase == "pre") or s.vc.get(b, 0) != k:
            continue  # a wrong clock is reported under (i)
        if k == 0:
            if b in s.view or b in s.var:
                ii_bad.append(f"{b}: rows present at clock 0")
        elif b not in s.view or b not in s.var:
            ii_bad.append(f"{b}: rows absent at clock {k}")
        else:
            if s.view[b] != want.view[b]:
                ii_bad.append(f"{b}: view row differs from event {want.seen[b]}")
            if not _same_values(s.var[b], want.var[b]):
                ii_bad.append(f"{b}: value row differs from event {want.seen[b]}")
    conditions = {"i": _condition(i_bad), "ii": _condition(ii_bad)}
    if phase == "pre":
        iii_bad = [f"store[{x}] != valuation at {e}"
                   for x in sorted(s.guards.local_vars | s.guards.cross_vars)
                   if not values_equal(s.store.get(x), want.store.get(x))]
        if not _same_values(s.var.get(s.me, {}), want.var[s.me]):
            iii_bad.append("local value row does not mirror the valuation")
        iv_bad = [] if s.old == want.old else ["previous-event snapshot is wrong"]
        conditions["iii"], conditions["iv"] = _condition(iii_bad), _condition(iv_bad)
    return CoherenceReport(conditions)


@dataclass
class DifferentialReport:
    """The divergences of one replay (``runs == 1``) or of a sweep of
    generated instances; empty failure lists mean agreement."""

    mismatches: list[dict] = field(default_factory=list)
    coherence_failures: list[dict] = field(default_factory=list)
    invariant_failures: list[dict] = field(default_factory=list)
    events_checked: int = 0
    pairs_checked: int = 0
    instances: int = 0
    runs: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not (
            self.mismatches or self.coherence_failures or self.invariant_failures
        )

    def add(self, other: DifferentialReport, **tags) -> None:
        """Fold ``other`` into this report; ``tags`` (e.g. ``seed``) are
        added to each of its failure records."""
        self.instances += other.instances
        self.runs += other.runs
        self.events_checked += other.events_checked
        self.pairs_checked += other.pairs_checked
        for name in ("mismatches", "coherence_failures", "invariant_failures"):
            getattr(self, name).extend({**tags, **r} for r in getattr(other, name))

    def to_dict(self) -> dict:
        """The counts, the first 20 failures of each kind and, past those,
        every ``monitor raised`` record (a replay has at most one)."""
        crashes = [r for r in self.invariant_failures[20:]
                   if r["failures"][0].startswith("monitor raised: ")]
        return {
            "instances": self.instances,
            "runs": self.runs,
            "events_checked": self.events_checked,
            "pairs_checked": self.pairs_checked,
            "mismatch_count": len(self.mismatches),
            "coherence_failure_count": len(self.coherence_failures),
            "invariant_failure_count": len(self.invariant_failures),
            "mismatches": self.mismatches[:20],
            "coherence_failures": self.coherence_failures[:20],
            "invariant_failures": self.invariant_failures[:20] + crashes,
            "elapsed_seconds": round(self.elapsed, 3),
            "ok": self.ok,
        }


def differential_check(
    m: Msc,
    g: GuardSet,
    extension: list[int],
    mutation: str | None = None,
    fail_fast: bool = False,
    oracle: Oracle | None = None,
    owners: Mapping[int, str] | None = None,
) -> DifferentialReport:
    """Replay the chart along ``extension`` and verify, at every event:

    * every subformula value the monitor computed equals the denotational
      truth at that event (exact Boolean equality),
    * the monitor state was coherent before the evaluation phase
      (:func:`check_coherence`, phase ``"pre"``),
    * after the update, clocks match BFS causal-past counts, view/value
      rows exist exactly for causally seen lifelines, and describe the
      latest visible event of each (the same checker, phase ``"post"``).

    Every expected value comes from ``oracle``, :func:`prepare_oracle` of
    this very ``m`` and ``g``, for callers that check several schedules;
    without it, one is built. An empty chart checks trivially.

    ``owners`` maps each guard index to the lifeline that evaluates it;
    each monitor then runs only its cone (:func:`~cplkit.lang.guard_cones`),
    checked against the oracle :meth:`~Oracle.sliced` to the cones once,
    and ``pairs_checked`` counts the values computed. Without it, every
    monitor runs the whole plan. A :class:`~cplkit.monitor.MonitorError`
    the monitor raises ends the replay, recorded at its event as the
    invariant failure ``"monitor raised: <message>"``.
    """
    if oracle is not None and (oracle.msc is not m or oracle.guards is not g):
        raise ScenarioError("oracle was prepared for another chart or guard set")
    report = DifferentialReport(runs=1)
    if not m.is_linear_extension(extension):
        raise ScenarioError("supplied order is not a linear extension")
    if oracle is None:
        oracle = prepare_oracle(m, g)
    if owners is not None:
        oracle = oracle.sliced(guard_cones(g, m.lifelines, owners))
    monitors = {b: init_monitor(b, g, m.lifelines, oracle.cones[b]) for b in m.lifelines}
    payloads: dict[int, MessagePayload] = {}

    for e in extension:
        state = monitors[m.pid[e]]
        desc = _descriptor(m, e, payloads)
        try:  # check_coherence raises MonitorError only on misuse, not possible here
            begin_event(state, desc, mutation)
            coherence = check_coherence(state, oracle, e)
            if not coherence.ok:
                report.coherence_failures.append({"event": e, "failures": coherence.failures()})
                if fail_fast:
                    return report
            payload = finish_event(state, desc, mutation)
        except MonitorError as exc:
            report.invariant_failures.append({"event": e, "failures": [f"monitor raised: {exc}"]})
            return report
        if payload is not None:
            payloads[e] = payload

        steps, expected = state.cone.steps, oracle.states[e].vals
        report.events_checked += 1
        report.pairs_checked += len(steps)
        if state.vals != expected:
            report.mismatches += (
                {"event": e, "formula": pretty(g.sub[p]), "sub_index": p,
                 "monitor": v, "oracle": w}
                for p, v, w in zip(steps, state.vals, expected) if v != w
            )
            if fail_fast:
                return report

        post = check_coherence(state, oracle, e, phase="post")
        if not post.ok:
            report.invariant_failures.append({"event": e, "failures": post.failures()})
            if fail_fast:
                return report

    return report


# ---------------------------------------------------------------------- #
# Fuzz sweeps
# ---------------------------------------------------------------------- #

def fuzz_instance(
    p: FuzzParams, extensions: int, mutation: str | None = None,
    fail_fast: bool = True,
) -> DifferentialReport:
    """One generated chart + guard set, checked along several schedules
    against one oracle. Failure records carry the instance's ``seed``."""
    report = DifferentialReport(instances=1)
    m = gen_random_msc(p)
    g = gen_random_formulas(p, m.lifelines)
    oracle = prepare_oracle(m, g)
    schedule_rng = SplitMix64(p.seed ^ 0xA5A5A5A5A5A5A5A5)
    for _ in range(extensions):
        ext = sample_linear_extension(m, schedule_rng.next_u64())
        report.add(
            differential_check(m, g, ext, mutation, fail_fast, oracle), seed=p.seed
        )
        if fail_fast and not report.ok:
            break
    return report


def fuzz_sweep(
    base: FuzzParams,
    seeds: int,
    extensions: int,
    mutation: str | None = None,
    keep_going: bool = False,
    jobs: int = 1,
) -> DifferentialReport:
    """Differential sweep over ``seeds`` generated instances.

    Seeds are derived from ``base.seed`` by a split stream, so any failing
    instance replays exactly. Stops at the first divergence unless
    ``keep_going``; ``jobs > 1`` spreads instances over up to ``jobs``
    processes (results are aggregated in seed order either way).
    """
    started = time.monotonic()
    seed_rng = SplitMix64(base.seed)
    params = [replace(base, seed=seed_rng.next_u64()) for _ in range(seeds)]
    total = DifferentialReport()
    pool = None
    if jobs > 1 and seeds > 1:
        # Imported here: the pool's modules add about 24 ms to start-up.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, seeds))
    with pool or nullcontext():
        for part in (pool.map if pool else map)(
            fuzz_instance, params, repeat(extensions), repeat(mutation),
            repeat(not keep_going),
        ):
            total.add(part)
            if not keep_going and not total.ok:
                break

    total.elapsed = time.monotonic() - started
    return total
