"""Per-lifeline online monitor.

Each lifeline evaluates its :class:`~cplkit.lang.Cone` of the guard set:
the subformulas its own guards need, and those that other lifelines read
from it through ``at(Me, f)``. Its state holds a vector clock, a view row
and a value row per lifeline it has seen, its current store, and its own
values at the previous event. A lifeline's view row holds its values at
the positions it exports (those some ``at(B, ·)`` step of another
lifeline reads), its value row the variables some ``At[B].x`` term
reads. Messages piggyback the sender's clock and rows, so a receiver can
adopt whatever the sender knew more recently than itself. Without a
cone, a monitor runs the whole plan and its rows cover the whole guard
set.

Processing one event runs in two phases:

  1. ``begin_event`` — on a receive, adopt the rows and clock components
     of every lifeline the message is strictly ahead on (the only
     components the clock join changes); keep the previous event's
     values; tick the local clock component; install the post-event
     store and mirror the cone's variables into the local value row.
  2. ``finish_event`` — one pass over the cone's plan, children before
     parents: each step appends its value to the current row, reading
     child values from that row, ``Y``/``S`` history from the previous
     event's values and ``at(B, f)`` from ``B``'s view row at ``f``'s
     bit. The exported part of the result is published as the local view
     row and (on a send) a payload is emitted: copies of the clock and of
     the row tables, sharing the rows.

The "is the sender ahead?" test in phase 1 must read the receiver's
clock before the merge changes it: joining first would make it never
fire. The differential harness replays variants that break one such
detail each (:data:`MUTATIONS`) in place of phase 1, to prove it notices.

View rows are tuples, value rows are small dicts; a row for lifeline
``B`` exists exactly when the clock component for ``B`` is positive.
Each state is mutated only by its own lifeline's events, and no monitor
edits a published row: the own value row is new at every event and an
adopted row replaces the old one, so payloads and states share rows.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field

from .lang import Cone, GuardSet, guard_cones
from .msc import EventKind, Valuation, Value
from .trace import TraceFormatError, decode_valuation, encode_valuation

Row = tuple[bool, ...]

#: Deliberate algorithm defects the differential harness can replay in
#: place of phase 1, to show that it catches each (see :mod:`cplkit.simulator`).
MUTATIONS = ("swap-merge-order", "strict-at", "live-old")


class MonitorError(Exception):
    """Raised on misuse: bad descriptors, formulas outside the guard set."""


@dataclass
class MessagePayload:
    """Metadata piggybacked on one message: the sender's clock and its
    view and value rows at send time (the tables copied, the rows shared)."""

    vc: dict[str, int]
    view: dict[str, Row]
    var: dict[str, dict[str, Value]]

    def to_wire(self) -> dict:
        """JSON encoding: three objects keyed by lifeline, each view row a
        hex bitset (see :func:`encode_row`), each value row a valuation
        in the trace format."""
        return {
            "vc": dict(sorted(self.vc.items())),
            "view": {b: encode_row(self.view[b]) for b in sorted(self.view)},
            "var": {b: encode_valuation(self.var[b]) for b in sorted(self.var)},
        }

    @classmethod
    def from_wire(cls, data: dict, widths: Mapping[str, int]) -> "MessagePayload":
        """Inverse of :meth:`to_wire`, each view row checked against its
        lifeline's width in ``widths`` (:attr:`Cone.widths
        <cplkit.lang.Cone.widths>`, naming every declared lifeline); every
        malformed part raises :class:`MonitorError`."""
        if not isinstance(data, dict) or set(data) != {"vc", "view", "var"}:
            raise MonitorError("payload must be an object with keys vc, view and var")
        vc, rows, items = data["vc"], data["view"], data["var"]
        if not all(isinstance(t, dict) for t in (vc, rows, items)):
            raise MonitorError("payload vc, view and var must be objects")
        for b, n in vc.items():
            if not isinstance(b, str) or type(n) is not int or n < 0:
                raise MonitorError(f"clock of {b!r} is not a natural number: {n!r}")
            if b not in widths:
                raise MonitorError(f"payload has a clock for undeclared lifeline {b!r}")
        if set(rows) != set(items):
            raise MonitorError("payload view and var must name the same lifelines")
        for b in rows:
            if vc.get(b, 0) == 0:
                raise MonitorError(f"payload has entries for unseen lifeline {b!r}")
        try:
            var = {b: decode_valuation(row, f"var of {b!r}") for b, row in items.items()}
        except TraceFormatError as exc:
            raise MonitorError(str(exc)) from None
        view = {b: decode_row(text, widths[b]) for b, text in rows.items()}
        return cls(vc=dict(vc), view=view, var=var)


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_CANONICAL_HEX = re.compile(r"0|[1-9a-f][0-9a-f]*")


def encode_row(row: Row) -> str:
    """A view row as one bitset, bit ``i`` being the row's ``i``-th value,
    written as canonical lowercase hex (a string, since JSON numbers this
    wide lose precision in most readers)."""
    return format(int(bytes(row[::-1]).translate(_TO_DIGITS) or b"0", 2), "x")


def decode_row(text: object, width: int) -> Row:
    """Inverse of :func:`encode_row` for rows of ``width`` values.
    Rejects non-strings, non-canonical hex (sign, ``0x``, ``_``,
    whitespace, upper case, leading zeros) and bits at or above
    ``width``."""
    if not isinstance(text, str) or not _CANONICAL_HEX.fullmatch(text):
        raise MonitorError(f"view row {text!r} is not canonical lowercase hex")
    n = int(text, 16)
    if n >> width:
        raise MonitorError(f"view row {text!r} is wider than {width} bits")
    return tuple(map("1".__eq__, bin(n | 1 << width)[:2:-1]))


@dataclass
class EventDescriptor:
    """What the monitor is told about one event of its own lifeline.

    ``store_after`` is the local store after the event (sends and choice
    events conventionally leave the store unchanged): a dict or a chart's
    own valuation, which :func:`begin_event` copies; ``incoming`` carries
    the matched message's payload on receives.
    """

    kind: EventKind
    store_after: Valuation
    incoming: MessagePayload | None = None


@dataclass
class MonitorState:
    """Runtime state of one lifeline's monitor, which runs ``program`` (its
    cone's). ``vals`` are the values of its steps at the latest event,
    ``old`` those at the event before it (all false before the first)."""

    me: str
    guards: GuardSet
    lifelines: tuple[str, ...]
    vc: dict[str, int]
    cone: Cone
    program: tuple
    view: dict[str, Row] = field(default_factory=dict)
    var: dict[str, dict[str, Value]] = field(default_factory=dict)
    store: dict[str, Value] = field(default_factory=dict)
    old: Row = ()
    vals: Row | None = None


def init_monitor(
    me: str,
    guards: GuardSet,
    lifelines: tuple[str, ...] | list[str],
    cone: Cone | None = None,
) -> MonitorState:
    """Fresh monitor: zero clock, no view/value rows, empty store. It
    evaluates ``cone``, its lifeline's entry of one
    :func:`~cplkit.lang.guard_cones` result shared by every monitor of a
    run, or else the whole plan."""
    if me not in lifelines:
        raise MonitorError(f"{me!r} is not a declared lifeline")
    if cone is None:
        cone = guard_cones(guards, lifelines)[me]
    return MonitorState(
        me=me,
        guards=guards,
        lifelines=tuple(lifelines),
        vc={b: 0 for b in lifelines},
        cone=cone,
        program=cone.program,
        old=(False,) * len(cone.steps),
    )


def begin_event(s: MonitorState, d: EventDescriptor) -> None:
    """Phase 1 of the event update: merge, snapshot, tick, install store."""
    if d.kind.tag == "recv" and d.incoming is None:
        raise MonitorError("receive event without an incoming payload")
    if d.kind.tag != "recv" and d.incoming is not None:
        raise MonitorError("incoming payload on a non-receive event")
    if d.kind.tag == "send" and d.kind.receiver == s.me:
        raise MonitorError("send event addressed to its own lifeline")
    if d.kind.tag == "recv":
        mu = d.incoming
        ahead = [b for b in s.lifelines if mu.vc.get(b, 0) > s.vc[b]]
        widths = s.cone.widths
        for b in ahead:
            if len(mu.view.get(b, ())) != widths[b]:
                raise MonitorError(
                    f"payload is ahead on {b!r} but has no view row of width {widths[b]}"
                )
        for b in ahead:
            # The sender is strictly ahead on b: adopt its rows wholesale
            # (entries the sender lacks must disappear here too) and its
            # clock component, the only ones the join changes.
            s.vc[b] = mu.vc[b]
            s.view[b] = mu.view[b]
            s.var[b] = mu.var.get(b, {})

    if s.vals is not None:
        s.old = s.vals

    s.vc[s.me] += 1
    s.store = d.store_after.copy()
    s.var[s.me] = {x: s.store[x] for x in s.cone.mirror if x in s.store}


def finish_event(s: MonitorState, d: EventDescriptor) -> MessagePayload | None:
    """Phase 2: run the cone's plan, publish the exported row, emit."""
    vals = s.vals = tuple(_run_plan(s))
    cone = s.cone
    s.view[s.me] = vals if cone.whole else tuple(map(vals.__getitem__, cone.export))

    if d.kind.tag == "send":
        return MessagePayload(vc=dict(s.vc), view=dict(s.view), var=dict(s.var))
    return None


def on_event(
    s: MonitorState, d: EventDescriptor
) -> tuple[MonitorState, MessagePayload | None]:
    """Process one event of this monitor's lifeline; returns the (mutated)
    state and, for sends, the payload to attach to the outgoing message."""
    begin_event(s, d)
    return s, finish_event(s, d)


def _run_plan(s: MonitorState) -> list[bool]:
    """Values of every step of ``s.program``. Child values come from
    the list being built; ``Y`` and ``S`` read ``s.old``, which is all
    false at the first local event."""
    me, view, old = s.me, s.view, s.old
    vals: list[bool] = []
    push = vals.append
    steps, literals, reads = s.program
    src = [literals, s.store, *[s.var.get(b, {}) for b in reads]]
    for op, a, b in steps:
        if op == "atom":
            i, x, j, y = b
            v = a(src[i].get(x), src[j].get(y))
        elif op == "and":
            v = vals[a] and vals[b]
        elif op == "or":
            v = vals[a] or vals[b]
        elif op == "not":
            v = not vals[a]
        elif op == "S":  # old[len(vals)] is this step's previous value
            v = vals[b] or (vals[a] and old[len(vals)])
        elif op == "at":
            if b == me:
                v = vals[a]
            else:  # b has no row while unseen: at(b, f) is false
                row = view.get(b)
                v = row is not None and row[a]
        elif op == "Y":
            v = old[a]
        else:  # "true"
            v = True
        push(v)
    return vals
