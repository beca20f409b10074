"""JSON trace files.

A trace is one chart serialized as::

    {
      "lifelines": ["A", "B"],
      "events": [
        {"id": 0, "lifeline": "A", "kind": "send", "receiver": "B",
         "vars": {"x": {"int": 1}}},
        {"id": 1, "lifeline": "B", "kind": "recv", "vars": {}}
      ],
      "succ": [[from, to], ...],
      "messages": [[send, recv], ...]
    }

Key names are exact and unknown keys are rejected. Variable values are
tagged objects with exactly one of ``int`` (signed 64-bit), ``str``, or
``bool``. Event ids are unique naturals with no semantic ordering.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .msc import EVENT_TAGS, INT64_MAX, INT64_MIN, EventKind, Msc, Valuation, Value

_TRACE_KEYS = {"lifelines", "events", "succ", "messages"}
_EVENT_KEYS = {"id", "lifeline", "kind", "receiver", "vars"}
_TAG_TYPES = {"int": int, "str": str, "bool": bool}
#: One shared, frozen kind per ``(tag, receiver)``.
_event_kind = lru_cache(maxsize=256)(EventKind)


class TraceFormatError(Exception):
    """Raised when a trace file does not match the documented schema."""


def decode_value(obj: object) -> Value:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise TraceFormatError(f"value must be a one-key tagged object, got {obj!r}")
    (tag, raw), = obj.items()
    if tag == "int":
        if type(raw) is not int:
            raise TraceFormatError(f"int value must be an integer, got {raw!r}")
        if not INT64_MIN <= raw <= INT64_MAX:
            raise TraceFormatError(f"int value out of 64-bit range: {raw}")
        return raw
    if tag == "str":
        if type(raw) is not str:
            raise TraceFormatError(f"str value must be a string, got {raw!r}")
        return raw
    if tag == "bool":
        if type(raw) is not bool:
            raise TraceFormatError(f"bool value must be a boolean, got {raw!r}")
        return raw
    raise TraceFormatError(f"unknown value tag {tag!r}")


def encode_value(v: Value) -> dict[str, Value]:
    if type(v) is bool:
        return {"bool": v}
    if type(v) is int:
        return {"int": v}
    if type(v) is str:
        return {"str": v}
    raise TypeError(f"not a storable value: {v!r}")


def encode_valuation(val: Valuation) -> dict[str, dict[str, Value]]:
    """Inverse of :func:`decode_valuation`, names in sorted order."""
    return {x: encode_value(v) for x, v in sorted(val.items())}


def decode_valuation(obj: object, where: str) -> Valuation:
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{where}: vars must be an object")
    out: Valuation = {}
    for name, raw in obj.items():
        # Fast path for a well-formed entry; anything else takes the checks below.
        if type(raw) is dict and len(raw) == 1 and type(name) is str and name:
            (tag, v), = raw.items()
            if type(v) is _TAG_TYPES.get(tag) and (tag != "int" or INT64_MIN <= v <= INT64_MAX):
                out[name] = v
                continue
        if not isinstance(name, str) or not name:
            raise TraceFormatError(f"{where}: bad variable name {name!r}")
        try:
            out[name] = decode_value(raw)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{where}: variable {name!r}: {exc}") from None
    return out


def decode_event(
    ev: object, where: str, lifelines: set[str]
) -> tuple[int, str, EventKind, Valuation]:
    """One event object of the trace schema: its id, lifeline, kind and
    valuation. A send must name a declared lifeline other than its own."""
    if not isinstance(ev, dict):
        raise TraceFormatError(f"{where}: must be an object")
    if not ev.keys() <= _EVENT_KEYS:
        raise TraceFormatError(f"{where}: unknown keys {sorted(set(ev) - _EVENT_KEYS)}")
    for key in ("id", "lifeline", "kind", "vars"):
        if key not in ev:
            raise TraceFormatError(f"{where}: missing key {key!r}")
    eid, b, tag, receiver = ev["id"], ev["lifeline"], ev["kind"], ev.get("receiver")
    if type(eid) is not int or eid < 0:
        raise TraceFormatError(f"{where}: id must be a natural number")
    if not isinstance(b, str) or b not in lifelines:
        raise TraceFormatError(f"{where}: undeclared lifeline {b!r}")
    if tag not in EVENT_TAGS:
        raise TraceFormatError(f"{where}: unknown kind {tag!r}")
    if tag == "send":
        if not isinstance(receiver, str) or receiver not in lifelines or receiver == b:
            raise TraceFormatError(
                f"{where}: send needs a declared receiver other than its own lifeline"
            )
    elif receiver is not None:
        raise TraceFormatError(f"{where}: receiver only allowed on send events")
    return eid, b, _event_kind(tag, receiver), decode_valuation(ev["vars"], where)


def parse_trace(data: object) -> Msc:
    """Build a chart from already-parsed JSON; strict about the schema."""
    if not isinstance(data, dict):
        raise TraceFormatError("trace must be a JSON object")
    unknown = set(data) - _TRACE_KEYS
    if unknown:
        raise TraceFormatError(f"unknown trace keys: {sorted(unknown)}")
    for key in _TRACE_KEYS:
        if key not in data:
            raise TraceFormatError(f"missing trace key {key!r}")

    lifelines = data["lifelines"]
    if not isinstance(lifelines, list) or not all(
        isinstance(b, str) and b for b in lifelines
    ):
        raise TraceFormatError("lifelines must be a list of nonempty strings")
    if len(set(lifelines)) != len(lifelines):
        raise TraceFormatError("duplicate lifeline names")
    lifeline_set = set(lifelines)

    if not isinstance(data["events"], list):
        raise TraceFormatError("events must be a list")
    kind: dict[int, EventKind] = {}
    pid: dict[int, str] = {}
    val: dict[int, Valuation] = {}
    for i, ev in enumerate(data["events"]):
        eid, pid_e, kind_e, val_e = decode_event(ev, f"events[{i}]", lifeline_set)
        if eid in kind:
            raise TraceFormatError(f"events[{i}]: duplicate event id {eid}")
        kind[eid], pid[eid], val[eid] = kind_e, pid_e, val_e
    ids = list(kind)

    succ = _decode_pairs(data["succ"], "succ", set(ids))
    msg = _decode_pairs(data["messages"], "messages", set(ids))

    return Msc(
        lifelines=tuple(lifelines),
        events=tuple(ids),
        kind=kind,
        pid=pid,
        val=val,
        succ=succ,
        msg=msg,
    )


def _decode_pairs(obj: object, name: str, ids: set[int]) -> dict[int, int]:
    if not isinstance(obj, list):
        raise TraceFormatError(f"{name} must be a list of [from, to] pairs")
    out: dict[int, int] = {}
    for i, pair in enumerate(obj):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or type(pair[0]) is not int or type(pair[1]) is not int
        ):
            raise TraceFormatError(f"{name}[{i}]: must be a pair of event ids")
        src, dst = pair
        if src not in ids or dst not in ids:
            raise TraceFormatError(f"{name}[{i}]: unknown event id")
        if src in out:
            raise TraceFormatError(f"{name}[{i}]: duplicate source id {src}")
        out[src] = dst
    return out


def read_json(path: str | Path, error: type[Exception] = TraceFormatError) -> object:
    """Parse a UTF-8 JSON file; undecodable bytes or bad JSON raise ``error``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"invalid JSON: {exc}") from exc


def load_trace(source: str | Path | dict) -> Msc:
    """Load a chart from a file path or an already-parsed JSON object."""
    if isinstance(source, (str, Path)):
        source = read_json(source)
    return parse_trace(source)


def dump_trace(m: Msc) -> dict:
    """Serialize a chart back to the trace schema (stably ordered)."""
    events = []
    for eid in sorted(m.events):
        k = m.kind[eid]
        ev: dict = {"id": eid, "lifeline": m.pid[eid], "kind": k.tag}
        if k.receiver is not None:
            ev["receiver"] = k.receiver
        ev["vars"] = encode_valuation(m.val[eid])
        events.append(ev)
    return {
        "lifelines": list(m.lifelines),
        "events": events,
        "succ": sorted([s, d] for s, d in m.succ.items()),
        "messages": sorted([s, d] for s, d in m.msg.items()),
    }
