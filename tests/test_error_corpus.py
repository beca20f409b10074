"""Malformed guards, traces and scenarios: the text, and for guards the
position, of every error.

The tokenizer and the valuation decoder take fast paths on well-formed
input and fall through to the full checks on anything else; these pins
keep every error's text, position and precedence fixed.
"""

import copy
import json
from dataclasses import FrozenInstanceError

import pytest

from cplkit.cli import main
from cplkit.lang import MAX_NESTING, ParseError, parse_guard
from cplkit.simulator import ScenarioError, load_scenario
from cplkit.trace import TraceFormatError, load_trace, parse_trace

LIFELINES = {"A", "B", "TestRunner"}

#: (guard, message, line, col)
GUARD_ERRORS = [
    ("", "unexpected end of input", 1, 1),
    ("   \n\t  ", "unexpected end of input", 2, 4),
    ("x ==", "expected a term or literal", 1, 5),
    ("x == 1 &&", "unexpected end of input", 1, 10),
    ("x == 1 &&\n  y ==", "expected a term or literal", 2, 7),
    ("x == 1\n&&\n(y == 2", "expected ')'", 3, 8),
    ("at(A, x == 1", "expected ')'", 1, 13),
    ("(x == 1", "expected ')'", 1, 8),
    ("x == 1 )", "unexpected ')'", 1, 8),
    (") x == 1", "unexpected ')'", 1, 1),
    ("$x == 1", "unexpected character '$'", 1, 1),
    ("x == $1", "unexpected character '$'", 1, 6),
    ("x == 1 $", "unexpected character '$'", 1, 8),
    ("x == 1 && # y == 2", "unexpected character '#'", 1, 11),
    ("\tx == 1 &&\t\ty == @", "unexpected character '@'", 1, 18),
    ("x == 1 &&\n\t\t\u00fc == 2", "unexpected character '\u00fc'", 2, 3),
    ("x == 1 &&\r\n $", "unexpected character '$'", 2, 2),
    ("x == 1 &&\u00a0\u2028 ~", "unexpected character '~'", 1, 13),
    ("x == \"abc", "unexpected character '\"'", 1, 6),
    ("x == \"ab\ncd\"", "unexpected character '\"'", 1, 6),
    ("x == 1 &&\n  s == \"open", "unexpected character '\"'", 2, 8),
    ("x == \"\\q\"", "bad string literal", 1, 6),
    ("(" * (MAX_NESTING + 1) + "x == 1" + ")" * (MAX_NESTING + 1), "guard nested deeper than 100 levels", 1, 101),
    ("!\n" * (MAX_NESTING + 1) + "x == 1", "guard nested deeper than 100 levels", 101, 1),
    ("x == 1" + " && x == 1" * (MAX_NESTING + 1), "guard nested deeper than 100 levels", 1, 1008),
    ("Y == 1", "expected '('", 1, 3),
    ("x == 1 && S == 2", "'S' is reserved; qualify with Here.", 1, 11),
    ("x == 1 &&\n at == 2", "expected '('", 2, 5),
    ("Here == 1", "expected '.'", 1, 6),
    ("true == false", "at least one side of a comparison must be a variable term", 1, 1),
    ("1 == 2", "at least one side of a comparison must be a variable term", 1, 1),
    ("at(Nope, x == 1)", "unknown lifeline 'Nope'", 1, 4),
    ("At[Nope].x == 1", "unknown lifeline 'Nope'", 1, 4),
    ("x == 1 ||\n  seen(Nope)", "unknown lifeline 'Nope'", 2, 8),
    ("P[Nope](x == 1)", "unknown lifeline 'Nope'", 1, 3),
    ("at(1, x == 1)", "expected a lifeline name", 1, 4),
    ("Here.1 == 2", "expected a variable name", 1, 6),
    ("At[A] == 1", "expected '.'", 1, 7),
    ("x 1", "expected a comparison operator", 1, 3),
    ("x", "expected a comparison operator", 1, 2),
    ("x == 9223372036854775808", "integer literal outside the signed 64-bit range", 1, 6),
    ("x == -9223372036854775809", "integer literal outside the signed 64-bit range", 1, 6),
    ("x == " + "9" * 5000, "integer literal outside the signed 64-bit range", 1, 6),
    ("Y x == 1", "expected '('", 1, 3),
    ("P[A x == 1", "expected ']'", 1, 5),
    ("at(A x == 1)", "expected ','", 1, 6),
    ("x == 1 S", "unexpected end of input", 1, 9),
    ("! ", "unexpected end of input", 1, 3),
    ("x == ==", "expected a term or literal", 1, 6),
    ("x == 1 && && y == 2", "unexpected '&&'", 1, 11),
    ("seen(A", "expected ')'", 1, 7),
]


@pytest.mark.parametrize("text, message, line, col", GUARD_ERRORS)
def test_malformed_guard_errors_are_pinned(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_guard(text, LIFELINES)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


DROP = object()


def edit(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path``: DROP deletes the
    entry, and an index one past a list's end appends."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    if value is DROP:
        del node[last]
    elif isinstance(node, list) and last == len(node):
        node.append(value)
    else:
        node[last] = value
    return doc


def ev(eid, lifeline, kind, to=None, **vars):
    out = {"id": eid, "lifeline": lifeline, "kind": kind}
    if to is not None:
        out["receiver"] = to
    out["vars"] = vars
    return out


TRACE = {
    "lifelines": ["A", "B"],
    "events": [
        ev(0, "A", "send", "B", x={"int": 1}),
        ev(1, "B", "recv"),
        ev(2, "A", "choice", s={"str": "hi"}),
        ev(3, "B", "act", b={"bool": True}),
        ev(4, "A", "recv"),
        ev(5, "B", "send", "A"),
    ],
    "succ": [[0, 2], [2, 4], [1, 3], [3, 5]],
    "messages": [[0, 1], [5, 4]],
}
SCENARIO = {
    **TRACE,
    "guards": [{"choice_event_id": 2, "guard": "x == 1"}],
    "branches": [{
        "choice_event_id": 2,
        "then": {"events": [ev(10, "A", "send", "B", y={"int": 2})]},
        "else": {"events": [ev(11, "A", "act")]},
    }],
}
V = ("events", 0, "vars")
ARM = ("branches", 0, "then", "events", 0)

#: (path, value, message): the trace or scenario above with ``value`` at ``path``.
TRACE_ERRORS = [
    ((), [],
     "trace must be a JSON object"),
    (("frob",), 1,
     "unknown trace keys: ['frob']"),
    (("messages",), DROP,
     "missing trace key 'messages'"),
    (("lifelines",), "AB",
     "lifelines must be a list of nonempty strings"),
    (("lifelines",), ["A", ""],
     "lifelines must be a list of nonempty strings"),
    (("lifelines",), ["A", 1],
     "lifelines must be a list of nonempty strings"),
    (("lifelines",), ["A", "B", "A"],
     "duplicate lifeline names"),
    (("events",), {},
     "events must be a list"),
    (("events", 1), "ev",
     "events[1]: must be an object"),
    (("events", 0, "color"), "red",
     "events[0]: unknown keys ['color']"),
    (("events", 0, "id"), DROP,
     "events[0]: missing key 'id'"),
    (("events", 0, "lifeline"), DROP,
     "events[0]: missing key 'lifeline'"),
    (("events", 0, "kind"), DROP,
     "events[0]: missing key 'kind'"),
    (V, DROP,
     "events[0]: missing key 'vars'"),
    (("events", 0, "id"), -1,
     "events[0]: id must be a natural number"),
    (("events", 0, "id"), True,
     "events[0]: id must be a natural number"),
    (("events", 0, "id"), "0",
     "events[0]: id must be a natural number"),
    (("events", 0, "id"), 1.0,
     "events[0]: id must be a natural number"),
    (("events", 1, "id"), 0,
     "events[1]: duplicate event id 0"),
    (("events", 0, "lifeline"), "Z",
     "events[0]: undeclared lifeline 'Z'"),
    (("events", 0, "lifeline"), 5,
     "events[0]: undeclared lifeline 5"),
    (("events", 0, "kind"), "sendd",
     "events[0]: unknown kind 'sendd'"),
    (("events", 0, "kind"), "Send",
     "events[0]: unknown kind 'Send'"),
    (("events", 0, "kind"), 3,
     "events[0]: unknown kind 3"),
    (("events", 0, "receiver"), DROP,
     "events[0]: send needs a declared receiver other than its own lifeline"),
    (("events", 0, "receiver"), "A",
     "events[0]: send needs a declared receiver other than its own lifeline"),
    (("events", 0, "receiver"), "Z",
     "events[0]: send needs a declared receiver other than its own lifeline"),
    (("events", 0, "receiver"), None,
     "events[0]: send needs a declared receiver other than its own lifeline"),
    (("events", 2, "receiver"), "B",
     "events[2]: receiver only allowed on send events"),
    (("events", 1, "receiver"), "A",
     "events[1]: receiver only allowed on send events"),
    (V, [],
     "events[0]: vars must be an object"),
    (V, "x=1",
     "events[0]: vars must be an object"),
    (V, {"": {"int": 1}},
     "events[0]: bad variable name ''"),
    (V, {"": {"int": "x"}},
     "events[0]: bad variable name ''"),
    (V, {"ok": {"int": "bad"}, "": {"int": 1}},
     "events[0]: variable 'ok': int value must be an integer, got 'bad'"),
    (V, {"a": {"int": 1}, "b": {"Int": 1}},
     "events[0]: variable 'b': unknown value tag 'Int'"),
    (V, {"x": {"int": "1"}},
     "events[0]: variable 'x': int value must be an integer, got '1'"),
    (V, {"x": {"int": True}},
     "events[0]: variable 'x': int value must be an integer, got True"),
    (V, {"x": {"int": 1.0}},
     "events[0]: variable 'x': int value must be an integer, got 1.0"),
    (V, {"x": {"int": 2**63}},
     "events[0]: variable 'x': int value out of 64-bit range: 9223372036854775808"),
    (V, {"x": {"int": -(2**63) - 1}},
     "events[0]: variable 'x': int value out of 64-bit range: -9223372036854775809"),
    (V, {"x": {"str": 7}},
     "events[0]: variable 'x': str value must be a string, got 7"),
    (V, {"x": {"str": None}},
     "events[0]: variable 'x': str value must be a string, got None"),
    (V, {"x": {"bool": 1}},
     "events[0]: variable 'x': bool value must be a boolean, got 1"),
    (V, {"x": {"bool": "true"}},
     "events[0]: variable 'x': bool value must be a boolean, got 'true'"),
    (V, {"x": {"float": 1.5}},
     "events[0]: variable 'x': unknown value tag 'float'"),
    (V, {"x": {}},
     "events[0]: variable 'x': value must be a one-key tagged object, got {}"),
    (V, {"x": {"int": 1, "str": "x"}},
     "events[0]: variable 'x': value must be a one-key tagged object, got {'int': 1, 'str': 'x'}"),
    (V, {"x": "bare"},
     "events[0]: variable 'x': value must be a one-key tagged object, got 'bare'"),
    (V, {"x": None},
     "events[0]: variable 'x': value must be a one-key tagged object, got None"),
    (V, {"x": [1]},
     "events[0]: variable 'x': value must be a one-key tagged object, got [1]"),
    (V, {"x": 1},
     "events[0]: variable 'x': value must be a one-key tagged object, got 1"),
    (("succ",), "x",
     "succ must be a list of [from, to] pairs"),
    (("succ",), [[0]],
     "succ[0]: must be a pair of event ids"),
    (("succ",), [(0, 2)],
     "succ[0]: must be a pair of event ids"),
    (("succ",), [[0, "2"]],
     "succ[0]: must be a pair of event ids"),
    (("succ",), [[True, 2]],
     "succ[0]: must be a pair of event ids"),
    (("succ",), [[0, 9]],
     "succ[0]: unknown event id"),
    (("succ",), [[0, 2], [0, 3]],
     "succ[1]: duplicate source id 0"),
    (("messages",), [[0, 1, 2]],
     "messages[0]: must be a pair of event ids"),
    (("messages",), [[7, 1]],
     "messages[0]: unknown event id"),
    (("messages",), [[0, 1], [0, 4]],
     "messages[1]: duplicate source id 0"),
    (("events", 2, "receiver"), None,
     "events[2]: receiver only allowed on send events"),
]

SCENARIO_ERRORS = [
    (("extra",), 1,
     "unknown scenario keys: ['extra']"),
    (("events",), DROP,
     "missing scenario key 'events'"),
    (("guards",), {},
     "guards must be a list"),
    (("branches",), "b",
     "branches must be a list"),
    (("guards", 0), {"choice_event_id": 2},
     "guards[0]: expected {choice_event_id, guard}"),
    (("guards", 0), {"choice_event_id": "2", "guard": "x == 1"},
     "guards[0]: expected {choice_event_id, guard}"),
    (("guards", 0), {"choice_event_id": 2, "guard": 1},
     "guards[0]: expected {choice_event_id, guard}"),
    (("guards", 1), {"choice_event_id": 2, "guard": "true"},
     "guards[1]: duplicate guard for event 2"),
    (("guards", 0, "choice_event_id"), 3,
     "branches[0]: event 2 has no guard"),
    (("guards", 0, "choice_event_id"), 99,
     "branches[0]: event 2 has no guard"),
    (("branches", 0), {"choice_event_id": 2, "then": {}},
     "branches[0]: expected {choice_event_id, then, else}"),
    (("branches", 0, "choice_event_id"), 3,
     "branches[0]: event 3 has no guard"),
    (("branches", 1), {"choice_event_id": 2, "then": {}, "else": {}},
     "branches[1]: duplicate branch for event 2"),
    (("branches", 0, "then"), [],
     "branches[0].then: expected {events}"),
    (("branches", 0, "then"), {"events": {}},
     "branches[0].then: events must be a list"),
    (("branches", 0, "else"), {"evts": []},
     "branches[0].else: expected {events}"),
    (V, {"": {"int": "x"}},
     "events[0]: bad variable name ''"),
    (V + ("x",), {"int": 2**63},
     "events[0]: variable 'x': int value out of 64-bit range: 9223372036854775808"),
    (("events", 0, "kind"), "sned",
     "events[0]: unknown kind 'sned'"),
    (("succ",), [[0, 1], [2, 4], [1, 3], [3, 5]],
     "scenario chart is not well-formed: (Violation(condition='i', detail='local successor edge crosses lifelines', events=(0, 1)), Violation(condition='ii', detail=\"events of lifeline 'A' do not form a single chain\", events=(0, 2, 4)), Violation(condition='ii', detail=\"events of lifeline 'B' do not form a single chain\", events=(1, 3, 5)))"),
    (("succ",), [[4, 0], [0, 2], [1, 3], [3, 5]],
     "scenario chart is not well-formed: (Violation(condition='iv', detail='successor/message graph is cyclic', events=()),)"),
    (("succ",), [[0, 2], [2, 4], [3, 5]],
     "scenario chart is not well-formed: (Violation(condition='ii', detail=\"events of lifeline 'B' do not form a single chain\", events=(1, 3, 5)),)"),
    (("succ",), [[0, 2], [4, 2], [1, 3], [3, 5]],
     "scenario chart is not well-formed: (Violation(condition='ii', detail='event has two local predecessors', events=(2,)), Violation(condition='ii', detail=\"events of lifeline 'A' do not form a single chain\", events=(0, 2, 4)))"),
    (("messages",), [[0, 1]],
     "scenario chart is not well-formed: (Violation(condition='iii', detail='receive event has no matching send', events=(4,)),)"),
    (("messages",), [[2, 1], [5, 4]],
     "scenario chart is not well-formed: (Violation(condition='iii', detail='message source is not a send event', events=(2, 1)), Violation(condition='iii', detail='receive event has no matching send', events=(1,)))"),
    (("messages",), [[0, 3], [5, 4]],
     "scenario chart is not well-formed: (Violation(condition='iii', detail='message target is not a receive event', events=(0, 3)), Violation(condition='iii', detail='receive event has no matching send', events=(1,)))"),
    (("messages",), [[0, 1], [5, 1]],
     "scenario chart is not well-formed: (Violation(condition='iii', detail='message stays on one lifeline', events=(5, 1)), Violation(condition='iii', detail='send kind names a different receiver', events=(5, 1)), Violation(condition='iii', detail='receive matched by two sends', events=(0, 5, 1)), Violation(condition='iii', detail='receive event has no matching send', events=(4,)), Violation(condition='iv', detail='successor/message graph is cyclic', events=()))"),
    (("messages",), [[0, 4], [5, 1]],
     "scenario chart is not well-formed: (Violation(condition='iii', detail='message stays on one lifeline', events=(0, 4)), Violation(condition='iii', detail='send kind names a different receiver', events=(0, 4)), Violation(condition='iii', detail='message stays on one lifeline', events=(5, 1)), Violation(condition='iii', detail='send kind names a different receiver', events=(5, 1)), Violation(condition='iv', detail='successor/message graph is cyclic', events=()))"),
    (ARM + ("vars",), {"": {"int": 1}},
     "continuation breaks the trace format: branch at event 2, then[0]: bad variable name ''"),
    (ARM + ("vars",), {"y": {"int": -(2**63) - 1}},
     "continuation breaks the trace format: branch at event 2, then[0]: variable 'y': int value out of 64-bit range: -9223372036854775809"),
    (ARM + ("vars",), {"y": {"bool": 0}},
     "continuation breaks the trace format: branch at event 2, then[0]: variable 'y': bool value must be a boolean, got 0"),
    (ARM, {"id": 10, "lifeline": "A", "kind": "recv", "vars": {}},
     "branch at event 2, then[0]: receive events are not allowed in continuations"),
    (ARM, {"id": 10, "lifeline": "B", "kind": "act", "vars": {}},
     "continuation event 10 is not on the owner lifeline 'A'"),
    (("guards", 1), {"choice_event_id": 3, "guard": "true"},
     "guard on non-choice event 3"),
    (("guards", 1), {"choice_event_id": 99, "guard": "true"},
     "guard references unknown event 99"),
    (ARM + ("kind",), "snd",
     "continuation breaks the trace format: branch at event 2, then[0]: unknown kind 'snd'"),
    (ARM + ("id",), 2,
     "continuation breaks the trace format: branch at event 2, then[0]: duplicate event id 2"),
    (ARM + ("lifeline",), "B",
     "continuation breaks the trace format: branch at event 2, then[0]: send needs a declared receiver other than its own lifeline"),
    (ARM + ("receiver",), "A",
     "continuation breaks the trace format: branch at event 2, then[0]: send needs a declared receiver other than its own lifeline"),
    (ARM + ("lifeline",), "C",
     "continuation breaks the trace format: branch at event 2, then[0]: undeclared lifeline 'C'"),
    (("branches", 0, "else", "events", 1), {"id": 10, "lifeline": "A", "kind": "act", "vars": {}},
     "continuation breaks the trace format: branch at event 2, else[1]: duplicate event id 10"),
]


def test_the_unedited_documents_load():
    load_trace(TRACE)
    load_scenario(SCENARIO)


@pytest.mark.parametrize("path, value, message", TRACE_ERRORS)
def test_malformed_trace_errors_are_pinned(path, value, message):
    with pytest.raises(TraceFormatError) as exc:
        load_trace(edit(TRACE, path, value))
    assert str(exc.value) == message


@pytest.mark.parametrize("path, value, message", SCENARIO_ERRORS)
def test_malformed_scenario_errors_are_pinned(path, value, message):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(edit(SCENARIO, path, value))
    assert str(exc.value) == message


def test_decoded_event_kinds_are_shared_and_frozen():
    m, other = parse_trace(TRACE), parse_trace(copy.deepcopy(TRACE))
    for a in m.events:
        for b in m.events:
            same = (m.kind[a].tag, m.kind[a].receiver) == (m.kind[b].tag, m.kind[b].receiver)
            assert (m.kind[a] is m.kind[b]) == same
        assert other.kind[a] is m.kind[a]
    with pytest.raises(FrozenInstanceError):
        m.kind[0].receiver = "A"
    assert m.kind[0].receiver == "B"


def test_null_receiver_on_a_non_send_exits_2(capsys, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(edit(TRACE, ("events", 2, "receiver"), None)))
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "events[2]: receiver only allowed on send events" in out.err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    """JSON nested past the decoder's recursion limit is malformed input,
    not a crash: a typed error from both loaders and exit 2 from the CLI."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    for load, error in ((load_trace, TraceFormatError), (load_scenario, ScenarioError)):
        with pytest.raises(error, match="^invalid JSON: nested too deeply$"):
            load(str(path))
    for argv in (["check"], ["simulate"], ["explain", "--event", "0"]):
        assert main(argv + [str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: invalid JSON: nested too deeply\n"
