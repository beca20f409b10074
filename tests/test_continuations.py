"""Branch continuations: checked once at load, grown into well-formed charts,
and the malformed inputs around them that must end in a typed error."""

import copy
import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from cplkit.cli import main
from cplkit.denot import sat_table
from cplkit.fixtures import fixture_path
from cplkit.msc import validate_msc
from cplkit.simulator import (
    FuzzParams,
    Scenario,
    ScenarioError,
    gen_random_msc,
    load_scenario,
    run_scenario,
    sample_linear_extension,
)
from cplkit.trace import TraceFormatError, dump_trace, load_trace

from oracles import chart, ev, vars_of
from scenarios import chart_answers, gen_scenario


def merge_with_branch(then_events, else_events=(), guards=()):
    """The merge-review scenario with one branch at its choice event 5
    (lifeline Committer) and optional extra guards."""
    data = json.loads(fixture_path("merge_review").read_text())
    data["guards"] += [{"choice_event_id": e, "guard": g} for e, g in guards]
    data["branches"] = [
        {
            "choice_event_id": 5,
            "then": {"events": list(then_events)},
            "else": {"events": list(else_events)},
        }
    ]
    return data


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------- #
# Continuations are checked at load
# ---------------------------------------------------------------------- #

MALFORMED = {
    "other lifeline": merge_with_branch([ev(10, "TestRunner", "act")]),
    "id from the chart": merge_with_branch([ev(3, "Committer", "act")]),
    "id across continuations": merge_with_branch(
        [ev(10, "Committer", "act")], [ev(10, "Committer", "act")]
    ),
    "not an object": merge_with_branch(["act"]),
    "bad vars": merge_with_branch(
        [{"id": 10, "lifeline": "Committer", "kind": "act", "vars": {"x": 1}}]
    ),
    "receive": merge_with_branch([ev(10, "Committer", "recv")]),
    "self-addressed send": merge_with_branch(
        [ev(10, "Committer", "send", to="Committer")]
    ),
    "guard on a non-choice": merge_with_branch(
        [ev(10, "Committer", "act")], guards=[(10, "true")]
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_continuation_fails_load(case):
    with pytest.raises(ScenarioError):
        load_scenario(copy.deepcopy(MALFORMED[case]))


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_continuation_exits_2(capsys, tmp_path, case, command):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(MALFORMED[case]))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err


def test_continuation_rules_hold_for_scenarios_built_directly():
    m = load_trace(chart(["A", "B"], [ev(0, "A", "choice", vars_of(x=1))]))
    with pytest.raises(ScenarioError, match="non-choice"):
        Scenario(
            msc=m,
            guard_texts={0: "Here.x == 1", 9: "true"},
            branches={0: ([ev(9, "A", "act")], [])},
        )
    with pytest.raises(ScenarioError, match="trace format"):
        Scenario(
            msc=m,
            guard_texts={0: "Here.x == 1"},
            branches={0: ([ev(9, "A", "send", to="A")], [])},
        )


def test_well_formed_continuations_load():
    data = merge_with_branch(
        [ev(10, "Committer", "act", vars_of(candidate="rev-17"))],
        [ev(11, "Committer", "send", to="Orchestrator")],
    )
    sc = load_scenario(data)
    assert sorted(sc.branches) == [5]
    for seed in range(5):
        log = run_scenario(sc, sc.guard_set(), seed)
        assert validate_msc(log.msc).ok
        assert len(log.order) == 8  # one arm of one event is taken


# ---------------------------------------------------------------------- #
# Replay grows the chart from the arms taken
# ---------------------------------------------------------------------- #

BASE = chart(
    ["A", "B"],
    [
        ev(0, "A", "act", vars_of(x=1)),
        ev(1, "A", "send", vars_of(x=1), to="B"),
        ev(2, "B", "act", vars_of(y=0)),
        ev(3, "B", "recv", vars_of(y=1)),
        ev(4, "B", "choice", vars_of(y=1)),
        ev(5, "A", "act", vars_of(x=2)),
    ],
    succ=[(0, 1), (1, 5), (2, 3), (3, 4)],
    messages=[(1, 3)],
)

OUTER_THEN = [
    ev(10, "B", "act", vars_of(y=5)),
    ev(11, "B", "choice", vars_of(y=5)),
    ev(12, "B", "send", vars_of(y=5), to="A"),
]
OUTER_ELSE = [ev(20, "B", "act", vars_of(y=7))]
INNER_THEN = [ev(30, "B", "act", vars_of(y=9))]
INNER_ELSE = [ev(40, "B", "send", vars_of(y=5), to="A"), ev(41, "B", "act")]


def nested_scenario(outer_guard: str, inner_guard: str) -> dict:
    """A branch at choice 4 whose then-arm holds a guarded choice 11 with
    its own branch."""
    return {
        **copy.deepcopy(BASE),
        "guards": [
            {"choice_event_id": 4, "guard": outer_guard},
            {"choice_event_id": 11, "guard": inner_guard},
        ],
        "branches": [
            {"choice_event_id": 4, "then": {"events": OUTER_THEN},
             "else": {"events": OUTER_ELSE}},
            {"choice_event_id": 11, "then": {"events": INNER_THEN},
             "else": {"events": INNER_ELSE}},
        ],
    }


def expected_chart(verdicts: dict[int, bool]) -> dict:
    """The base chart with the taken arms chained after B's last event,
    in the trace schema as ``dump_trace`` orders it."""
    data = copy.deepcopy(BASE)
    arms = {4: (OUTER_THEN, OUTER_ELSE), 11: (INNER_THEN, INNER_ELSE)}
    last_b = 4
    for choice in (4, 11):
        if choice not in verdicts:
            continue
        for e in arms[choice][0 if verdicts[choice] else 1]:
            data["events"].append(copy.deepcopy(e))
            data["succ"].append([last_b, e["id"]])
            last_b = e["id"]
    data["events"].sort(key=lambda e: e["id"])
    data["succ"].sort()
    return data


@pytest.mark.parametrize(
    "outer_guard, inner_guard",
    [
        ("Here.y == 1 && At[A].x == 1", "Here.y == 5"),
        ("Here.y == 1", "at(A, Here.x == 2)"),
        ("Here.y == 2", "true"),
    ],
)
def test_replay_with_nested_branches(outer_guard, inner_guard):
    sc = load_scenario(nested_scenario(outer_guard, inner_guard))
    g = sc.guard_set()
    formulas, guard_index_of = sc.guard_formulas()
    arms_seen = set()
    for seed in range(8):
        log = run_scenario(sc, g, seed)
        verdicts = {r["event"]: r["verdict"] for r in log.records if "verdict" in r}
        arms_seen.add(tuple(sorted(verdicts.items())))
        assert validate_msc(log.msc).ok
        assert log.msc.is_linear_extension(log.order)
        assert dump_trace(log.msc) == expected_chart(verdicts)
        rows = sat_table(log.msc, g)
        for e, verdict in verdicts.items():
            assert verdict == rows[e][g.index[formulas[guard_index_of[e]]]]
        # the scenario's own chart is never grown in place
        assert len(sc.msc.events) == len(BASE["events"])
    assert len(arms_seen) == 1  # verdicts depend on the chart, not the schedule


def test_nested_branches_take_every_arm():
    taken = {}
    for outer, inner in [("true", "true"), ("true", "!true"), ("!true", "true")]:
        sc = load_scenario(nested_scenario(outer, inner))
        log = run_scenario(sc, sc.guard_set(), seed=3)
        taken[(outer, inner)] = sorted(set(log.msc.events) - {0, 1, 2, 3, 4, 5})
    assert taken == {
        ("true", "true"): [10, 11, 12, 30],
        ("true", "!true"): [10, 11, 12, 40, 41],
        ("!true", "true"): [20],
    }


def replay_against_fresh_charts(sc, seed):
    """Replay without any new chart analysis, then check that the grown
    chart answers every causal query like one loaded from its dump, and
    that the scenario's own chart answers as before."""
    before = chart_answers(sc.msc)
    with mock.patch("cplkit.msc.topological_order", side_effect=AssertionError):
        log = run_scenario(sc, sc.guard_set(), seed)
        grown = chart_answers(log.msc)
    assert grown == chart_answers(load_trace(dump_trace(log.msc)))
    assert chart_answers(sc.msc) == before
    return log


@pytest.mark.parametrize("outer", ["true", "!true", "Here.y == 1"])
@pytest.mark.parametrize("inner", ["true", "!true"])
def test_grown_nested_branch_charts_answer_like_fresh_charts(outer, inner):
    sc = load_scenario(nested_scenario(outer, inner))
    for seed in range(4):
        replay_against_fresh_charts(sc, seed)


def test_grown_generated_charts_answer_like_fresh_charts():
    appended = 0
    for seed in range(80):
        sc = load_scenario(gen_scenario(seed))
        log = replay_against_fresh_charts(sc, seed)
        appended += len(log.msc.events) - len(sc.msc.events)
    assert appended > 100


# ---------------------------------------------------------------------- #
# Schedules of the shared topological pass
# ---------------------------------------------------------------------- #

# Recorded from the scheduler's own Kahn loop before the pass was shared;
# the shared pass must draw the same schedule for every chart and seed.
PINNED_MERGE = {0: [3, 0, 2, 1, 4, 5, 6], 1: [3, 0, 1, 4, 5, 2, 6], 7: [3, 0, 1, 4, 2, 5, 6]}
PINNED_GENERATED = {
    0: [2, 0, 7, 1, 3, 4, 5, 6, 8],
    3: [0, 1, 2, 7, 3, 4, 5, 6, 8],
    11: [0, 2, 7, 1, 3, 4, 5, 6, 8],
}
PINNED_DIAMOND = {0: [3, 0, 4, 1, 5, 2], 5: [0, 1, 3, 4, 5, 2], 12345: [0, 3, 4, 1, 5, 2]}


def test_pinned_schedules():
    merge = load_scenario(fixture_path("merge_review")).msc
    generated = gen_random_msc(
        FuzzParams(lifelines=3, events_per_lifeline=4, message_prob=0.6, seed=4)
    )
    diamond = load_trace(
        chart(
            ["A", "B"],
            [
                ev(0, "A", "send", to="B"),
                ev(1, "A", "act"),
                ev(2, "A", "act"),
                ev(3, "B", "act"),
                ev(4, "B", "recv"),
                ev(5, "B", "act"),
            ],
            succ=[(0, 1), (1, 2), (3, 4), (4, 5)],
            messages=[(0, 4)],
        )
    )
    for m, pinned in [
        (merge, PINNED_MERGE),
        (generated, PINNED_GENERATED),
        (diamond, PINNED_DIAMOND),
    ]:
        for seed, schedule in pinned.items():
            assert sample_linear_extension(m, seed) == schedule


# ---------------------------------------------------------------------- #
# The executed chart is grown once, at the end of a replay
# ---------------------------------------------------------------------- #

def wide_scenario(seed: int) -> dict:
    """The benchmark's wide scenario document, imported read-only from
    ``bench/scenario.py``."""
    name = "_bench_scenario"
    if name not in sys.modules:  # its dataclass looks its module up there
        path = Path(__file__).resolve().parents[1] / "bench" / "scenario.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].wide_scenario(seed)


def replay_digests(runs) -> tuple[str, str, str]:
    """sha256 of every run's order, of its verdicts and of the
    ``dump_trace`` of its executed chart, over ``(scenario, seed)`` runs."""
    digests = [hashlib.sha256() for _ in range(3)]
    for sc, seed in runs:
        log = run_scenario(sc, sc.guard_set(), seed)
        verdicts = [(r["event"], r["verdict"]) for r in log.records if "verdict" in r]
        for h, part in zip(digests, (log.order, verdicts, dump_trace(log.msc))):
            h.update(json.dumps(part).encode())
    return tuple(h.hexdigest() for h in digests)


# Recorded while every taken arm still grew the chart on its own; growing
# it once per replay must give the same orders, verdicts and charts.
PINNED_REPLAYS = {
    "fixtures": ("40a522f24b94435b27347c155419f4056bdb800b8a3e3f0a5bb65a45b2a84371",
                 "fc0b196d82b35893ff21f271c4b882a4b7f15573af68618ad0695c2b91199973",
                 "081a18b95a8789db9e373b2e3f1b8caafc0b86a9fa0ad3ec9f8139c35c6ce418"),
    "wide": ("a0b62af858bd8f2500ea87a7494c14eed191e0a97a3c4d5c0667f54cea290227",
             "b5a1e43e0efd91d7895e85cb92e9ff5a0c36738b97ca36cdc24b1819a478613f",
             "9973f06fbb7eb2da0dc61af3f3bc0ffbc5c864a6df09403199e0a1bd5472fcf1"),
    "generated": ("0329606cae5815ae00cbeef2d7d2cca02842394405fe25fdd81bdb8bbc4880b2",
                  "4fddc64fb135ec5717b689206e930c7a6fb56a01a98370ea0ca69e60b4318d27",
                  "c259180675956ed3e86cae8d22ff819e18da49b4fac3ac7be95c1a2c86461c94"),
}


def pinned_replay_runs(name: str):
    if name == "fixtures":
        fixtures = ("merge_review", "merge_review_failure_first", "merge_review_stale_candidate")
        return [(load_scenario(fixture_path(f)), seed) for f in fixtures for seed in range(10)]
    if name == "wide":
        return [(load_scenario(wide_scenario(seed)), seed) for seed in range(3)]
    return [(load_scenario(gen_scenario(seed)), seed) for seed in range(200)]


@pytest.mark.parametrize("name", sorted(PINNED_REPLAYS))
def test_replays_are_pinned(name):
    assert replay_digests(pinned_replay_runs(name)) == PINNED_REPLAYS[name]


# ---------------------------------------------------------------------- #
# Malformed inputs that used to crash
# ---------------------------------------------------------------------- #

def self_send_scenario() -> dict:
    data = json.loads(fixture_path("merge_review").read_text())
    data["events"].append(
        {"id": 7, "lifeline": "Committer", "kind": "send", "receiver": "Committer",
         "vars": {}}
    )
    data["succ"].append([6, 7])
    return data


def test_self_addressed_send_is_a_format_error():
    data = self_send_scenario()
    with pytest.raises(ScenarioError, match="other than its own lifeline"):
        load_scenario(data)
    del data["guards"]
    with pytest.raises(TraceFormatError, match="other than its own lifeline"):
        load_trace(data)


@pytest.mark.parametrize("command", ["check", "simulate", "explain"])
def test_self_addressed_send_exits_2(capsys, tmp_path, command):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(self_send_scenario()))
    argv = [command, str(path)] + (["--event", "5"] if command == "explain" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "other than its own lifeline" in err
    assert "Traceback" not in err


def test_branch_entry_needs_an_integer_id():
    data = merge_with_branch([ev(10, "Committer", "act")])
    data["branches"][0]["choice_event_id"] = [5]
    with pytest.raises(ScenarioError, match="choice_event_id"):
        load_scenario(data)


def test_duplicate_branch_entry_is_rejected():
    data = merge_with_branch([ev(10, "Committer", "act")])
    data["branches"].append(copy.deepcopy(data["branches"][0]))
    data["branches"][1]["then"]["events"] = [ev(11, "Committer", "act")]
    with pytest.raises(ScenarioError, match="duplicate branch for event 5"):
        load_scenario(data)


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_bad_branch_entries_exit_2(capsys, tmp_path, command):
    listed = merge_with_branch([ev(10, "Committer", "act")])
    listed["branches"][0]["choice_event_id"] = [5]
    twice = merge_with_branch([ev(10, "Committer", "act")])
    twice["branches"].append(copy.deepcopy(twice["branches"][0]))
    for data in (listed, twice):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2 and "Traceback" not in err


def test_non_utf8_files_raise_typed_errors(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(TraceFormatError, match="invalid JSON"):
        load_trace(path)
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(path)


@pytest.mark.parametrize("command", ["check", "simulate", "explain"])
def test_non_utf8_files_exit_2(capsys, tmp_path, command):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = [command, str(path)] + (["--event", "0"] if command == "explain" else [])
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "invalid JSON" in err
    assert "Traceback" not in err


def test_non_utf8_guards_file_exits_2(capsys, tmp_path):
    path = tmp_path / "guards.txt"
    path.write_bytes(b"\xff\xfeHere.x == 1\n")
    code, _, err = run_cli(
        capsys, "check", str(fixture_path("merge_review")), "--guards-file", str(path)
    )
    assert code == 2 and "Traceback" not in err
