"""Replay, generation, and the differential harness."""

import collections
import dataclasses
import gc
import inspect
import json
import os
import time
from unittest import mock

import pytest

from cplkit import monitor, simulator
from cplkit.denot import sat
from cplkit.fixtures import fixture_path
from cplkit.lang import (
    Atom,
    LocalVar,
    Lit,
    Not,
    Or,
    PastAny,
    PastAt,
    Seen,
    Since,
    Truth,
    Yesterday,
    close_guards,
    guard_cones,
    parse_guard,
    pretty,
)
from cplkit.msc import EventKind, Msc, kahn_tables, validate_msc
from cplkit.rng import SplitMix64
from cplkit.simulator import (
    FuzzParams,
    Scenario,
    ScenarioError,
    differential_check,
    fuzz_sweep,
    gen_random_formulas,
    gen_random_msc,
    load_scenario,
    prepare_oracle,
    random_formula,
    run_scenario,
    sample_linear_extension,
)
from cplkit.monitor import MUTATIONS, MonitorError, begin_event, finish_event, on_event
from cplkit.trace import dump_trace, load_trace

from oracles import all_topo_sorts, chart, ev, vars_of, walk
from scenarios import gen_scenario, guard_owners, replays


# ---------------------------------------------------------------------- #
# sample_linear_extension
# ---------------------------------------------------------------------- #

def test_single_lifeline_has_unique_schedule():
    m = gen_random_msc(FuzzParams(lifelines=1, events_per_lifeline=6, seed=3))
    expected = list(m.events_of("L1"))
    for seed in range(10):
        assert sample_linear_extension(m, seed) == expected


def test_merge_chart_admits_late_failure_schedule():
    m = load_scenario(fixture_path("merge_review")).msc
    found = False
    for seed in range(50):
        ext = sample_linear_extension(m, seed)
        assert m.is_linear_extension(ext)
        if ext.index(6) > ext.index(5):  # failure-recv after the choice
            found = True
    assert found


def test_every_schedule_of_a_diamond_is_sampled():
    m = load_trace(
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
    every = set(all_topo_sorts(m))
    seen = set()
    rng = SplitMix64(0xD1A)
    for _ in range(10_000):
        seen.add(tuple(sample_linear_extension(m, rng.next_u64())))
    assert seen == every


def test_schedules_are_deterministic_per_seed():
    m = gen_random_msc(FuzzParams(seed=5))
    assert sample_linear_extension(m, 9) == sample_linear_extension(m, 9)


def test_schedules_reuse_the_charts_kahn_tables():
    """A scenario chart keeps the Kahn tables of its validating walk, an
    analysed chart those of its analysis, and a fresh or grown chart builds
    them on its first schedule. Every order equals the one sampled on a
    fresh chart loaded from the dump."""
    def fresh_orders(m):
        fresh = load_trace(dump_trace(m))
        with mock.patch("cplkit.msc.kahn_tables", wraps=kahn_tables) as built:
            orders = [sample_linear_extension(fresh, seed) for seed in range(20)]
        assert built.call_count == 1 and fresh._vts is None
        return orders

    sc = load_scenario(fixture_path("merge_review"))
    generated = gen_random_msc(FuzzParams(seed=5))
    generated.causal_leq(generated.events[0], generated.events[0])
    for m in (sc.msc, generated):
        with mock.patch("cplkit.msc.kahn_tables", side_effect=AssertionError):
            orders = [sample_linear_extension(m, seed) for seed in range(20)]
        assert orders == fresh_orders(m)
    grown = sc.msc.grow([("Committer", [
        (100, EventKind("act"), {}), (101, EventKind("send", "TestRunner"), {}),
    ])])
    with mock.patch("cplkit.msc.kahn_tables", wraps=kahn_tables) as built:
        orders = [sample_linear_extension(grown, seed) for seed in range(20)]
    assert built.call_count == 1
    assert orders == fresh_orders(grown)


def test_kept_kahn_tables_are_read_only():
    """A caller cannot edit the Kahn tables a chart keeps for its schedules."""
    m = load_scenario(fixture_path("merge_review")).msc
    before = [sample_linear_extension(m, seed) for seed in range(10)]
    indeg, out, ready = m.scheduling_tables()
    with pytest.raises(AttributeError):
        out[ready[0]].clear()
    with pytest.raises(TypeError):
        out[ready[0]] = []
    with pytest.raises(TypeError):
        indeg[ready[0]] = 1
    assert [sample_linear_extension(m, seed) for seed in range(10)] == before


# ---------------------------------------------------------------------- #
# run_scenario
# ---------------------------------------------------------------------- #

def scenario_from(m, texts_by_choice):
    return Scenario(msc=m, guard_texts=dict(texts_by_choice))


def test_message_free_guards_are_lifeline_local():
    m = load_trace(
        chart(
            ["A", "B"],
            [
                ev(0, "A", "act", vars_of(x=1)),
                ev(1, "A", "choice", vars_of(x=1)),
                ev(2, "B", "act", vars_of(x=2)),
                ev(3, "B", "choice", vars_of(x=2)),
            ],
            succ=[(0, 1), (2, 3)],
        )
    )
    sc = scenario_from(m, {1: "Here.x == 1", 3: "Here.x == 1"})
    log = run_scenario(sc, sc.guard_set(), seed=1)
    verdicts = {r["event"]: r["verdict"] for r in log.records if "verdict" in r}
    assert verdicts == {1: True, 3: False}


def test_merge_scenario_verdicts():
    sc = load_scenario(fixture_path("merge_review"))
    log = run_scenario(sc, sc.guard_set(), seed=11)
    assert [r["verdict"] for r in log.records if r["event"] == 5] == [True]

    sc2 = load_scenario(fixture_path("merge_review_failure_first"))
    log2 = run_scenario(sc2, sc2.guard_set(), seed=11)
    assert [r["verdict"] for r in log2.records if r["event"] == 6] == [False]


def test_run_logs_are_byte_identical_per_seed():
    sc = load_scenario(fixture_path("merge_review"))
    g = sc.guard_set()
    a = run_scenario(sc, g, seed=123).to_dict()
    b = run_scenario(sc, g, seed=123).to_dict()
    assert a == b


def test_executed_order_is_an_extension_and_sends_record_sizes():
    sc = load_scenario(fixture_path("merge_review"))
    log = run_scenario(sc, sc.guard_set(), seed=2)
    assert log.msc.is_linear_extension(log.order)
    sizes = [r["payload_bytes"] for r in log.to_dict()["records"] if "payload_bytes" in r]
    assert len(sizes) == 3 and all(n > 0 for n in sizes)


def test_scenario_verdicts_match_denotation_on_fuzzed_scenarios():
    rng = SplitMix64(404)
    checked = 0
    for seed in range(500):
        p = FuzzParams(lifelines=3, events_per_lifeline=5, seed=seed)
        m = gen_random_msc(p)
        choices = [e for e in m.events if m.kind[e].tag == "choice"]
        if not choices:
            continue
        texts = {
            e: pretty(random_formula(rng, rng.randint(0, 2), m.lifelines, p))
            for e in choices
        }
        sc = scenario_from(m, texts)
        g = sc.guard_set()
        formulas, index_of = sc.guard_formulas()
        log = run_scenario(sc, g, seed=seed)
        for rec in log.records:
            if "verdict" in rec:
                f = formulas[index_of[rec["event"]]]
                assert rec["verdict"] == sat(m, rec["event"], f)
                checked += 1
    assert checked > 200


def test_guard_texts_are_parsed_once_per_scenario(monkeypatch):
    calls = []
    parse = simulator.parse_guard
    monkeypatch.setattr(
        simulator, "parse_guard", lambda *a: calls.append(a) or parse(*a)
    )
    sc = load_scenario(fixture_path("merge_review"))
    assert calls == []  # parsed on first use, not at load
    g = sc.guard_set()
    for seed in range(3):
        run_scenario(sc, g, seed)
    sc.guard_formulas()
    assert len(calls) == 1 and sc.guard_set() is g
    edited = dataclasses.replace(sc, guard_texts={5: "Here.candidate == 1"})
    edited.guard_formulas()
    edited.guard_formulas()
    assert len(calls) == 2


def test_edited_guard_texts_are_not_replayed_stale():
    sc = load_scenario(fixture_path("merge_review"))
    g = sc.guard_set()
    assert all(r["verdict"] for r in run_scenario(sc, g, 0).records if "verdict" in r)
    with pytest.raises(TypeError):
        sc.guard_texts[5] = "!(" + sc.guard_texts[5] + ")"
    edited = dataclasses.replace(sc, guard_texts={5: "!(" + sc.guard_texts[5] + ")"})
    with pytest.raises(ScenarioError, match="guard set"):
        run_scenario(edited, g, 0)
    log = run_scenario(edited, edited.guard_set(), 0)
    assert [r["verdict"] for r in log.records if "verdict" in r] == [False]


def test_branch_continuations():
    m = load_trace(
        chart(
            ["A", "B"],
            [ev(0, "A", "act", vars_of(x=1)), ev(1, "A", "choice", vars_of(x=1))],
            succ=[(0, 1)],
        )
    )
    then_events = [
        ev(10, "A", "act", vars_of(x=2)),
        ev(11, "A", "send", vars_of(x=2), to="B"),
    ]
    else_events = [ev(20, "A", "act", vars_of(x=3))]
    sc = Scenario(
        msc=m,
        guard_texts={1: "Here.x == 1"},
        branches={1: (then_events, else_events)},
    )
    log = run_scenario(sc, sc.guard_set(), seed=0)
    assert log.order == [0, 1, 10, 11]
    assert validate_msc(log.msc).ok
    assert log.msc.is_linear_extension(log.order)
    # the send in the continuation is an unmatched send of the composed chart
    assert log.msc.kind[11].tag == "send" and 11 not in log.msc.msg

    # flip the guard so the else arm runs
    sc = dataclasses.replace(sc, guard_texts={1: "Here.x == 99"})
    log = run_scenario(sc, sc.guard_set(), seed=0)
    assert log.order == [0, 1, 20]


def test_empty_continuation_arm():
    m = load_trace(
        chart(["A"], [ev(0, "A", "choice", vars_of(x=1))])
    )
    sc = Scenario(
        msc=m,
        guard_texts={0: "Here.x == 0"},
        branches={0: ([ev(9, "A", "act")], [])},
    )
    log = run_scenario(sc, sc.guard_set(), seed=0)  # guard false: empty arm
    assert log.order == [0]
    assert log.msc.events == (0,)


def test_bad_continuations_are_rejected():
    m = load_trace(
        chart(["A", "B"], [ev(0, "A", "choice", vars_of(x=1))])
    )
    off_owner = [ev(5, "B", "act")]
    with pytest.raises(ScenarioError, match="owner lifeline"):
        Scenario(msc=m, guard_texts={0: "Here.x == 1"}, branches={0: (off_owner, [])})

    duplicate_id = [ev(0, "A", "act")]
    with pytest.raises(ScenarioError, match="trace format"):
        Scenario(msc=m, guard_texts={0: "Here.x == 1"}, branches={0: (duplicate_id, [])})


def test_a_branch_needs_a_guard_in_code_as_in_files():
    """A branch on a choice with no guard, which no verdict could ever
    take, is rejected whether ``load_scenario`` builds the scenario or
    code does."""
    m = load_trace(chart(["A"], [ev(0, "A", "choice"), ev(1, "A", "choice")], succ=[(0, 1)]))
    then = [ev(5, "A", "act")]
    with pytest.raises(ScenarioError, match="^branch at event 1 has no guard$"):
        Scenario(msc=m, guard_texts={0: "true"}, branches={1: (then, [])})
    with pytest.raises(ScenarioError, match="^branch at event 7 has no guard$"):
        Scenario(msc=m, guard_texts={0: "true"}, branches={7: ([], [])})
    doc = {**dump_trace(m), "guards": [{"choice_event_id": 0, "guard": "true"}],
           "branches": [{"choice_event_id": 1, "then": {"events": then}, "else": {}}]}
    with pytest.raises(ScenarioError, match=r"^branches\[0\]: event 1 has no guard$"):
        load_scenario(doc)


def test_scenario_built_in_code_checks_its_chart():
    unmatched = load_trace(chart(["A", "B"], [ev(0, "B", "recv")]))
    with pytest.raises(ScenarioError, match="not well-formed"):
        Scenario(msc=unmatched, guard_texts={})
    cyclic = load_trace(
        chart(
            ["A", "B"],
            [ev(0, "A", "recv"), ev(1, "A", "send", to="B"),
             ev(2, "B", "recv"), ev(3, "B", "send", to="A")],
            succ=[(0, 1), (2, 3)],
            messages=[(1, 2), (3, 0)],
        )
    )
    with pytest.raises(ScenarioError, match="not well-formed"):
        Scenario(msc=cyclic, guard_texts={})


def test_scenarios_are_read_only():
    sc = load_scenario(fixture_path("merge_review"))
    with pytest.raises(TypeError):
        sc.guard_texts[5] = "true"
    with pytest.raises(TypeError):
        sc.branches[5] = ([], [])
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.guard_texts = {}


def test_scenario_charts_are_read_only():
    sc = load_scenario(fixture_path("merge_review"))
    m = sc.msc
    for table in (m.kind, m.pid, m.val, m.succ, m.msg):
        with pytest.raises(AttributeError):
            table.clear()
        with pytest.raises(TypeError):
            table[99] = table[next(iter(table))]
    with pytest.raises(TypeError):
        m.val[0]["candidate"] = "rev-18"
    fresh = load_scenario(fixture_path("merge_review"))
    log = run_scenario(sc, sc.guard_set(), 0).to_dict()
    assert log == run_scenario(fresh, fresh.guard_set(), 0).to_dict()


def test_a_scenario_holds_the_read_only_chart_it_was_given():
    m = load_trace(chart(["A"], [ev(0, "A", "choice", vars_of(x=1))]))
    sc = Scenario(msc=m, guard_texts={0: "Here.x == 1"})
    assert sc.msc is m
    with pytest.raises(TypeError):
        m.val[0]["x"] = 2
    with pytest.raises(AttributeError):
        m.kind.clear()
    assert [r["verdict"] for r in run_scenario(sc, sc.guard_set(), 0).records] == [True]


def test_a_run_logs_chart_cannot_change_later_runs():
    """The executed chart shares the scenario's continuations, read-only:
    editing an appended event's valuation fails and later runs print the same log."""
    sc = load_scenario(gen_scenario(4))
    log = run_scenario(sc, sc.guard_set(), 3)
    printed = log.to_dict()
    appended = log.msc.events[len(sc.msc.events):]
    assert appended
    for e in appended:
        with pytest.raises(TypeError):
            log.msc.val[e]["zz"] = 7
    assert run_scenario(sc, sc.guard_set(), 3).to_dict() == printed


def test_run_scenario_needs_the_scenarios_own_guard_set():
    sc = load_scenario(fixture_path("merge_review"))
    twin = load_scenario(fixture_path("merge_review"))
    assert twin.guard_set() == sc.guard_set()
    with pytest.raises(ScenarioError, match="guard set"):
        run_scenario(sc, twin.guard_set(), 0)


def test_repeated_nested_past_guards_replay_quickly():
    lifelines = [f"L{i}" for i in range(8)]
    m = load_trace(chart(lifelines, [
        ev(0, "L0", "choice", vars_of(x=1)), ev(1, "L1", "choice", vars_of(x=1)),
    ]))
    guard = "P(" * 8 + "Here.x == 1" + ")" * 8
    started = time.perf_counter()
    sc = Scenario(msc=m, guard_texts={0: guard, 1: guard})
    log = run_scenario(sc, sc.guard_set(), seed=0)
    assert time.perf_counter() - started < 1.0
    assert [r["verdict"] for r in log.records] == [True, True]


def test_scenario_files_are_validated():
    data = json.loads(fixture_path("merge_review").read_text())
    data["guards"][0]["choice_event_id"] = 1  # a recv, not a choice
    with pytest.raises(ScenarioError, match="non-choice"):
        load_scenario(data)
    data = json.loads(fixture_path("merge_review").read_text())
    data["guards"][0]["guard"] = "at(Nobody, true)"
    sc = load_scenario(data)
    from cplkit.lang import ParseError

    with pytest.raises(ParseError, match="unknown lifeline"):
        sc.guard_set()
    data = json.loads(fixture_path("merge_review").read_text())
    data["surprise"] = []
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        load_scenario(data)


# ---------------------------------------------------------------------- #
# random generation
# ---------------------------------------------------------------------- #

def test_zero_message_probability_means_no_edges():
    for seed in range(50):
        m = gen_random_msc(FuzzParams(message_prob=0.0, seed=seed))
        assert m.msg == {}
        assert all(k.tag != "send" and k.tag != "recv" for k in m.kind.values())


def test_one_lifeline_is_a_chain():
    m = gen_random_msc(FuzzParams(lifelines=1, events_per_lifeline=8, seed=1))
    assert set(m.pid.values()) <= {"L1"}
    assert len(m.succ) == max(len(m.events) - 1, 0)
    assert m.msg == {}


def test_generated_charts_are_well_formed():
    for seed in range(10_000):
        m = gen_random_msc(
            FuzzParams(lifelines=4, events_per_lifeline=5, message_prob=0.4, seed=seed)
        )
        report = validate_msc(m)
        assert report.ok, (seed, report.violations)


def test_generated_charts_cover_unmatched_sends_and_non_fifo():
    unmatched = non_fifo = 0
    for seed in range(300):
        m = gen_random_msc(
            FuzzParams(lifelines=3, events_per_lifeline=8, message_prob=0.5, seed=seed)
        )
        sends = [e for e in m.events if m.kind[e].tag == "send"]
        unmatched += sum(1 for e in sends if e not in m.msg)
        for s1 in m.msg:
            for s2 in m.msg:
                if (
                    m.pid[s1] == m.pid[s2]
                    and m.kind[s1].receiver == m.kind[s2].receiver
                    and m.causal_leq(s1, s2)
                    and s1 != s2
                    and m.local_index(m.msg[s2]) < m.local_index(m.msg[s1])
                ):
                    non_fifo += 1
    assert unmatched > 0
    assert non_fifo > 0


def test_generation_is_deterministic():
    a = gen_random_msc(FuzzParams(seed=77))
    b = gen_random_msc(FuzzParams(seed=77))
    assert a == b


def test_depth_zero_formulas_are_flat():
    rng = SplitMix64(8)
    p = FuzzParams()
    for _ in range(200):
        f = random_formula(rng, 0, ("A", "B"), p)
        assert isinstance(f, (Atom, Truth, Seen))


def test_formula_generator_covers_every_constructor():
    rng = SplitMix64(9)
    p = FuzzParams(formula_depth=4)
    histogram = collections.Counter()
    for _ in range(10_000):
        f = random_formula(rng, rng.randint(0, 4), ("A", "B"), p)
        stack = [f]
        while stack:
            node = stack.pop()
            histogram[type(node).__name__] += 1
            from cplkit.lang import children

            stack.extend(children(node))
    for name in (
        "Atom", "Truth", "Seen", "Not", "And", "Or",
        "Yesterday", "Since", "At", "PastAt", "PastAny",
    ):
        assert histogram[name] > 0, name


def test_generated_formulas_parse_back():
    rng = SplitMix64(10)
    p = FuzzParams()
    lifelines = ("L1", "L2", "L3")
    for _ in range(500):
        f = random_formula(rng, rng.randint(0, 4), lifelines, p)
        assert parse_guard(pretty(f), set(lifelines)) == f


def test_guard_set_generation_is_deterministic_and_core():
    p = FuzzParams(seed=123)
    g1 = gen_random_formulas(p, ("L1", "L2"))
    g2 = gen_random_formulas(p, ("L1", "L2"))
    assert g1.sub == g2.sub
    derived = (PastAt, PastAny, Seen)
    assert not any(isinstance(n, derived) for f in g1.formulas for n in walk(f))


# ---------------------------------------------------------------------- #
# differential_check
# ---------------------------------------------------------------------- #

def test_empty_chart_passes_trivially():
    m = load_trace(chart(["A"], []))
    g = close_guards([Atom("==", LocalVar("x"), Lit(1))])
    report = differential_check(m, g, [])
    assert report.ok and report.events_checked == 0


def test_merge_chart_passes_with_its_guard():
    sc = load_scenario(fixture_path("merge_review"))
    g = sc.guard_set()
    for seed in range(5):
        ext = sample_linear_extension(sc.msc, seed)
        report = differential_check(sc.msc, g, ext)
        assert report.ok, report.to_dict()


def test_rejects_non_extension_orders():
    sc = load_scenario(fixture_path("merge_review"))
    ext = sample_linear_extension(sc.msc, 0)
    ext[0], ext[-1] = ext[-1], ext[0]
    with pytest.raises(ScenarioError, match="not a linear extension"):
        differential_check(sc.msc, sc.guard_set(), ext)


def test_prepared_oracle_gives_the_same_reports():
    """One oracle shared by every schedule and mutation reports exactly
    what a check that builds its own does."""
    for seed in range(100):
        p = FuzzParams(seed=seed)
        m = gen_random_msc(p)
        g = gen_random_formulas(p, m.lifelines)
        oracle = prepare_oracle(m, g)
        ext = sample_linear_extension(m, seed)
        for mutation in (None, *MUTATIONS):
            for fail_fast in (False, True):
                own = differential_check(m, g, ext, mutation, fail_fast)
                shared = differential_check(m, g, ext, mutation, fail_fast, oracle)
                assert shared.to_dict() == own.to_dict(), (seed, mutation)


def test_oracle_of_another_chart_or_guard_set_is_refused():
    p, q = FuzzParams(seed=3), FuzzParams(seed=4)
    m = gen_random_msc(p)
    g = gen_random_formulas(p, m.lifelines)
    ext = sample_linear_extension(m, 0)
    twin = gen_random_msc(p)  # equal chart, other object
    for oracle in (
        prepare_oracle(twin, g),
        prepare_oracle(m, gen_random_formulas(q, m.lifelines)),
        prepare_oracle(m, gen_random_formulas(p, m.lifelines)),
    ):
        with pytest.raises(ScenarioError, match="another chart or guard set"):
            differential_check(m, g, ext, oracle=oracle)
    assert differential_check(m, g, ext, oracle=prepare_oracle(m, g)).ok


def test_checks_read_nothing_but_the_oracle(monkeypatch):
    """With an oracle given, no denotational table, BFS or vector-timestamp
    query runs: every expectation is read from the oracle."""
    cases = []
    for seed in range(40):
        p = FuzzParams(seed=seed)
        m = gen_random_msc(p)
        g = gen_random_formulas(p, m.lifelines)
        cases.append((m, g, sample_linear_extension(m, seed), prepare_oracle(m, g)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the checker recomputed an expectation")

    monkeypatch.setattr(simulator, "sat_table", forbidden)
    monkeypatch.setattr(simulator, "causal_past_sets", forbidden)
    monkeypatch.setattr(Msc, "causal_leq", forbidden)
    caught = set()
    for m, g, ext, oracle in cases:
        assert differential_check(m, g, ext, oracle=oracle).ok
        for mutation in MUTATIONS:
            if not differential_check(m, g, ext, mutation, oracle=oracle).ok:
                caught.add(mutation)
    assert caught == set(MUTATIONS)


def test_an_unknown_mutation_is_a_caller_error(monkeypatch):
    """Each entry point raises on a mutation name outside ``MUTATIONS``
    before replaying any event, instead of reporting divergences."""
    monkeypatch.setattr(simulator, "begin_event", None)  # a replayed event would fail
    p = FuzzParams(seed=1)
    m = gen_random_msc(p)
    g = gen_random_formulas(p, m.lifelines)
    sc = load_scenario(fixture_path("merge_review"))
    calls = [
        lambda: differential_check(m, g, sample_linear_extension(m, 0), "nonsense"),
        lambda: run_scenario(sc, sc.guard_set(), 0, "nonsense"),
        lambda: fuzz_sweep(p, seeds=3, extensions=1, mutation="nonsense", keep_going=True),
        lambda: fuzz_sweep(p, seeds=0, extensions=1, mutation="nonsense"),
        lambda: fuzz_sweep(p, seeds=0, extensions=1, mutation="nonsense", jobs=2),
    ]
    for call in calls:
        with pytest.raises(MonitorError, match="^unknown mutation 'nonsense'$"):
            call()


def test_the_mutants_are_phase_1_functions_outside_the_monitor():
    """One phase 1 per name, in ``MUTATIONS`` order; the monitor's own
    update takes no mutation argument."""
    assert tuple(simulator._MUTANTS) == MUTATIONS
    for fn in (begin_event, finish_event, on_event):
        assert list(inspect.signature(fn).parameters) == ["s", "d"]
    assert list(inspect.signature(monitor._run_plan).parameters) == ["s"]


def test_replayed_stores_do_not_alias_chart_valuations(monkeypatch):
    """The replay hands each monitor the chart's own valuation; the
    monitor's store must be a copy of it."""
    states = []
    begin = simulator.begin_event

    def recording(s, d):
        states.append(s)
        begin(s, d)

    monkeypatch.setattr(simulator, "begin_event", recording)
    p = FuzzParams(seed=5)
    m = gen_random_msc(p)  # plain, writable dicts
    g = gen_random_formulas(p, m.lifelines)
    before = {e: dict(v) for e, v in m.val.items()}
    assert differential_check(m, g, sample_linear_extension(m, 0)).ok
    assert states
    for s in states:
        s.store["x0"] = "changed"
        s.store["fresh"] = 1
    assert m.val == before


def test_the_harness_checks_the_monitors_simulate_ships():
    """The differential check on a replay's executed chart and order, taken
    arms included, with each guard owned by its choice lifeline: these are
    the cones ``run_scenario`` runs, and the check passes. Under each
    mutation, on both replays, some replay diverges."""
    caught = dict.fromkeys(MUTATIONS, 0)
    runs = with_arms = 0
    for sc, seed in replays():
        g, owners = sc.guard_set(), guard_owners(sc)
        assert guard_cones(g, sc.msc.lifelines, owners) == sc.cones()
        log = run_scenario(sc, g, seed)
        report = differential_check(log.msc, g, log.order, owners=owners)
        assert report.ok, (seed, sc.guard_texts, report.to_dict())
        runs += 1
        with_arms += len(log.order) > len(sc.msc.events)
        for mutation in MUTATIONS:
            log = run_scenario(sc, g, seed, mutation)
            caught[mutation] += not differential_check(
                log.msc, g, log.order, mutation, fail_fast=True, owners=owners
            ).ok
    assert runs == 230 and with_arms > 50
    assert all(caught.values()), caught


def replay_verdicts(m, g, ext):
    """Drive the monitors along one schedule; collect each event's full
    subformula verdict row as computed by its owner's monitor."""
    from cplkit.monitor import EventDescriptor, init_monitor, on_event

    monitors = {b: init_monitor(b, g, m.lifelines) for b in m.lifelines}
    payloads = {}
    send_of = {r: s for s, r in m.msg.items()}
    verdicts = {}
    for e in ext:
        incoming = None
        if m.kind[e].tag == "recv":
            incoming = payloads[send_of[e]]
        state, pay = on_event(
            monitors[m.pid[e]],
            EventDescriptor(kind=m.kind[e], store_after=dict(m.val[e]), incoming=incoming),
        )
        if pay is not None:
            payloads[e] = pay
        verdicts[str(e)] = list(state.vals)
    return verdicts


def test_verdict_maps_agree_across_schedules():
    for seed in range(30):
        p = FuzzParams(lifelines=3, events_per_lifeline=5, seed=seed)
        m = gen_random_msc(p)
        g = gen_random_formulas(p, m.lifelines)
        baseline = None
        for k in range(3):
            ext = sample_linear_extension(m, k)
            blob = json.dumps(replay_verdicts(m, g, ext), sort_keys=True)
            if baseline is None:
                baseline = blob
            assert blob == baseline  # byte-identical per-event verdict maps


def test_fail_fast_stops_at_first_divergence():
    p = FuzzParams(seed=2)
    m = gen_random_msc(p)
    g = gen_random_formulas(p, m.lifelines)
    ext = sample_linear_extension(m, 0)
    full = differential_check(m, g, ext, mutation="strict-at", fail_fast=False)
    first = differential_check(m, g, ext, mutation="strict-at", fail_fast=True)
    if not full.ok:
        total = len(full.mismatches) + len(full.coherence_failures) + len(
            full.invariant_failures
        )
        first_total = len(first.mismatches) + len(first.coherence_failures) + len(
            first.invariant_failures
        )
        assert 0 < first_total <= total


def test_fuzz_sweep_aggregates_and_replays():
    s1 = fuzz_sweep(FuzzParams(seed=5), seeds=20, extensions=2)
    s2 = fuzz_sweep(FuzzParams(seed=5), seeds=20, extensions=2)
    assert s1.ok and s2.ok
    assert s1.runs == 40 and s1.instances == 20
    assert (s1.events_checked, s1.pairs_checked) == (
        s2.events_checked,
        s2.pairs_checked,
    )


def test_fuzz_instance_leaves_no_cyclic_garbage():
    """Generation and checking free everything by reference counting: the
    cyclic collector finds nothing after an instance, mutated or not."""
    params = FuzzParams(lifelines=5, events_per_lifeline=8, formula_count=10,
                        formula_depth=4, seed=3)
    gc.collect()
    gc.disable()
    try:
        for mode in (None, *MUTATIONS):
            simulator.fuzz_instance(params, 5, mode, fail_fast=False)
            assert gc.collect() == 0, mode
    finally:
        gc.enable()


def test_differential_check_is_one_run_and_reports_fold():
    p = FuzzParams(seed=9)
    m = gen_random_msc(p)
    g = gen_random_formulas(p, m.lifelines)
    ext = sample_linear_extension(m, 0)
    rep = differential_check(m, g, ext, mutation="strict-at")
    assert rep.runs == 1 and rep.instances == 0
    total = simulator.DifferentialReport(instances=1)
    total.add(rep, seed=42)
    total.add(rep, seed=43)
    assert (total.instances, total.runs) == (1, 2)
    assert total.pairs_checked == 2 * rep.pairs_checked
    assert [r["seed"] for r in total.mismatches] == [42] * len(rep.mismatches) + [
        43
    ] * len(rep.mismatches)
    assert all("seed" not in r for r in rep.mismatches)


def test_fuzz_sweep_pool_gets_at_most_one_worker_per_seed(monkeypatch):
    """The pool is sized ``min(jobs, seeds, os.cpu_count())``, and not made
    below two workers; a stand-in executor records it and maps in this
    process, so no worker is started."""
    import concurrent.futures

    made = []

    class Recorder:
        def __init__(self, max_workers):
            made.append(self)
            self.max_workers = max_workers
            self.shut = False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shut = True

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    pooled = fuzz_sweep(FuzzParams(seed=2), seeds=3, extensions=2, jobs=8)
    assert [(r.max_workers, r.shut) for r in made] == [(3, True)]
    serial = fuzz_sweep(FuzzParams(seed=2), seeds=3, extensions=2, jobs=1)
    assert len(made) == 1
    assert pooled.to_dict() | {"elapsed_seconds": 0} == serial.to_dict() | {
        "elapsed_seconds": 0
    }
    fuzz_sweep(FuzzParams(seed=2), seeds=1, extensions=1, jobs=8)
    assert len(made) == 1  # one instance needs no pool

    # Never more workers than cores, and no pool on one core (or an unknown count).
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = [fuzz_sweep(FuzzParams(seed=2), seeds=3, extensions=2, jobs=8)]
    assert [r.max_workers for r in made] == [3, 2]
    for cores in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda c=cores: c)
        reports.append(fuzz_sweep(FuzzParams(seed=2), seeds=3, extensions=2, jobs=8))
    assert len(made) == 2
    for report in reports:
        assert report.to_dict() | {"elapsed_seconds": 0} == serial.to_dict() | {
            "elapsed_seconds": 0
        }


@pytest.mark.parametrize("key, value", [("guards", 5), ("branches", 7), ("guards", {})])
def test_scenario_guards_and_branches_must_be_lists(key, value):
    data = json.loads(fixture_path("merge_review").read_text())
    data[key] = value
    with pytest.raises(ScenarioError, match=f"{key} must be a list"):
        load_scenario(data)
