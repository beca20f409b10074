"""Chart structure, well-formedness, and causal navigation."""

import copy
import dataclasses
import itertools
import pickle
import sys
import threading
from unittest import mock

import pytest

from cplkit.fixtures import fixture_path
from cplkit.msc import MscError, validate_msc
from cplkit.msc import EventKind, Msc, kahn_tables, local_chains, topological_order
from cplkit.simulator import (
    FuzzParams,
    gen_random_msc,
    load_scenario,
    run_scenario,
    sample_linear_extension,
)
from cplkit.trace import dump_trace, load_trace, parse_trace

from oracles import (
    all_topo_sorts,
    brute_causal_count,
    brute_last_loc,
    brute_last_visible,
    brute_local_index,
    chart,
    ev,
    reachability,
)
from scenarios import chart_answers, gen_scenario


@pytest.fixture(scope="module")
def merge():
    return load_scenario(fixture_path("merge_review")).msc


def random_charts(count, **overrides):
    base = dict(lifelines=3, events_per_lifeline=5, message_prob=0.4)
    base.update(overrides)
    for seed in range(count):
        yield gen_random_msc(FuzzParams(seed=seed, **base))


# ---------------------------------------------------------------------- #
# validate_msc
# ---------------------------------------------------------------------- #

def test_empty_chart_is_ok():
    m = load_trace(chart(["A", "B"], []))
    assert validate_msc(m).ok


def test_cross_lifeline_succ_violates_i():
    m = load_trace(
        chart(["A", "B"], [ev(0, "A", "act"), ev(1, "B", "act")], succ=[(0, 1)])
    )
    report = validate_msc(m)
    assert not report.ok
    assert any(v.condition == "i" and (0, 1) == v.events for v in report.violations)


def test_broken_chain_violates_ii():
    # two events on one lifeline with no succ edge between them
    m = load_trace(chart(["A"], [ev(0, "A", "act"), ev(1, "A", "act")]))
    assert any(v.condition == "ii" for v in validate_msc(m).violations)


def test_two_local_predecessors_violate_ii():
    m = load_trace(
        chart(
            ["A"],
            [ev(0, "A", "act"), ev(1, "A", "act"), ev(2, "A", "act")],
            succ=[(0, 2), (1, 2)],
        )
    )
    assert any(v.condition == "ii" for v in validate_msc(m).violations)


def test_message_kind_mismatches_violate_iii():
    m = load_trace(
        chart(
            ["A", "B"],
            [ev(0, "A", "act"), ev(1, "B", "recv")],
            messages=[(0, 1)],
        )
    )
    assert any(v.condition == "iii" for v in validate_msc(m).violations)

    # send kind names a different receiver than the actual one
    m = load_trace(
        chart(
            ["A", "B", "C"],
            [ev(0, "A", "send", to="C"), ev(1, "B", "recv")],
            messages=[(0, 1)],
        )
    )
    assert any(v.condition == "iii" for v in validate_msc(m).violations)


def test_unmatched_receive_violates_iii():
    m = load_trace(chart(["A"], [ev(0, "A", "recv")]))
    assert any(v.condition == "iii" for v in validate_msc(m).violations)


def test_unmatched_send_is_legal():
    m = load_trace(chart(["A", "B"], [ev(0, "A", "send", to="B")]))
    assert validate_msc(m).ok


def test_cycle_violates_iv():
    m = load_trace(
        chart(
            ["A", "B"],
            [
                ev(0, "A", "send", to="B"),
                ev(1, "B", "recv"),
                ev(2, "B", "send", to="A"),
                ev(3, "A", "recv"),
            ],
            succ=[(1, 2), (3, 0)],
            messages=[(0, 1), (2, 3)],
        )
    )
    assert any(v.condition == "iv" for v in validate_msc(m).violations)


def test_merge_fixture_is_ok(merge):
    assert len(merge.events) == 7
    assert len(merge.msg) == 3
    assert validate_msc(merge).ok


def test_validator_agrees_with_brute_force_on_random_charts():
    # every generated chart must pass, and so must each brute re-check
    for m in random_charts(150):
        report = validate_msc(m)
        assert report.ok, report.violations
        closure = reachability(m)
        assert all((e, e) in closure for e in m.events)


def test_a_scenario_chart_is_walked_once():
    """Validation's walk becomes the chart's analysis: a scenario's chart,
    and a loaded trace once validated, answer every causal query after one
    run of each chart pass."""
    doc = dump_trace(load_scenario(fixture_path("merge_review")).msc)

    def validated_trace():
        m = load_trace(doc)
        assert validate_msc(m).ok
        return m

    answers = []
    for load in (lambda: load_scenario(fixture_path("merge_review")).msc, validated_trace):
        with mock.patch("cplkit.msc.local_chains", wraps=local_chains) as chains, \
                mock.patch("cplkit.msc.topological_order", wraps=topological_order) as order:
            answers.append(chart_answers(load()))
        assert (chains.call_count, order.call_count) == (1, 1)
    assert answers[0] == answers[1]


def assert_read_only(m):
    """Every table, every valuation and every field of ``m`` refuses an edit."""
    e = m.events[0]
    for name in ("kind", "pid", "val", "succ", "msg"):
        table = getattr(m, name)
        with pytest.raises(TypeError):
            table[e] = table.get(e)
        with pytest.raises(AttributeError):
            table.pop(e)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, {})
    for v in m.val.values():
        with pytest.raises(TypeError):
            v["zz"] = 7
        with pytest.raises(AttributeError):
            v.clear()


def test_every_chart_source_refuses_an_edit():
    sc = load_scenario(gen_scenario(4))
    log = run_scenario(sc, sc.guard_set(), 3)
    parsed = parse_trace(dump_trace(sc.msc))
    kind, val = dict(parsed.kind), {e: dict(v) for e, v in parsed.val.items()}
    built = Msc(parsed.lifelines, parsed.events, kind, dict(parsed.pid), val,
                dict(parsed.succ), dict(parsed.msg))
    kind.clear()
    val[0]["zz"] = 7  # the caller's dicts are copied, not shared
    assert built == parsed
    owner = parsed.pid[0]
    grown = parsed.grow([(owner, [(100, EventKind("act"), {"x0": 1})])])
    assert len(log.msc.events) > len(sc.msc.events)
    for m in (parsed, gen_random_msc(FuzzParams(seed=3)), built, grown, sc.msc, log.msc):
        assert_read_only(m)
        for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert clone == m and chart_answers(clone) == chart_answers(m)
            assert_read_only(clone)


def test_an_edit_fails_instead_of_leaving_a_stale_answer():
    m = parse_trace(dump_trace(load_scenario(fixture_path("merge_review")).msc))
    assert m.last_loc(5) == 4
    with pytest.raises(AttributeError):
        m.succ.pop(4)
    assert m.last_loc(5) == 4 and validate_msc(m).ok


def test_a_fresh_chart_answers_alike_from_many_threads():
    """Threads racing to build one chart's analysis and Kahn's tables all
    get the answers of a chart analysed alone."""
    p = FuzzParams(lifelines=6, events_per_lifeline=40, message_prob=0.5, seed=9)
    want = chart_answers(gen_random_msc(p))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            m, got = gen_random_msc(p), []
            threads = [threading.Thread(target=lambda: got.append(
                (chart_answers(m), m.scheduling_tables()))) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert [a for a, _ in got] == [want] * 8
            assert all(tables == m.scheduling_tables() for _, tables in got)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------- #
# causal_leq
# ---------------------------------------------------------------------- #

def test_causal_leq_reflexive(merge):
    for e in merge.events:
        assert merge.causal_leq(e, e)


def test_failure_send_not_below_choice(merge):
    # the late failure update (event 2) is not in the causal past of the
    # choice event (5)
    assert not merge.causal_leq(2, 5)
    assert merge.causal_leq(0, 5)


def test_causal_leq_unknown_event(merge):
    with pytest.raises(MscError, match="no such event"):
        merge.causal_leq(99, 0)


def test_causal_leq_matches_reachability_closure():
    for m in random_charts(60):
        closure = reachability(m)
        for e in m.events:
            for f in m.events:
                assert m.causal_leq(e, f) == ((e, f) in closure), (e, f)


def test_causal_leq_is_a_partial_order():
    for m in random_charts(30, lifelines=2, events_per_lifeline=4):
        evs = m.events
        for e, f in itertools.product(evs, evs):
            if m.causal_leq(e, f) and m.causal_leq(f, e):
                assert e == f  # antisymmetry
        for e, f, g in itertools.product(evs, repeat=3):
            if m.causal_leq(e, f) and m.causal_leq(f, g):
                assert m.causal_leq(e, g)  # transitivity


# ---------------------------------------------------------------------- #
# last_loc / last_visible / local_index
# ---------------------------------------------------------------------- #

def test_last_loc_first_event_absent(merge):
    assert merge.last_loc(0) is None


def test_last_loc_of_choice_is_proposal_recv(merge):
    assert merge.last_loc(5) == 4


def test_last_loc_matches_scan_oracle():
    for m in random_charts(60):
        closure = reachability(m)
        for e in m.events:
            assert m.last_loc(e) == brute_last_loc(m, closure, e)


def test_last_visible_self_case(merge):
    for e in merge.events:
        assert merge.last_visible(e, merge.pid[e]) == e


def test_last_visible_at_choice_is_pass_report(merge):
    # the pass report (0), not the failure update (2)
    assert merge.last_visible(5, "TestRunner") == 0


def test_last_visible_unknown_lifeline(merge):
    with pytest.raises(MscError, match="no such lifeline"):
        merge.last_visible(0, "Nobody")


def test_last_visible_matches_filter_max_oracle():
    for m in random_charts(60):
        closure = reachability(m)
        for e in m.events:
            for b in m.lifelines:
                assert m.last_visible(e, b) == brute_last_visible(m, closure, e, b)


def test_timestamp_column_is_one_component_of_every_timestamp(merge):
    for m in [merge, *random_charts(40)]:
        closure = reachability(m)
        for b in m.lifelines:
            column = m.timestamp_column(b)
            assert column == [brute_causal_count(m, closure, e, b) for e in m.events]
            assert [m.events_of(b)[k - 1] if k else None for k in column] == [
                m.last_visible(e, b) for e in m.events
            ]
    with pytest.raises(MscError, match="no such lifeline"):
        merge.timestamp_column("Nobody")


def test_local_index_base_and_successor_step():
    for m in random_charts(60):
        closure = reachability(m)
        for b in m.lifelines:
            evs = m.events_of(b)
            if evs:
                assert m.local_index(evs[0]) == 1
        for e in m.events:
            assert m.local_index(e) == brute_local_index(m, closure, e)
            if e in m.succ:
                assert m.local_index(m.succ[e]) == m.local_index(e) + 1


def test_local_index_of_failure_send(merge):
    assert merge.local_index(2) == 2


def test_last_visible_defined_iff_count_positive():
    for m in random_charts(40):
        closure = reachability(m)
        for e in m.events:
            for b in m.lifelines:
                n = brute_causal_count(m, closure, e, b)
                lv = m.last_visible(e, b)
                assert (lv is not None) == (n >= 1)
                if lv is not None:
                    assert m.local_index(lv) == n


def test_causal_pasts_are_local_prefixes():
    for m in random_charts(40):
        closure = reachability(m)
        for e in m.events:
            for b in m.lifelines:
                below = [f for f in m.events_of(b) if (f, e) in closure]
                assert below == list(m.events_of(b)[: len(below)])


# ---------------------------------------------------------------------- #
# is_linear_extension
# ---------------------------------------------------------------------- #

def test_topological_sorts_are_extensions(merge):
    for seq in all_topo_sorts(merge)[:50]:
        assert merge.is_linear_extension(list(seq))


def test_receive_before_send_is_not_an_extension():
    m = load_trace(
        chart(
            ["A", "B"],
            [ev(0, "A", "send", to="B"), ev(1, "B", "recv")],
            messages=[(0, 1)],
        )
    )
    assert not m.is_linear_extension([1, 0])
    assert m.is_linear_extension([0, 1])
    assert not m.is_linear_extension([0])  # not a permutation


def test_extension_count_matches_enumeration():
    m = load_trace(
        chart(
            ["A", "B"],
            [
                ev(0, "A", "act"),
                ev(1, "A", "send", to="B"),
                ev(2, "A", "act"),
                ev(3, "B", "act"),
                ev(4, "B", "recv"),
            ],
            succ=[(0, 1), (1, 2), (3, 4)],
            messages=[(1, 4)],
        )
    )
    sorts = set(all_topo_sorts(m))
    accepted = {
        perm
        for perm in itertools.permutations(m.events)
        if m.is_linear_extension(list(perm))
    }
    assert accepted == sorts
    assert len(sorts) > 1


# ---------------------------------------------------------------------- #
# The shared chart passes
# ---------------------------------------------------------------------- #

def test_topological_order_skips_unknown_edges_and_stops_at_cycles():
    m = Msc(
        lifelines=("A",),
        events=(0, 1, 2),
        kind={e: EventKind("act") for e in (0, 1, 2)},
        pid={e: "A" for e in (0, 1, 2)},
        val={e: {} for e in (0, 1, 2)},
        succ={2: 1, 1: 0, 7: 2},
        msg={0: 9},
    )
    assert topological_order(m) == [2, 1, 0]
    cyclic = Msc(m.lifelines, m.events, m.kind, m.pid, m.val, {**m.succ, 0: 2}, m.msg)
    assert topological_order(cyclic) == []
    assert any(v.condition == "iv" for v in validate_msc(cyclic).violations)


def test_kahn_tables_are_built_once_per_chart():
    """Every schedule of a chart, sampled or not, reads its one kept copy
    of Kahn's tables."""
    m = gen_random_msc(FuzzParams(seed=5))
    with mock.patch("cplkit.msc.kahn_tables", wraps=kahn_tables) as tables:
        first, second = topological_order(m), topological_order(m)
        assert m.is_linear_extension(sample_linear_extension(m, 1))
    assert first == second and m.is_linear_extension(first)
    assert tables.call_count == 1


def test_topological_order_picks_among_sorted_ready_events():
    m = load_trace(chart(["A", "B", "C"], [ev(5, "A", "act"), ev(1, "B", "act"),
                                           ev(3, "C", "act")]))
    assert topological_order(m) == [1, 3, 5]
    assert topological_order(m, lambda n: n - 1) == [5, 3, 1]


def test_local_chains_report_broken_lifelines():
    m = load_trace(
        chart(
            ["A", "B"],
            [ev(0, "A", "act"), ev(1, "A", "act"), ev(2, "B", "act"), ev(3, "B", "act")],
            succ=[(0, 1), (3, 2), (2, 3)],
        )
    )
    chains, broken = local_chains(m)
    assert chains["A"] == [0, 1] and broken == ["B"]
    assert [v.condition for v in validate_msc(m).violations] == ["ii", "iv"]
    with pytest.raises(MscError, match="not a single chain"):
        m.causal_leq(0, 1)


# ---------------------------------------------------------------------- #
# Growth
# ---------------------------------------------------------------------- #

def test_grow_runs_no_chart_pass_and_leaves_the_parent_unchanged():
    for m in random_charts(40):
        before, text = chart_answers(m), dump_trace(m)
        for owner in m.lifelines:
            other = next(b for b in m.lifelines if b != owner)
            new = max(m.events, default=-1) + 1
            arm = [
                (new, EventKind("act"), {"x0": 1}),
                (new + 1, EventKind("send", other), {}),
                (new + 2, EventKind("choice"), {}),
            ]
            # Growing runs no Kahn pass; the grown chart's first query does.
            with mock.patch("cplkit.msc.topological_order", side_effect=AssertionError):
                grown = m.grow([(owner, arm)])
            answers = chart_answers(grown)
            fresh = load_trace(dump_trace(grown))
            assert validate_msc(fresh).ok
            assert answers == chart_answers(fresh)
            assert grown.events_of(owner)[-3:] == (new, new + 1, new + 2)
            assert chart_answers(m) == before and dump_trace(m) == text


def test_a_grown_chart_is_analysed_by_its_first_query_alone():
    """Growing runs no chart pass; the grown chart's first causal query
    runs each pass once, and later queries run neither."""
    for m in random_charts(10):
        owner, other = m.lifelines[:2]
        new = max(m.events, default=-1) + 1
        arm = [(new, EventKind("act"), {"x0": 2}), (new + 1, EventKind("send", other), {})]
        m.events_of(owner)  # the parent is analysed before it grows
        with mock.patch("cplkit.msc.local_chains", wraps=local_chains) as chains, \
                mock.patch("cplkit.msc.topological_order", wraps=topological_order) as order:
            grown = m.grow([(owner, arm)])
            assert (chains.call_count, order.call_count) == (0, 0)
            assert grown.events_of(owner)[-2:] == (new, new + 1)
            assert (chains.call_count, order.call_count) == (1, 1)
            answers = chart_answers(grown)
            assert grown.causal_leq(new, new + 1) and not grown.causal_leq(new + 1, new)
        assert (chains.call_count, order.call_count) == (1, 1)
        assert answers == chart_answers(load_trace(dump_trace(grown)))


def test_grow_equals_appending_its_arms_in_turn():
    for seed, m in enumerate(random_charts(40)):
        new = max(m.events, default=-1) + 1
        arms = []
        for k, owner in enumerate(m.lifelines * 2):  # two arms per lifeline
            other = next(b for b in m.lifelines if b != owner)
            ids = range(new + 2 * k, new + 2 * k + 2)
            kinds = (EventKind("act"), EventKind("send", other))
            arms.append((owner, [(i, kd, {"x0": seed}) for i, kd in zip(ids, kinds)]))
        stepwise = m
        for owner, arm in arms:
            stepwise = stepwise.grow([(owner, arm)])
        with mock.patch("cplkit.msc.topological_order", side_effect=AssertionError):
            grown = m.grow(arms)
        answers = chart_answers(grown)
        assert grown.events == stepwise.events
        assert dump_trace(grown) == dump_trace(stepwise)
        assert answers == chart_answers(stepwise) == chart_answers(load_trace(dump_trace(grown)))
    with pytest.raises(MscError, match="no such lifeline"):
        m.grow([(m.lifelines[0], []), ("Nobody", [])])


def test_grow_rejects_events_that_break_the_chart(merge):
    owner, other = merge.lifelines[:2]
    for arm, match in [
        ([(merge.events[0], EventKind("act"), {})], "already in the chart"),
        ([(99, EventKind("act"), {}), (99, EventKind("act"), {})], "already in the chart"),
        ([(99, EventKind("recv"), {})], "receive"),
        ([(99, EventKind("send", owner), {})], "another declared lifeline"),
        ([(99, EventKind("send", "Nobody"), {})], "another declared lifeline"),
    ]:
        with pytest.raises(MscError, match=match):
            merge.grow([(owner, arm)])
    with pytest.raises(MscError, match="no such lifeline"):
        merge.grow([("Nobody", [])])
    assert 99 not in merge.kind and validate_msc(merge).ok
