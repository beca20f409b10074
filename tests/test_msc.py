"""Chart structure, well-formedness, and causal navigation."""

import itertools
from unittest import mock

import pytest

from cplkit.fixtures import fixture_path
from cplkit.msc import MscError, validate_msc
from cplkit.msc import EventKind, Msc, local_chains, topological_order
from cplkit.simulator import FuzzParams, gen_random_msc, load_scenario
from cplkit.trace import dump_trace, load_trace

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
from scenarios import chart_answers


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
    """Validation's walk becomes the scenario chart's analysis: loading a
    scenario and asking the first causal query runs each chart pass once.
    On a chart of plain dicts, validation caches nothing."""
    with mock.patch("cplkit.msc.local_chains", wraps=local_chains) as chains, \
            mock.patch("cplkit.msc.topological_order", wraps=topological_order) as order:
        m = load_scenario(fixture_path("merge_review")).msc
        assert m.causal_leq(m.events[0], m.events[0])
    assert (chains.call_count, order.call_count) == (1, 1)
    plain = load_trace(dump_trace(m))
    assert validate_msc(plain).ok and plain._vts is None
    assert chart_answers(plain) == chart_answers(m)


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
        for b in m.lifelines:
            column = m.timestamp_column(b)
            assert column == [m.vector_timestamp(e)[b] for e in m.events]
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
    m.succ[0] = 2  # closes a cycle
    assert topological_order(m) == []
    assert any(v.condition == "iv" for v in validate_msc(m).violations)


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

def test_append_local_carries_the_analysis_and_leaves_the_parent_unchanged():
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
            # Only the parent's analysis may be used: no new Kahn pass.
            with mock.patch("cplkit.msc.topological_order", side_effect=AssertionError):
                grown = m.append_local(owner, arm)
                answers = chart_answers(grown)
            fresh = load_trace(dump_trace(grown))
            assert validate_msc(fresh).ok
            assert answers == chart_answers(fresh)
            assert grown.events_of(owner)[-3:] == (new, new + 1, new + 2)
            assert chart_answers(m) == before and dump_trace(m) == text


def test_append_local_rejects_events_that_break_the_chart(merge):
    owner, other = merge.lifelines[:2]
    for arm, match in [
        ([(merge.events[0], EventKind("act"), {})], "already in the chart"),
        ([(99, EventKind("act"), {}), (99, EventKind("act"), {})], "already in the chart"),
        ([(99, EventKind("recv"), {})], "receive"),
        ([(99, EventKind("send", owner), {})], "another declared lifeline"),
        ([(99, EventKind("send", "Nobody"), {})], "another declared lifeline"),
    ]:
        with pytest.raises(MscError, match=match):
            merge.append_local(owner, arm)
    with pytest.raises(MscError, match="no such lifeline"):
        merge.append_local("Nobody", [])
    assert 99 not in merge.kind and validate_msc(merge).ok
