"""Online monitor: event updates, local evaluation, and the coherence
checker run against it."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from cplkit import monitor
from cplkit.fixtures import fixture_path
from cplkit.lang import close_guards, expand_derived, guard_cones, parse_guard
from cplkit.monitor import (
    EventDescriptor,
    MessagePayload,
    MonitorError,
    begin_event,
    decode_row,
    encode_row,
    finish_event,
    init_monitor,
    on_event,
)
from cplkit.msc import EventKind
from cplkit.simulator import (
    FuzzParams,
    ScenarioError,
    check_coherence,
    differential_check,
    gen_random_formulas,
    gen_random_msc,
    load_scenario,
    prepare_oracle,
    sample_linear_extension,
)
from cplkit.trace import load_trace

from oracles import chart, ev, vars_of


LIFELINES = ("A", "B", "C")


def guards_of(*texts, lifelines=LIFELINES):
    return close_guards(
        [expand_derived(parse_guard(t, set(lifelines)), lifelines) for t in texts]
    )


def act(store):
    return EventDescriptor(kind=EventKind("act"), store_after=store)


# ---------------------------------------------------------------------- #
# init_monitor
# ---------------------------------------------------------------------- #

def test_initial_clock_is_zero():
    s = init_monitor("A", guards_of("Here.x == 1"), LIFELINES)
    assert all(s.vc[b] == 0 for b in LIFELINES)


def test_initial_tables_are_empty():
    s = init_monitor("A", guards_of("Here.x == 1"), LIFELINES)
    assert s.view == {} and s.var == {} and s.store == {}
    assert s.old == (False,) * len(s.guards.sub)


def test_unknown_lifeline_rejected():
    with pytest.raises(MonitorError):
        init_monitor("Z", guards_of("Here.x == 1"), LIFELINES)


# ---------------------------------------------------------------------- #
# on_event
# ---------------------------------------------------------------------- #

def test_single_act_event():
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    s, payload = on_event(s, act({"x": 1}))
    assert payload is None
    assert s.vc["A"] == 1
    assert s.last_vals == {0: True}


def test_merge_scenario_committer_sequence():
    """Drive the three monitors of the shipped merge scenario by hand."""
    sc = load_scenario(fixture_path("merge_review"))
    m = sc.msc
    gs = sc.guard_set()

    runner = init_monitor("TestRunner", gs, m.lifelines)
    orch = init_monitor("Orchestrator", gs, m.lifelines)
    committer = init_monitor("Committer", gs, m.lifelines)

    _, pass_report = on_event(
        runner,
        EventDescriptor(
            kind=EventKind("send", "Committer"),
            store_after={"candidate": "rev-17", "status": "passed"},
        ),
    )
    _, failure_update = on_event(
        runner,
        EventDescriptor(
            kind=EventKind("send", "Committer"),
            store_after={"candidate": "rev-17", "status": "failed"},
        ),
    )
    _, proposal = on_event(
        orch,
        EventDescriptor(
            kind=EventKind("send", "Committer"),
            store_after={"candidate": "rev-17"},
        ),
    )

    on_event(
        committer,
        EventDescriptor(kind=EventKind("recv"), store_after={}, incoming=pass_report),
    )
    on_event(
        committer,
        EventDescriptor(
            kind=EventKind("recv"),
            store_after={"candidate": "rev-17"},
            incoming=proposal,
        ),
    )
    s, _ = on_event(
        committer,
        EventDescriptor(
            kind=EventKind("choice"),
            store_after={"candidate": "rev-17"},
        ),
    )
    assert s.last_vals[0] is True
    assert s.vc == {"Orchestrator": 1, "TestRunner": 1, "Committer": 3}

    # the late failure flips the verdict once delivered
    s, _ = on_event(
        committer,
        EventDescriptor(
            kind=EventKind("recv"),
            store_after={"candidate": "rev-17"},
            incoming=failure_update,
        ),
    )
    assert s.last_vals[0] is False


def test_monitor_matches_denotation_along_random_runs():
    for seed in range(100):
        p = FuzzParams(lifelines=3, events_per_lifeline=5, seed=seed)
        m = gen_random_msc(p)
        g = gen_random_formulas(p, m.lifelines)
        ext = sample_linear_extension(m, seed)
        report = differential_check(m, g, ext)
        assert report.ok, report.to_dict()


def test_descriptor_validation():
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    with pytest.raises(MonitorError, match="without an incoming payload"):
        on_event(s, EventDescriptor(kind=EventKind("recv"), store_after={}))
    with pytest.raises(MonitorError, match="own lifeline"):
        on_event(s, EventDescriptor(kind=EventKind("send", "A"), store_after={}))
    with pytest.raises(MonitorError, match="unknown mutation"):
        on_event(s, act({}), mutation="nonsense")


# ---------------------------------------------------------------------- #
# plan evaluation
# ---------------------------------------------------------------------- #

def test_yesterday_false_at_first_local_event():
    gs = guards_of("Y(Here.x == 1)")
    s = init_monitor("A", gs, LIFELINES)
    s, _ = on_event(s, act({"x": 1}))
    assert s.last_vals[0] is False
    s, _ = on_event(s, act({"x": 2}))
    assert s.last_vals[0] is True  # x was 1 at the previous event


def test_at_self_equals_direct_evaluation():
    gs = guards_of("at(A, Here.x == 1)", "Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    s, _ = on_event(s, act({"x": 1}))
    assert s.last_vals[0] == s.last_vals[1] is True
    s, _ = on_event(s, act({"x": 0}))
    assert s.last_vals[0] == s.last_vals[1] is False


# ---------------------------------------------------------------------- #
# check_coherence
# ---------------------------------------------------------------------- #

def one_act_chart(lifeline="A"):
    return load_trace(chart(LIFELINES, [ev(0, lifeline, "act", vars_of(x=1))]))


def test_first_event_coherence():
    m = one_act_chart()
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    d = act({"x": 1})
    begin_event(s, d)
    assert check_coherence(s, prepare_oracle(m, gs), 0).ok
    finish_event(s, d)


def test_wrong_clock_fails_condition_i():
    m = one_act_chart()
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    begin_event(s, act({"x": 1}))
    s.vc["A"] = 2
    rep = check_coherence(s, prepare_oracle(m, gs), 0)
    assert not rep.conditions["i"][0]
    assert "A: clock 2 != causal past 1" in rep.conditions["i"][1]


def test_presence_rule_breach_fails_condition_ii():
    m = one_act_chart()
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    d = act({"x": 1})
    begin_event(s, d)
    s.view["B"] = (True,)  # entry despite vc[B] == 0
    rep = check_coherence(s, prepare_oracle(m, gs), 0)
    assert not rep.conditions["ii"][0]
    assert rep.conditions["i"][0]


def test_wrong_store_fails_condition_iii():
    m = one_act_chart()
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    begin_event(s, act({"x": 99}))
    rep = check_coherence(s, prepare_oracle(m, gs), 0)
    assert not rep.conditions["iii"][0]


def test_wrong_snapshot_fails_condition_iv():
    m = one_act_chart()
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    begin_event(s, act({"x": 1}))
    s.old = (True,) * len(gs.sub)  # there is no previous local event
    rep = check_coherence(s, prepare_oracle(m, gs), 0)
    assert not rep.conditions["iv"][0]
    assert rep.conditions["i"][0] and rep.conditions["iii"][0]


def test_coherence_requires_owning_lifeline():
    m = one_act_chart("B")
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    with pytest.raises(MonitorError, match="not on lifeline"):
        check_coherence(s, prepare_oracle(m, gs), 0)


def test_coherence_refuses_an_oracle_of_another_guard_set():
    m = one_act_chart()
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    begin_event(s, act({"x": 1}))
    # An equal guard set built again is still another object.
    for other in (guards_of("Here.x == 1"), guards_of("Here.x == 2")):
        with pytest.raises(ScenarioError, match="another guard set"):
            check_coherence(s, prepare_oracle(m, other), 0)
    assert check_coherence(s, prepare_oracle(m, gs), 0).ok


def test_monitor_module_holds_no_checker():
    """The deployed monitor is the algorithm alone: the denotational
    table and the checker live in the harness."""
    for name in ("sat_table", "check_coherence", "CoherenceReport", "Msc"):
        assert not hasattr(monitor, name)


# ---------------------------------------------------------------------- #
# merge phase details
# ---------------------------------------------------------------------- #

def test_self_row_untouched_by_receive_merge():
    """A message can never be ahead of the receiver on the receiver's own
    lifeline, so the merge never copies the local view row."""
    for seed in range(30):
        p = FuzzParams(lifelines=3, events_per_lifeline=5, seed=seed)
        m = gen_random_msc(p)
        g = gen_random_formulas(p, m.lifelines)
        monitors = {b: init_monitor(b, g, m.lifelines) for b in m.lifelines}
        payloads = {}
        for e in sample_linear_extension(m, seed):
            state = monitors[m.pid[e]]
            incoming = None
            if m.kind[e].tag == "recv":
                incoming = payloads[m.matching_send(e)]
                assert incoming.vc.get(state.me, 0) <= state.vc[state.me]
                row_before = state.view.get(state.me)
            d = EventDescriptor(
                kind=m.kind[e], store_after=dict(m.val[e]), incoming=incoming
            )
            begin_event(state, d)
            if incoming is not None:
                assert state.view.get(state.me) is row_before
            pay = finish_event(state, d)
            if pay is not None:
                payloads[e] = pay


MUTATION_CHARTS = {
    # B receives A's fresher row; joining clocks first skips the copy.
    "swap-merge-order": (
        ("A", "B"),
        [ev(0, "A", "act", vars_of(x=1)), ev(1, "A", "send", vars_of(x=1), to="B"),
         ev(2, "B", "recv")],
        [(1, 2)],
        "at(A, Here.x == 1)",
        2,
    ),
    # at(A, f) on A must read f at the current event, not the previous one.
    "strict-at": (
        ("A",),
        [ev(0, "A", "act", vars_of(x=1)), ev(1, "A", "act", vars_of(x=0))],
        [],
        "at(A, Here.x == 1)",
        1,
    ),
    # Y(f) must read the previous event's value of f, not this event's.
    "live-old": (
        ("A",),
        [ev(0, "A", "act", vars_of(x=1)), ev(1, "A", "act", vars_of(x=0))],
        [],
        "Y(Here.x == 1)",
        1,
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATION_CHARTS))
def test_each_mutation_diverges_from_sat_table(mutation):
    lifelines, events, messages, guard, event = MUTATION_CHARTS[mutation]
    m = load_trace(chart(lifelines, events, succ=[(0, 1)], messages=messages))
    gs = guards_of(guard, lifelines=lifelines)
    ext = sample_linear_extension(m, 0)
    assert differential_check(m, gs, ext).ok
    broken = differential_check(m, gs, ext, mutation=mutation)
    assert (event, gs.guard_pos[0]) in {
        (r["event"], r["sub_index"]) for r in broken.mismatches
    }


def test_copy_before_join_order_is_load_bearing():
    """Joining clocks before copying rows must diverge from the oracle on a
    chart where a receive carries fresher remote state."""
    m = load_trace(
        chart(
            ("A", "B"),
            [
                ev(0, "A", "act", vars_of(x=1)),
                ev(1, "A", "send", vars_of(x=1), to="B"),
                ev(2, "B", "recv"),
            ],
            succ=[(0, 1)],
            messages=[(1, 2)],
        )
    )
    gs = guards_of("at(A, Here.x == 1)", lifelines=("A", "B"))
    ext = sample_linear_extension(m, 0)
    assert differential_check(m, gs, ext).ok
    broken = differential_check(m, gs, ext, mutation="swap-merge-order")
    assert broken.mismatches or broken.invariant_failures or broken.coherence_failures


# ---------------------------------------------------------------------- #
# payloads
# ---------------------------------------------------------------------- #

def test_payload_wire_round_trip():
    gs = guards_of("at(A, Here.x == 1) && At[A].x == 2", lifelines=("A", "B"))
    s = init_monitor("A", gs, ("A", "B"))
    _, payload = on_event(
        s, EventDescriptor(kind=EventKind("send", "B"), store_after={"x": 2})
    )
    wire = json.loads(json.dumps(payload.to_wire()))
    back = MessagePayload.from_wire(wire, s.cone.widths)
    assert back == payload


def test_payload_wire_validates_presence():
    with pytest.raises(MonitorError, match="unseen lifeline"):
        MessagePayload.from_wire({"vc": {"A": 0}, "view": {"A": "1"}, "var": {"A": {}}}, {"A": 1})
    with pytest.raises(MonitorError, match="unseen lifeline"):
        MessagePayload.from_wire(
            {"vc": {"A": 1}, "view": {"A": "1", "B": "0"}, "var": {"A": {}, "B": {}}},
            {"A": 2, "B": 2},
        )


def test_payload_wire_rejects_clocks_of_undeclared_lifelines():
    for data in (
        {"vc": {"Z": 3}, "view": {}, "var": {}},
        {"vc": {"A": 1, "Z": 0}, "view": {"A": "1"}, "var": {"A": {}}},
    ):
        with pytest.raises(MonitorError, match="undeclared lifeline 'Z'"):
            MessagePayload.from_wire(data, {"A": 1})


def wire(vc=None, view=None, var=None):
    return {"vc": {"A": 1} if vc is None else vc,
            "view": {"A": "1"} if view is None else view,
            "var": {"A": {}} if var is None else var}


def test_view_rows_are_canonical_hex_bitsets():
    assert encode_row((True, False, False, False, True)) == "11"
    assert encode_row((False,) * 9) == "0" and encode_row(()) == "0"
    assert decode_row("11", 5) == (True, False, False, False, True)
    assert decode_row("0", 0) == ()
    gs = guards_of("Here.x == 1 && Y(true)", lifelines=("A", "B"))
    s = init_monitor("A", gs, ("A", "B"))
    _, payload = on_event(
        s, EventDescriptor(kind=EventKind("send", "B"), store_after={"x": 1})
    )
    assert payload.to_wire()["view"] == {"A": encode_row(s.vals)}


def test_payload_wire_rejects_non_boolean_view_values():
    for row in (1, True, None, ["1"], {"int": 1}):
        with pytest.raises(MonitorError, match="not canonical"):
            MessagePayload.from_wire(wire(view={"A": row}), {"A": 1})


def test_payload_wire_rejects_negative_view_index():
    for row in ("-1", "+1", "-0"):
        with pytest.raises(MonitorError, match="not canonical"):
            MessagePayload.from_wire(wire(view={"A": row}), {"A": 1})


@pytest.mark.parametrize(
    "row", ["0x1", "1_0", " 1", "1 ", "1\n", "A", "1F", "01", "00", "", "g", "\uff11"]
)
def test_payload_wire_rejects_non_canonical_rows(row):
    with pytest.raises(MonitorError, match="not canonical"):
        MessagePayload.from_wire(wire(view={"A": row}), {"A": 8})


def test_payload_wire_rejects_view_index_out_of_range():
    assert MessagePayload.from_wire(wire(view={"A": "1"}), {"A": 1}).view == {"A": (True,)}
    for row, width in (("2", 1), ("1", 0), ("100", 8), ("10000000000000000", 64)):
        with pytest.raises(MonitorError, match="wider"):
            MessagePayload.from_wire(wire(view={"A": row}), {"A": width})


def test_payload_wire_rejects_non_integer_clock():
    with pytest.raises(MonitorError, match="natural number"):
        MessagePayload.from_wire(wire(vc={"A": "x"}), {"A": 1})


def test_payload_wire_rejects_negative_clock():
    with pytest.raises(MonitorError, match="natural number"):
        MessagePayload.from_wire(wire(vc={"A": -1}), {"A": 1})


def test_payload_wire_rejects_malformed_tables():
    for data in (None, {"vc": []}, wire(view=[["A", 0, True]]), {**wire(), "view": []},
                 {"vc": {"A": 1}, "var": []}, wire(view={1: "1"}),
                 wire(var={"A": {1: {"int": 1}}}), wire(var={"A": {"x": 1}})):
        with pytest.raises(MonitorError):
            MessagePayload.from_wire(data, {"A": 1})


def test_payload_wire_is_exactly_vc_view_and_var():
    gs = guards_of("At[A].x == 1", lifelines=("A", "B"))
    s = init_monitor("A", gs, ("A", "B"))
    _, payload = on_event(s, EventDescriptor(kind=EventKind("send", "B"), store_after={}))
    assert payload.to_wire() == {"vc": {"A": 1, "B": 0}, "view": {"A": "0"}, "var": {"A": {}}}
    for key in ("vc", "view", "var"):
        data = wire()
        del data[key]
        with pytest.raises(MonitorError, match="keys vc, view and var"):
            MessagePayload.from_wire(data, {"A": 1})
    for extra in ({"payload": ""}, {"store": {}}, {"vc2": {}}):
        with pytest.raises(MonitorError, match="keys vc, view and var"):
            MessagePayload.from_wire({**wire(), **extra}, {"A": 1})


def test_payload_wire_view_and_var_name_the_same_lifelines():
    both = {"A": 1, "B": 1}
    for view, var in (({"A": "1"}, {}), ({"A": "1"}, {"A": {}, "B": {}}),
                      ({"A": "1", "B": "0"}, {"B": {}}), ({}, {"A": {}})):
        with pytest.raises(MonitorError, match="same lifelines"):
            MessagePayload.from_wire(wire(vc=both, view=view, var=var), {"A": 1, "B": 1})


@pytest.mark.parametrize("row", [
    [], "x", None, {"x": 1}, {"x": {"float": 1.5}}, {"x": {"int": 2**63}},
    {"x": {"int": -(2**63) - 1}}, {"x": {"int": "1"}}, {"x": {"int": 1, "str": "a"}},
    {"": {"int": 1}},
])
def test_payload_wire_rejects_bad_valuations(row):
    with pytest.raises(MonitorError):
        MessagePayload.from_wire(wire(var={"A": row}), {"A": 1})


def test_readme_payload_example_round_trips():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("**Message payload wire format**", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    payload = MessagePayload.from_wire(example, {"A": 5, "B": 0})
    assert payload.view["A"] == (True, False, True, True, True)
    assert payload.to_wire() == example


def test_receive_ahead_without_view_row_is_a_monitor_error():
    gs = guards_of("Here.x == 1", lifelines=("A", "B"))
    s = init_monitor("B", gs, ("A", "B"))
    incoming = MessagePayload(vc={"A": 1}, view={}, var={})
    d = EventDescriptor(kind=EventKind("recv"), store_after={}, incoming=incoming)
    with pytest.raises(MonitorError, match="no view row"):
        begin_event(s, d)
    assert s.vc == {"A": 0, "B": 0} and s.view == {}


def test_emitted_payload_is_a_deep_snapshot():
    gs = guards_of("At[A].x == 1", lifelines=("A", "B"))
    s = init_monitor("A", gs, ("A", "B"))
    _, payload = on_event(
        s, EventDescriptor(kind=EventKind("send", "B"), store_after={"x": 1})
    )
    before = json.dumps(payload.to_wire(), sort_keys=True)
    on_event(s, act({"x": 42}))
    on_event(s, act({}))
    assert json.dumps(payload.to_wire(), sort_keys=True) == before


# ---------------------------------------------------------------------- #
# check_coherence after the update
# ---------------------------------------------------------------------- #

def test_post_phase_checks_clocks_and_rows_of_every_lifeline():
    m = one_act_chart()
    gs = guards_of("Here.x == 1")
    oracle = prepare_oracle(m, gs)
    s = init_monitor("A", gs, LIFELINES)
    d = act({"x": 1})
    begin_event(s, d)
    finish_event(s, d)
    rep = check_coherence(s, oracle, 0, phase="post")
    assert rep.ok and set(rep.conditions) == {"i", "ii"}
    s.view["A"] = tuple(not v for v in s.view["A"])  # the own row is checked too
    rep = check_coherence(s, oracle, 0, phase="post")
    assert not rep.conditions["ii"][0] and rep.conditions["i"][0]
    assert check_coherence(s, oracle, 0).conditions["ii"][0]  # pre skips the own row


def test_unknown_coherence_phase_is_rejected():
    m = load_trace(chart(LIFELINES, [ev(0, "A", "act")]))
    gs = guards_of("Here.x == 1")
    s = init_monitor("A", gs, LIFELINES)
    with pytest.raises(MonitorError, match="phase"):
        check_coherence(s, prepare_oracle(m, gs), 0, phase="during")


# ---------------------------------------------------------------------- #
# check_coherence against one perturbation at a time
# ---------------------------------------------------------------------- #

def coherent_states(owned):
    """``(oracle, event, phase, state)`` for both phases of every event of
    correct replays of small generated instances, whole or (``owned``) with
    guard ``k`` owned by lifeline ``k mod n``. Each state is a copy sharing
    only the guard set, the cone and the (immutable) view rows."""
    for seed in range(100):
        p = FuzzParams(lifelines=3, events_per_lifeline=5, seed=seed)
        m = gen_random_msc(p)
        g = gen_random_formulas(p, m.lifelines)
        owners = {k: m.lifelines[k % 3] for k in range(len(g.formulas))} if owned else None
        oracle = prepare_oracle(m, g)
        if owned:
            oracle = oracle.sliced(guard_cones(g, m.lifelines, owners))
        cones = oracle.cones
        monitors = {b: init_monitor(b, g, m.lifelines, cones[b]) for b in m.lifelines}
        payloads = {}
        for e in sample_linear_extension(m, seed):
            state = monitors[m.pid[e]]
            incoming = payloads[m.matching_send(e)] if m.kind[e].tag == "recv" else None
            d = EventDescriptor(kind=m.kind[e], store_after=m.val[e], incoming=incoming)
            begin_event(state, d)
            yield oracle, e, "pre", copy_state(state)
            payloads[e] = finish_event(state, d)
            yield oracle, e, "post", copy_state(state)


def copy_state(s):
    return replace(
        s, vc=dict(s.vc), view=dict(s.view), store=dict(s.store),
        var={b: dict(row) for b, row in s.var.items()},
    )


def flip_first(row):
    return (not row[0], *row[1:])


def other_seen(s, want):
    """A lifeline other than ``s.me``, with a positive clock, that ``want`` accepts."""
    return next((b for b in s.lifelines if b != s.me and s.vc[b] and want(b)), None)


def perturb_clock(s, phase):
    s.vc[next(b for b in s.lifelines if b != s.me)] += 1
    return True


def perturb_view_bit(s, phase):
    b = other_seen(s, lambda b: len(s.view[b]) > 0)
    if b is not None:
        s.view[b] = flip_first(s.view[b])
    return b is not None


def true_for_one(row):
    """Replace the first ``True`` in this value row by ``1``."""
    x = next((x for x, v in row.items() if v is True), None)
    if x is not None:
        row[x] = 1
    return x is not None


def perturb_true_for_one(s, phase):
    b = other_seen(s, lambda b: any(v is True for v in s.var[b].values()))
    return b is not None and true_for_one(s.var[b])


def perturb_own_true_for_one(s, phase):
    return true_for_one(s.var[s.me])


def perturb_store(s, phase):
    monitored = s.guards.local_vars | s.guards.cross_vars
    x = next((x for x in sorted(s.store) if x in monitored), None)
    if phase == "pre" and x is not None:
        s.store[x] = 1 if s.store[x] is True else "changed"
    return phase == "pre" and x is not None


def perturb_old_bit(s, phase):
    if phase == "pre" and s.old:
        s.old = flip_first(s.old)
    return phase == "pre" and bool(s.old)


def perturb_row_at_clock_zero(s, phase):
    b = next((b for b in s.lifelines if s.vc[b] == 0), None)
    if b is not None:
        s.view[b], s.var[b] = (), {}
    return b is not None


def perturb_own_row(s, phase):
    if len(s.view.get(s.me, ())) > 0:
        s.view[s.me] = flip_first(s.view[s.me])
        return True
    return False


PERTURBATIONS = {
    "clock": perturb_clock,
    "view bit": perturb_view_bit,
    "true for 1": perturb_true_for_one,
    "own true for 1": perturb_own_true_for_one,
    "store": perturb_store,
    "old bit": perturb_old_bit,
    "row at clock 0": perturb_row_at_clock_zero,
    "own row": perturb_own_row,
}

#: The failures each perturbation gives on the first state it applies to,
#: by perturbation and phase, for whole cones; none where it must pass.
PERTURBED = {
    ("clock", "pre"): ["(i) L1: clock 1 != causal past 0"],
    ("clock", "post"): ["(i) L1: clock 1 != causal past 0"],
    ("view bit", "pre"): ["(ii) L1: view row differs from event 0"],
    ("view bit", "post"): ["(ii) L1: view row differs from event 0"],
    ("true for 1", "pre"): ["(ii) L1: value row differs from event 5"],
    ("true for 1", "post"): ["(ii) L1: value row differs from event 5"],
    ("own true for 1", "pre"): ["(iii) local value row does not mirror the valuation"],
    ("own true for 1", "post"): ["(ii) L1: value row differs from event 2"],
    ("store", "pre"): ["(iii) store[x0] != valuation at 1"],
    ("old bit", "pre"): ["(iv) previous-event snapshot is wrong"],
    ("row at clock 0", "pre"): ["(ii) L1: rows present at clock 0"],
    ("row at clock 0", "post"): ["(ii) L1: rows present at clock 0"],
    ("own row", "pre"): [],  # phase "pre" ignores the own view row
    ("own row", "post"): ["(ii) L3: view row differs from event 1"],
}
#: With sliced cones, the first remote view row that is not empty comes later.
PERTURBED_SLICED = {
    **PERTURBED,
    ("view bit", "pre"): ["(ii) L3: view row differs from event 1"],
    ("view bit", "post"): ["(ii) L3: view row differs from event 1"],
}


@pytest.mark.parametrize("owned", [False, True], ids=["whole", "sliced"])
def test_each_perturbation_fails_exactly_its_own_condition(owned):
    """Coherent states pass, and a state with one thing changed fails
    exactly the condition that covers it, with the same details as before
    the checker compared whole states."""
    found = {}
    for oracle, e, phase, s in coherent_states(owned):
        assert check_coherence(s, oracle, e, phase).ok, (e, phase)
        for name, perturb in PERTURBATIONS.items():
            if (name, phase) in found:
                continue
            t = copy_state(s)
            if perturb(t, phase):
                found[name, phase] = check_coherence(t, oracle, e, phase).failures()
        if len(found) == len(PERTURBED):
            break
    assert found == (PERTURBED_SLICED if owned else PERTURBED)
