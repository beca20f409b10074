"""Cones: each lifeline evaluates only the part of the guard set its own
guards and the ``at`` reads of other lifelines need, and sends only the
rows and values those reads use. Verdicts and every computed value must
still equal the denotational table."""

import hashlib
import json
from dataclasses import replace

import pytest

from cplkit.denot import sat_table
from cplkit.fixtures import fixture_path
from cplkit.lang import COMPARISONS, close_guards, expand_derived, guard_cones, parse_guard
from cplkit.monitor import (
    MUTATIONS,
    EventDescriptor,
    MessagePayload,
    MonitorError,
    init_monitor,
    on_event,
)
from cplkit.msc import EventKind
from cplkit.rng import SplitMix64
from cplkit.simulator import (
    FuzzParams,
    differential_check,
    gen_random_formulas,
    gen_random_msc,
    load_scenario,
    prepare_oracle,
    run_scenario,
    sample_linear_extension,
)

from oracles import chart, ev, vars_of
from scenarios import gen_scenario

LIFELINES = ("A", "B", "C")
FIXTURES = ("merge_review", "merge_review_stale_candidate", "merge_review_failure_first")


def guards_of(*texts):
    return close_guards(
        [expand_derived(parse_guard(t, set(LIFELINES)), LIFELINES) for t in texts]
    )


def positions(g, *texts):
    """The guard-set positions of these subformula texts."""
    return [g.index[expand_derived(parse_guard(t, set(LIFELINES)), LIFELINES)] for t in texts]


# ---------------------------------------------------------------------- #
# The fixed point
# ---------------------------------------------------------------------- #

def test_at_body_lands_in_the_named_lifelines_cone():
    g = guards_of("at(B, Here.x == 1)")
    cones = guard_cones(g, LIFELINES, {0: "A"})
    at, body = positions(g, "at(B, Here.x == 1)", "Here.x == 1")
    assert cones["A"].steps == (at,)
    assert cones["B"].steps == (body,)
    assert cones["C"].steps == ()
    # A reads bit 0 of B's row, which holds B's only exported position.
    assert cones["A"].plan == (("at", 0, "B"),)
    assert cones["A"].exports == {"A": (), "B": (body,), "C": ()}
    assert cones["B"].export == (0,) and cones["A"].export == ()


def test_at_own_lifeline_stays_local():
    g = guards_of("at(A, Here.x == 1)")
    cones = guard_cones(g, LIFELINES, {0: "A"})
    at, body = positions(g, "at(A, Here.x == 1)", "Here.x == 1")
    assert cones["A"].steps == (body, at)
    assert cones["A"].plan[1] == ("at", 0, "A")
    assert cones["B"].steps == cones["C"].steps == ()
    assert all(ps == () for ps in cones["A"].exports.values())


def test_program_resolves_each_atom_once():
    g = guards_of("At[C].z == 3 && Here.x < At[B].y || At[C].z != Here.x")
    cone = guard_cones(g, LIFELINES, {0: "A"})["A"]
    steps, literals, reads = cone.program
    assert literals == {0: 3} and reads == ("C", "B")
    atoms = [(a, b) for op, a, b in steps if op == "atom"]
    assert atoms == [
        (COMPARISONS["=="], (2, "z", 0, 0)),
        (COMPARISONS["<"], (1, "x", 3, "y")),
        (COMPARISONS["!="], (2, "z", 1, "x")),
    ]
    assert [s for s in steps if s[0] != "atom"] == [p for p in cone.plan if p[0] != "atom"]
    assert cone.program is cone.program


def test_at_chains_pass_through_cones_and_mirror_what_at_terms_read():
    g = guards_of("Y(at(B, at(C, At[A].x == 1 S Here.y == 2)))", "At[C].z == 3")
    cones = guard_cones(g, LIFELINES, {0: "A", 1: "B"})
    since, = positions(g, "At[A].x == 1 S Here.y == 2")
    inner, = positions(g, "at(C, At[A].x == 1 S Here.y == 2)")
    assert set(cones["A"].steps) == set(positions(
        g, "Y(at(B, at(C, At[A].x == 1 S Here.y == 2)))",
        "at(B, at(C, At[A].x == 1 S Here.y == 2))",
    ))
    assert inner in cones["B"].steps and since in cones["C"].steps
    assert cones["A"].exports == {"A": (), "B": (inner,), "C": (since,)}
    assert cones["A"].mirrors == {
        "A": frozenset({"x"}), "B": frozenset(), "C": frozenset({"z"}),
    }


def test_a_lifeline_nobody_reads_runs_no_step_and_sends_empty_rows():
    g = guards_of("at(B, Here.x == 1) && At[B].y == 2")
    cones = guard_cones(g, LIFELINES, {0: "A"})
    assert cones["C"].steps == () and cones["C"].plan == ()
    s = init_monitor("C", g, LIFELINES, cones["C"])
    s, payload = on_event(
        s, EventDescriptor(kind=EventKind("send", "A"), store_after={"x": 1, "y": 2})
    )
    assert s.vals == () and s.last_vals == {}
    assert payload.to_wire() == {"vc": {"A": 0, "B": 0, "C": 1}, "view": {"C": "0"},
                                 "var": {"C": {}}}
    # B exports its one position and mirrors only y.
    b = init_monitor("B", g, LIFELINES, cones["B"])
    b, payload = on_event(
        b, EventDescriptor(kind=EventKind("send", "A"), store_after={"x": 1, "y": 2})
    )
    assert payload.to_wire()["view"] == {"B": "1"}
    assert payload.to_wire()["var"] == {"B": {"y": {"int": 2}}}


def test_guard_on_a_nested_continuation_choice_belongs_to_the_deciding_lifeline():
    data = {
        **chart(
            ["A", "B"],
            [ev(0, "A", "act", vars_of(x=1)), ev(1, "B", "choice", vars_of(y=1))],
        ),
        "guards": [
            {"choice_event_id": 1, "guard": "Here.y == 1"},
            {"choice_event_id": 11, "guard": "Here.z == 5 && at(A, Here.x == 1)"},
        ],
        "branches": [
            {"choice_event_id": 1,
             "then": {"events": [ev(10, "B", "act"), ev(11, "B", "choice")]},
             "else": {"events": []}},
            {"choice_event_id": 11, "then": {"events": []}, "else": {"events": []}},
        ],
    }
    sc = load_scenario(data)
    g, cones = sc.guard_set(), sc.cones()
    guard11 = g.guard_pos[sc.guard_formulas()[1][11]]
    assert guard11 in cones["B"].steps and guard11 not in cones["A"].steps
    assert cones["A"].steps == tuple(positions(g, "Here.x == 1"))
    log = run_scenario(sc, g, seed=0)
    assert [r["verdict"] for r in log.records if "verdict" in r] == [True, False]


def test_last_vals_reports_the_guards_this_lifeline_evaluates():
    g = guards_of("Here.x == 1", "Here.x == 2", "at(A, Here.x == 2)")
    cones = guard_cones(g, LIFELINES, {0: "A", 1: "B", 2: "B"})
    a = init_monitor("A", g, LIFELINES, cones["A"])
    a, _ = on_event(a, EventDescriptor(kind=EventKind("act"), store_after={"x": 1}))
    # A evaluates guard 1's formula too, because B reads it through at(A, ·).
    assert a.last_vals == {0: True, 1: False}
    b = init_monitor("B", g, LIFELINES, cones["B"])
    b, _ = on_event(b, EventDescriptor(kind=EventKind("act"), store_after={"x": 2}))
    assert b.last_vals == {1: True, 2: False}


def test_whole_cones_run_the_whole_plan():
    g = guards_of("at(B, Here.x == 1) && At[C].y == 2")
    cones = guard_cones(g, LIFELINES)
    every = tuple(range(len(g.sub)))
    for b in LIFELINES:
        cone = cones[b]
        assert cone.steps == cone.export == every and cone.plan == g.plan
        assert cone.widths == dict.fromkeys(LIFELINES, len(g.sub))
        assert cone.mirrors == dict.fromkeys(LIFELINES, g.cross_vars)


def test_owners_must_cover_every_guard_with_a_declared_lifeline():
    g = guards_of("Here.x == 1", "Here.x == 2")
    for owners in ({0: "A"}, {0: "A", 1: "B", 2: "C"}, {0: "A", 1: "Z"}):
        with pytest.raises(ValueError):
            guard_cones(g, LIFELINES, owners)


def test_from_wire_checks_each_row_against_its_lifelines_width():
    data = {"vc": {"A": 1, "B": 1}, "view": {"A": "1", "B": "3"}, "var": {"A": {}, "B": {}}}
    assert MessagePayload.from_wire(data, {"A": 1, "B": 2}).view == {
        "A": (True,), "B": (True, True),
    }
    with pytest.raises(MonitorError, match="wider"):
        MessagePayload.from_wire(data, {"A": 2, "B": 1})
    with pytest.raises(MonitorError, match="undeclared lifeline 'B'"):
        MessagePayload.from_wire(data, {"A": 1})


# ---------------------------------------------------------------------- #
# Verdicts of sliced monitors
# ---------------------------------------------------------------------- #

def verdicts_match_sat_table(sc, seed):
    g = sc.guard_set()
    guard_index_of = sc.guard_formulas()[1]
    log = run_scenario(sc, g, seed)
    rows = sat_table(log.msc, g)
    verdicts = [(r["event"], r["verdict"]) for r in log.records if "verdict" in r]
    for e, verdict in verdicts:
        assert verdict == rows[e][g.guard_pos[guard_index_of[e]]], (seed, e)
    return len(verdicts)


def test_fixture_verdicts_equal_sat_table_on_the_grown_chart():
    for name in FIXTURES:
        sc = load_scenario(fixture_path(name))
        assert sum(verdicts_match_sat_table(sc, seed) for seed in range(10)) >= 10


def test_generated_verdicts_equal_sat_table_on_the_grown_chart():
    scenarios = verdicts = 0
    for seed in range(400):
        sc = load_scenario(gen_scenario(seed))
        if not sc.guard_texts:
            continue
        verdicts += verdicts_match_sat_table(sc, seed)
        scenarios += 1
        if scenarios == 200:
            break
    assert scenarios == 200 and verdicts > 400


def test_scenario_monitors_run_only_their_cones():
    sc = load_scenario(gen_scenario(4, depth=3))
    g = sc.guard_set()
    steps = sum(len(c.steps) for c in sc.cones().values())
    assert 0 < steps < len(g.sub) * len(sc.msc.lifelines)


# ---------------------------------------------------------------------- #
# The differential check on sliced monitors
# ---------------------------------------------------------------------- #

SWEEP_PARAMS = FuzzParams(
    lifelines=5,
    events_per_lifeline=8,
    message_prob=0.35,
    var_alphabet=3,
    formula_count=10,
    formula_depth=4,
    seed=20261018,
)
_OWNER_STREAM = 0x510E527FADE682D1


def random_owner_instances(count):
    """Acceptance-size instances, each guard owned by a seeded random
    lifeline, with one schedule and the oracle of each."""
    seed_rng = SplitMix64(SWEEP_PARAMS.seed)
    for _ in range(count):
        p = replace(SWEEP_PARAMS, seed=seed_rng.next_u64())
        m = gen_random_msc(p)
        g = gen_random_formulas(p, m.lifelines)
        rng = SplitMix64(p.seed ^ _OWNER_STREAM)
        owners = {k: rng.choice(m.lifelines) for k in range(len(g.formulas))}
        ext = sample_linear_extension(m, rng.next_u64())
        yield m, g, ext, owners, prepare_oracle(m, g)


def test_sliced_oracle_equals_projected_rows():
    """A sliced oracle reads its rows from the table's columns; each one
    equals the full row of its event projected onto the cone's positions."""
    for m, g, _, owners, oracle in random_owner_instances(200):
        cones = guard_cones(g, m.lifelines, owners)
        exports, rows = cones[m.lifelines[0]].exports, oracle.table.rows()

        def project(t, positions):
            return tuple(rows[t][p] for p in positions)

        for e, state in oracle.sliced(cones).states.items():
            me, prev = m.pid[e], m.last_loc(e)
            steps = cones[me].steps
            assert state.vals == project(e, steps)
            assert state.old == (project(prev, steps) if prev is not None
                                 else (False,) * len(steps))
            assert state.view == {b: project(t, exports[b]) for b, t in state.seen.items()}
            before = {b: row for b, row in state.view.items() if b != me}
            if prev is not None:
                before[me] = project(prev, exports[me])
            assert state.before == before
            assert (state.clock, state.seen) == oracle.states[e][:2]


#: Per mutation (None for the correct monitor): the sha256 of the random-owner
#: sweep's reports (``to_dict()`` without ``elapsed_seconds``, in instance
#: order) and the number of instances that diverged.
PINNED_SLICED = {
    None: ("8f4339f032090d91a939cd33b0d1dc50dcf52f32e79b7e657282b2156c98e376", 0),
    "swap-merge-order":
        ("296a037f7c4f8bac8dfd94328521d46d16f5555acb52218834620a55958a8567", 178),
    "strict-at":
        ("e38bbbc9709db145c340b4cc5791ca04b307ca21d23a43955341afbdde17cd6d", 174),
    "live-old":
        ("5790a0d83c924ce7ef596611e6d1fd4dc00a1bf34d06d5e6ec8abf5ea044991c", 30),
}


def sweep_digest(reports):
    dicts = [
        {k: v for k, v in r.to_dict().items() if k != "elapsed_seconds"} for r in reports
    ]
    text = json.dumps(dicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_random_owner_sweep_agrees_and_catches_every_mutation():
    reports = {mode: [] for mode in PINNED_SLICED}
    sliced = whole = 0
    for m, g, ext, owners, oracle in random_owner_instances(200):
        for mode, out in reports.items():
            out.append(differential_check(m, g, ext, mode, oracle=oracle, owners=owners))
        report = reports[None][-1]
        assert report.ok, report.to_dict()
        assert report.events_checked == len(m.events)
        sliced += report.pairs_checked
        whole += len(m.events) * len(g.sub)
    assert 0 < sliced < whole
    pins = {
        mode: (sweep_digest(out), sum(not r.ok for r in out))
        for mode, out in reports.items()
    }
    assert pins == PINNED_SLICED
    assert all(pins[mode][1] for mode in MUTATIONS)
