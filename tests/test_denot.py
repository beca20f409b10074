"""Denotational semantics against the memo-free reference evaluator."""

import gc

import pytest

from cplkit.denot import SatTable, sat, sat_table
from cplkit.fixtures import fixture_path
from cplkit.lang import (
    COMPARISONS,
    At,
    Atom,
    AtField,
    Lit,
    LocalVar,
    Not,
    PastAt,
    Seen,
    Since,
    Truth,
    Yesterday,
    close_guards,
    expand_derived,
    parse_guard,
)
from cplkit.msc import EventKind, Msc, MscError
from cplkit.rng import SplitMix64
from cplkit.simulator import (
    FuzzParams,
    gen_random_formulas,
    gen_random_msc,
    load_scenario,
    random_formula,
)

from oracles import brute_last_visible, eval_atom, eval_term, naive_sat, reachability


@pytest.fixture(scope="module")
def merge():
    return load_scenario(fixture_path("merge_review")).msc


def small_charts(count, seed0=0, **overrides):
    base = dict(lifelines=3, events_per_lifeline=4, message_prob=0.4)
    base.update(overrides)
    return [gen_random_msc(FuzzParams(seed=seed0 + s, **base)) for s in range(count)]


# ---------------------------------------------------------------------- #
# eval_term
# ---------------------------------------------------------------------- #

def test_missing_local_variable_is_undefined(merge):
    assert eval_term(merge, 1, LocalVar("nope")) is None


def test_visible_status_is_still_passed(merge):
    # at the choice event the latest visible TestRunner state is the pass
    assert eval_term(merge, 5, AtField("TestRunner", "status")) == "passed"


def test_term_errors_are_distinct_from_undefined(merge):
    with pytest.raises(MscError):
        eval_term(merge, 99, LocalVar("x"))
    with pytest.raises(MscError):
        eval_term(merge, 0, AtField("Nobody", "x"))


def test_eval_term_matches_brute_last_visible():
    for m in small_charts(50):
        closure = reachability(m)
        for e in m.events:
            for b in m.lifelines:
                for x in ("x0", "x1", "x2"):
                    lv = brute_last_visible(m, closure, e, b)
                    expected = None if lv is None else m.val[lv].get(x)
                    assert eval_term(m, e, AtField(b, x)) == expected


# ---------------------------------------------------------------------- #
# eval_atom
# ---------------------------------------------------------------------- #

def test_atom_over_invisible_lifeline_is_false(merge):
    # event 0 is on TestRunner; no Committer event is visible there
    a = Atom("==", AtField("Committer", "candidate"), Lit("rev-17"))
    assert eval_atom(merge, 0, a) is False


def test_reflexive_equality(merge):
    a = Atom("==", LocalVar("candidate"), LocalVar("candidate"))
    assert eval_atom(merge, 5, a) is True


def test_atom_truth_table_by_case_enumeration():
    """Exhaustive definedness/tag case split for every comparison."""
    values = [None, 3, 7, "a", "b", True, False]
    for op in ("==", "!=", "<", "<=", ">", ">="):
        for a in values:
            for b in values:
                # expected truth per the undefined-is-false collapse
                if a is None or b is None:
                    expected = False
                elif op == "==":
                    expected = type(a) is type(b) and a == b
                elif op == "!=":
                    expected = type(a) is type(b) and a != b
                elif type(a) is not int or type(b) is not int:
                    expected = False
                else:
                    expected = eval(f"a {op} b")
                assert COMPARISONS[op](a, b) == expected, (op, a, b)


def test_cross_tag_comparisons_are_false(merge):
    cases = [
        Atom("==", LocalVar("candidate"), Lit(1)),     # str vs int
        Atom("!=", LocalVar("candidate"), Lit(1)),     # != is also false
        Atom("<", LocalVar("candidate"), Lit("z")),    # order on strings
        Atom("<=", Lit(True), Lit(1)),                 # bool is not an int
    ]
    for a in cases[:3]:
        assert eval_atom(merge, 5, a) is False
    assert COMPARISONS["<="](True, 1) is False


# ---------------------------------------------------------------------- #
# sat
# ---------------------------------------------------------------------- #

def test_yesterday_false_at_first_event(merge):
    for b in merge.lifelines:
        evs = merge.events_of(b)
        if evs:
            assert sat(merge, evs[0], Yesterday(Truth())) is False


def test_merge_guard_holds_at_choice(merge):
    text = (
        'At[TestRunner].candidate == Here.candidate'
        ' && at(TestRunner, !(Here.status == "failed") S Here.status == "passed")'
    )
    f = expand_derived(parse_guard(text, set(merge.lifelines)), merge.lifelines)
    assert sat(merge, 5, f) is True
    # ... but not once the failure has been delivered
    assert sat(merge, 6, f) is False


def test_sat_rejects_derived_forms(merge):
    with pytest.raises(ValueError, match="derived"):
        sat(merge, 0, Seen("TestRunner"))


def test_sat_matches_naive_recursive_oracle():
    """Dynamic programming vs the memo-free reference, all events."""
    rng = SplitMix64(31337)
    p = FuzzParams(lifelines=3, events_per_lifeline=4)
    for m in small_charts(500):
        closure = reachability(m)
        f = expand_derived(
            random_formula(rng, rng.randint(0, 3), m.lifelines, p), m.lifelines
        )
        gs = close_guards([f])
        rows = sat_table(m, gs)
        for e in m.events:
            assert rows[e][gs.index[f]] == naive_sat(m, closure, e, f), (m, e, f)


# ---------------------------------------------------------------------- #
# semantic laws
# ---------------------------------------------------------------------- #

def test_non_strict_self_law():
    rng = SplitMix64(11)
    p = FuzzParams()
    for m in small_charts(60):
        for e in m.events:
            f = expand_derived(
                random_formula(rng, rng.randint(0, 2), m.lifelines, p), m.lifelines
            )
            assert sat(m, e, At(m.pid[e], f)) == sat(m, e, f)


def test_since_unfolding_recurrence():
    rng = SplitMix64(12)
    p = FuzzParams()
    for m in small_charts(60):
        a = expand_derived(random_formula(rng, 1, m.lifelines, p), m.lifelines)
        b = expand_derived(random_formula(rng, 1, m.lifelines, p), m.lifelines)
        s = Since(a, b)
        for e in m.events:
            prev = m.last_loc(e)
            unfolded = sat(m, e, b) or (
                sat(m, e, a) and prev is not None and sat(m, prev, s)
            )
            assert sat(m, e, s) == unfolded


def test_past_facts_persist_along_causal_order():
    rng = SplitMix64(13)
    p = FuzzParams()
    for m in small_charts(60):
        raw = random_formula(rng, 1, m.lifelines, p)
        for b in m.lifelines:
            f = expand_derived(PastAt(b, raw), m.lifelines)
            for e in m.events:
                if not sat(m, e, f):
                    continue
                for g in m.events:
                    if m.causal_leq(e, g):
                        assert sat(m, g, f)


def test_past_any_is_the_disjunction_of_past_at():
    from cplkit.lang import PastAny

    rng = SplitMix64(14)
    p = FuzzParams()
    for m in small_charts(30):
        raw = random_formula(rng, 1, m.lifelines, p)
        whole = expand_derived(PastAny(raw), m.lifelines)
        for e in m.events:
            parts = any(
                sat(m, e, expand_derived(PastAt(b, raw), m.lifelines))
                for b in m.lifelines
            )
            assert sat(m, e, whole) == parts


# ---------------------------------------------------------------------- #
# sat_table against the per-cell reference
# ---------------------------------------------------------------------- #

ACCEPTANCE = dict(
    lifelines=5, events_per_lifeline=8, message_prob=0.35, var_alphabet=3,
    formula_count=10, formula_depth=4,
)


def atom_positions(gs):
    return [(p, a) for p, (op, a, _) in enumerate(gs.plan) if op == "atom"]


def assert_table_matches_reference(m, gs, naive=True):
    """Every atom cell equals ``eval_atom``; with ``naive``, every row
    equals the memo-free oracle on every subformula. Rows come from the
    table's one transpose, which must agree with its single rows."""
    table = sat_table(m, gs)
    rows = table.rows()
    assert list(table) == list(rows) == list(m.events)
    assert rows == table and all(table[e] == rows[e] for e in m.events)
    closure = reachability(m) if naive else None
    for e in m.events:
        assert len(rows[e]) == len(gs.sub)
        for p, a in atom_positions(gs):
            assert rows[e][p] == eval_atom(m, e, a), (e, a)
        if naive:
            expected = tuple(naive_sat(m, closure, e, f) for f in gs.sub)
            assert rows[e] == expected, e


def test_sat_table_matches_reference_on_fixtures():
    for name in ("merge_review", "merge_review_failure_first", "merge_review_stale_candidate"):
        sc = load_scenario(fixture_path(name))
        lifelines = sc.msc.lifelines
        gs = close_guards(sc.guard_formulas()[0] + tuple(
            expand_derived(parse_guard(text, set(lifelines)), lifelines)
            for text in (
                'At[Orchestrator].candidate == "rev-17"',
                "At[Committer].status != At[TestRunner].status",
                "Here.status == true || At[TestRunner].candidate >= 0",
                'at(Committer, Y(At[TestRunner].status == "failed")) S true',
            )
        ))
        assert_table_matches_reference(sc.msc, gs)


def test_sat_table_matches_reference_at_acceptance_sizes():
    shared = 0
    for seed in range(300):
        p = FuzzParams(seed=seed, **ACCEPTANCE)
        m = gen_random_msc(p)
        gs = gen_random_formulas(p, m.lifelines)
        reads = [x for _, a in atom_positions(gs) for x in (a.left, a.right)
                 if not isinstance(x, Lit)]
        shared += len(reads) > len(set(reads))
        assert_table_matches_reference(m, gs, naive=seed % 5 == 0)
    assert shared > 200  # most guard sets have atoms reading the same term


def test_sat_table_matches_reference_on_grown_charts():
    rng = SplitMix64(77)
    p = FuzzParams(**ACCEPTANCE)
    for m in small_charts(60, seed0=500):
        for _ in range(3):
            owner = rng.choice(m.lifelines)
            other = rng.choice([b for b in m.lifelines if b != owner])
            kinds = [EventKind("act"), EventKind("send", other), EventKind("choice")]
            first = max(m.events, default=-1) + 1
            m = m.grow([(owner, [
                (first + i, kinds[i], {"x0": rng.choice(p.value_alphabet)})
                for i in range(rng.randint(1, 3))
            ])])
        f = expand_derived(random_formula(rng, 3, m.lifelines, p), m.lifelines)
        assert_table_matches_reference(m, close_guards([f]))


def test_sat_table_on_an_empty_chart():
    m = Msc(("A", "B"), (), {}, {}, {}, {}, {})
    f = expand_derived(parse_guard("Y(at(B, At[A].x == 1)) S seen(B)", {"A", "B"}), ("A", "B"))
    assert sat_table(m, close_guards([f])) == {}


def test_sat_table_with_only_literal_atoms(merge):
    atoms = [
        Atom("==", Lit(1), Lit(1)),
        Atom("!=", Lit(1), Lit(2)),
        Atom("==", Lit(True), Lit(1)),
        Atom("<", Lit("a"), Lit("b")),
        Atom(">=", Lit(3), Lit(3)),
    ]
    gs = close_guards(atoms)
    assert_table_matches_reference(merge, gs)
    rows = sat_table(merge, gs)
    assert {rows[e] for e in merge.events} == {(True, True, False, False, True)}


def test_sat_table_reads_never_visible_lifelines_as_undefined(merge):
    # TestRunner only sends: no Orchestrator or Committer event is visible there
    a = Atom("!=", AtField("Orchestrator", "candidate"), LocalVar("candidate"))
    b = Atom("==", AtField("Committer", "candidate"), AtField("Committer", "candidate"))
    gs = close_guards([a, b, Not(a)])
    rows = sat_table(merge, gs)
    for e in merge.events_of("TestRunner"):
        assert rows[e] == (False, False, True)
    assert_table_matches_reference(merge, gs)


def test_sat_table_keeps_true_and_1_apart():
    m = Msc(
        ("A",), (0, 1),
        {0: EventKind("act"), 1: EventKind("act")}, {0: "A", 1: "A"},
        {0: {"x": True, "y": 1}, 1: {"x": 1, "y": 1}}, {0: 1}, {},
    )
    atoms = [
        Atom("==", LocalVar("x"), Lit(1)),
        Atom("==", LocalVar("x"), Lit(True)),
        Atom("==", LocalVar("x"), LocalVar("y")),
        Atom("!=", LocalVar("x"), LocalVar("y")),
        Atom("<=", LocalVar("x"), LocalVar("y")),
    ]
    gs = close_guards(atoms)
    assert sat_table(m, gs) == {
        0: (False, True, False, False, False),
        1: (True, False, True, False, True),
    }
    assert_table_matches_reference(m, gs)


def test_sat_table_leaves_no_cyclic_garbage():
    p = FuzzParams(seed=3, **{**ACCEPTANCE, "lifelines": 8, "formula_count": 40})
    m = gen_random_msc(p)
    gs = gen_random_formulas(p, m.lifelines)
    sat_table(m, gs)  # the chart's analysis is built once, outside the check
    gc.collect()
    gc.disable()
    try:
        sat_table(m, gs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sat_table_is_read_only(merge):
    gs = close_guards([Atom("==", LocalVar("status"), Lit("passed"))])
    table = sat_table(merge, gs)
    e = merge.events[0]
    with pytest.raises(TypeError):
        table[e] = ()
    with pytest.raises(TypeError):
        del table[e]
    with pytest.raises(AttributeError):
        table.extra = 1
    table.column(0)[table.position(e)] = None  # a copy: the table is unchanged
    assert table == sat_table(merge, gs)


def test_sat_table_without_subformulas_has_empty_rows(merge):
    table = sat_table(merge, close_guards([]))
    assert table == dict.fromkeys(merge.events, ()) == table.rows()
    assert [table[e] for e in table] == [()] * len(merge.events)
    empty = Msc(("A",), (), {}, {}, {}, {}, {})
    table = sat_table(empty, close_guards([Atom("==", LocalVar("x"), Lit(1))]))
    assert table == {} and table.rows() == {} and len(table) == 0
    assert list(table.column(0)) == []


def test_sat_table_columns_and_positions_agree_with_rows():
    rng = SplitMix64(2718)
    p = FuzzParams(**ACCEPTANCE)
    for m in small_charts(40, seed0=900):
        gs = close_guards([
            expand_derived(random_formula(rng, 3, m.lifelines, p), m.lifelines)
            for _ in range(3)
        ])
        table = sat_table(m, gs)
        rows = table.rows()
        assert len(table) == len(m.events) and all(e in table for e in m.events)
        assert -1 not in table and table.get(-1) is None
        assert [table.position(e) for e in table] == list(range(len(m.events)))
        for k in range(len(gs.sub)):
            assert list(table.column(k)) == [rows[e][k] for e in m.events]
        with pytest.raises(KeyError):
            table.position(-1)


def test_sat_reads_one_cell(merge, monkeypatch):
    formulas = [
        expand_derived(parse_guard(text, set(merge.lifelines)), merge.lifelines)
        for text in ('At[TestRunner].status == "passed"', "Y(true) S seen(Committer)")
    ]
    expected = {
        (e, k): sat_table(merge, gs)[e][gs.guard_pos[0]]
        for k, gs in enumerate(close_guards([f]) for f in formulas) for e in merge.events
    }

    def forbidden(*args):
        raise AssertionError("sat built a row")

    monkeypatch.setattr(SatTable, "__getitem__", forbidden)
    monkeypatch.setattr(SatTable, "rows", forbidden)
    for (e, k), value in expected.items():
        assert sat(merge, e, formulas[k]) == value
