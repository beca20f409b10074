"""Guard parsing, printing, derived-form expansion, subformula closure."""

import time
from typing import get_args

import pytest

from cplkit.lang import (
    OPCODES,
    And,
    At,
    Atom,
    AtField,
    Formula,
    MAX_NESTING,
    Lit,
    LocalVar,
    Not,
    Or,
    ParseError,
    PastAny,
    PastAt,
    Seen,
    Since,
    Truth,
    Yesterday,
    children,
    close_guards,
    expand_derived,
    parse_guard,
    pretty,
)
from cplkit.rng import SplitMix64
from cplkit.simulator import (
    FuzzParams,
    differential_check,
    gen_random_msc,
    load_scenario,
    random_formula,
    sample_linear_extension,
)
from cplkit.denot import sat, sat_table
from cplkit.fixtures import fixture_path
from cplkit.trace import load_trace

from oracles import chart, ev, naive_sat, reachability, vars_of, walk

LIFELINES = ("TestRunner", "Security", "Committer", "A", "B")
LSET = set(LIFELINES)

MERGE_GUARD = (
    'At[TestRunner].candidate == Here.candidate'
    ' && At[Security].candidate == Here.candidate'
    ' && at(TestRunner, !(Here.status == "failed") S Here.status == "passed")'
    ' && at(Security, !(Here.status == "critical") S Here.status == "cleared")'
)

# guards written in the canonical form the printer emits
CORPUS = [
    'Here.status == "passed"',
    'At[TestRunner].candidate == Here.candidate',
    'at(TestRunner, !Here.status == "failed" S Here.status == "passed")',
    'Y(Here.x == 1) && !seen(B)',
    'P[A](Here.x >= 3) || P(Here.done == true)',
    'Here.x != 2 S Here.y < 10 && true',
    '!(Here.a == 1 || Here.b == 2)',
    'at(A, at(B, Y(true)))',
    '5 <= Here.x && Here.x <= 9',
]


# ---------------------------------------------------------------------- #
# parse_guard
# ---------------------------------------------------------------------- #

def test_single_atom():
    f = parse_guard('Here.status == "passed"', LSET)
    assert f == Atom("==", LocalVar("status"), Lit("passed"))


def test_bare_identifiers_are_local_vars():
    assert parse_guard('status == "passed"', LSET) == parse_guard(
        'Here.status == "passed"', LSET
    )


def test_temporal_conjunct_ast():
    f = parse_guard(
        'at(TestRunner, !(status == "failed") S (status == "passed"))', LSET
    )
    assert f == At(
        "TestRunner",
        Since(
            Not(Atom("==", LocalVar("status"), Lit("failed"))),
            Atom("==", LocalVar("status"), Lit("passed")),
        ),
    )


def test_merge_guard_shape():
    f = parse_guard(MERGE_GUARD, LSET)
    # three left-associated conjunctions
    assert isinstance(f, And)
    assert isinstance(f.left, And)
    assert isinstance(f.left.left, And)
    assert isinstance(f.left.left.left, Atom)
    assert f.left.left.left.left == AtField("TestRunner", "candidate")


def test_precedence():
    f = parse_guard("Here.a == 1 S Here.b == 2 && Here.c == 3", LSET)
    assert isinstance(f, And) and isinstance(f.left, Since)
    f = parse_guard("Here.a == 1 && Here.b == 2 || Here.c == 3", LSET)
    assert isinstance(f, Or) and isinstance(f.left, And)
    f = parse_guard("Here.a == 1 S Here.b == 2 S Here.c == 3", LSET)
    assert isinstance(f, Since) and isinstance(f.second, Since)  # right-assoc
    f = parse_guard("!Here.a == 1 S Here.b == 2", LSET)
    assert isinstance(f, Since) and isinstance(f.first, Not)


def test_literal_forms():
    f = parse_guard('Here.x == -12 || Here.s == "a\\"b" || Here.b != false', LSET)
    lits = [n.right.value for n in walk(f) if isinstance(n, Atom)]
    assert set(map(type, lits)) == {int, str, bool}
    assert parse_guard("true", LSET) == Truth()
    assert parse_guard("false", LSET) == Not(Truth())
    assert parse_guard("true == Here.x", LSET) == Atom("==", Lit(True), LocalVar("x"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_guard("Here.x ==\n  &&", LSET)
    assert exc.value.line == 2
    with pytest.raises(ParseError, match="unknown lifeline 'Nope'"):
        parse_guard("at(Nope, true)", LSET)
    with pytest.raises(ParseError, match="at least one side"):
        parse_guard('1 == "one"', LSET)
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_guard("(Here.x == 1", LSET)
    with pytest.raises(ParseError):
        parse_guard("", LSET)
    with pytest.raises(ParseError, match="reserved"):
        parse_guard("Here.x == at", LSET)
    with pytest.raises(ParseError, match="expected '\\('"):
        parse_guard("seen == 1", LSET)


# Wrappers around a formula text, each with the levels it adds.
WRAPPERS = [
    ("!({})", 2), ("Y({})", 1), ("at(A, {})", 1), ("({} || Here.y == 2)", 2),
    ("P[B]({})", 1), ("(Here.b == 1 S ({}))", 3), ("({} && At[B].x == 3)", 2),
]


def guard_of_depth(depth):
    text, levels, i = "Here.x == 1", 0, 0
    while levels < depth:
        wrap, n = WRAPPERS[i % len(WRAPPERS)]
        if levels + n > depth:
            wrap, n = "({})", 1
        text, levels, i = wrap.format(text), levels + n, i + 1
    return text


def test_guard_at_the_nesting_bound_goes_through_the_pipeline():
    text = guard_of_depth(MAX_NESTING)
    f = parse_guard(text, LSET)
    assert parse_guard(pretty(f), LSET) == f
    core = expand_derived(f, ("A", "B"))
    gs = close_guards([core])
    m = load_trace(chart(
        ["A", "B"],
        [ev(0, "A", "send", vars_of(x=1, b=1), to="B"), ev(1, "B", "recv", vars_of(x=3)),
         ev(2, "B", "act", vars_of(x=1, y=2)), ev(3, "A", "act", vars_of(x=1))],
        succ=[(0, 3), (1, 2)], messages=[(0, 1)],
    ))
    rows = sat_table(m, gs)
    assert all(len(rows[e]) == len(gs.sub) for e in m.events)
    for seed in range(3):
        assert differential_check(m, gs, sample_linear_extension(m, seed)).ok


@pytest.mark.parametrize("text", [
    guard_of_depth(MAX_NESTING + 1),
    "!" + guard_of_depth(MAX_NESTING),
    "(" * (MAX_NESTING + 1) + "x == 1" + ")" * (MAX_NESTING + 1),
    "!" * 500 + "x == 1",
    " && ".join(["x == 1"] * 500),
    " || ".join(["x == 1"] * (MAX_NESTING + 2)),
    " S ".join(["x == 1"] * (MAX_NESTING + 2)),
    "(" * 200 + "x == 1" + ")" * 200,
], ids=["wrapped", "not-wrapped", "parens", "nots", "ands", "ors", "since", "parens-200"])
def test_guards_past_the_nesting_bound_are_parse_errors(text):
    with pytest.raises(ParseError, match="nested deeper than 100 levels") as exc:
        parse_guard(text, LSET)
    assert exc.value.line == 1 and exc.value.col > 1


def test_chains_count_one_level_per_operator():
    for op in ("&&", "||", "S"):
        parse_guard(f" {op} ".join(["x == 1"] * (MAX_NESTING + 1)), LSET)
    parse_guard("!" * (MAX_NESTING - 1) + "false", LSET)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_guard("!" * MAX_NESTING + "false", LSET)  # false is !true


def test_integer_literals_are_64_bit():
    for n in (2**63 - 1, -(2**63), 0):
        assert parse_guard(f"Here.x == {n}", LSET).right == Lit(n)
    assert parse_guard("Here.x == 000000000000000000000001", LSET).right == Lit(1)
    for text in (str(2**63), str(-(2**63) - 1), "9" * 5000):
        with pytest.raises(ParseError, match="64-bit") as exc:
            parse_guard(f"Here.x ==\n  {text}", LSET)
        assert (exc.value.line, exc.value.col) == (2, 3)


def test_keywords_allowed_after_dot():
    f = parse_guard("Here.S == 1 && At[A].true == 2", LSET)
    assert isinstance(f.left.left, LocalVar) and f.left.left.name == "S"
    assert f.right.left == AtField("A", "true")


def test_round_trip_1000_random_formulas():
    rng = SplitMix64(2024)
    p = FuzzParams(var_alphabet=3)
    for i in range(1000):
        f = random_formula(rng, rng.randint(0, 4), LIFELINES, p)
        assert parse_guard(pretty(f), LSET) == f, pretty(f)


def test_round_trip_at_half_the_nesting_bound():
    """Grouping parentheses count as levels, so a tree of height h prints
    with up to 2h of them: the round trip holds up to MAX_NESTING // 2."""
    p = FuzzParams()
    for seed in range(200):
        f = random_formula(SplitMix64(seed), MAX_NESTING // 2, LIFELINES, p)
        assert parse_guard(pretty(f), LSET) == f, seed
    f = Atom("==", LocalVar("x"), Lit(1))
    for _ in range(MAX_NESTING // 2):
        f = Since(f, Atom("==", LocalVar("x"), Lit(1)))  # S nested leftwards
    assert parse_guard(pretty(f), LSET) == f
    with pytest.raises(ParseError, match="nested deeper"):
        parse_guard(pretty(Since(f, f.second)), LSET)


def test_corpus_round_trips_up_to_whitespace():
    for text in CORPUS:
        f = parse_guard(text, LSET)
        assert " ".join(pretty(f).split()) == " ".join(text.split())


# ---------------------------------------------------------------------- #
# expand_derived
# ---------------------------------------------------------------------- #

def test_seen_expansion():
    assert expand_derived(Seen("A"), LIFELINES) == At("A", Truth())


def test_past_at_expansion():
    body = Atom("==", LocalVar("x"), Lit(1))
    assert expand_derived(PastAt("B", body), LIFELINES) == At(
        "B", Since(Truth(), body)
    )


def test_past_any_expands_in_declaration_order():
    body = Atom("==", LocalVar("x"), Lit(1))
    f = expand_derived(PastAny(body), ("A", "B"))
    assert f == Or(At("A", Since(Truth(), body)), At("B", Since(Truth(), body)))
    assert expand_derived(PastAny(body), ()) == Not(Truth())


def test_expansion_is_identity_on_core_and_idempotent():
    rng = SplitMix64(7)
    p = FuzzParams()
    for _ in range(300):
        f = random_formula(rng, rng.randint(0, 4), LIFELINES, p)
        once = expand_derived(f, LIFELINES)
        assert expand_derived(once, LIFELINES) == once


def test_expansion_preserves_denotation():
    p = FuzzParams(lifelines=3, events_per_lifeline=4, seed=0)
    rng = SplitMix64(99)
    for seed in range(40):
        m = gen_random_msc(FuzzParams(lifelines=3, events_per_lifeline=4, seed=seed))
        closure = reachability(m)
        for _ in range(5):
            raw = random_formula(rng, rng.randint(0, 3), m.lifelines, p)
            core = expand_derived(raw, m.lifelines)
            for e in m.events:
                assert sat(m, e, core) == naive_sat(m, closure, e, core)


# ---------------------------------------------------------------------- #
# close_guards
# ---------------------------------------------------------------------- #

def test_single_atom_closure():
    a = Atom("==", LocalVar("x"), Lit(1))
    gs = close_guards([a])
    assert gs.sub == (a,)
    assert gs.index[a] == 0
    assert gs.local_vars == {"x"} and gs.cross_vars == frozenset()


def test_merge_guard_cross_vars():
    f = expand_derived(parse_guard(MERGE_GUARD, LSET), LIFELINES)
    gs = close_guards([f])
    assert gs.cross_vars == {"candidate"}
    assert gs.local_vars == {"candidate", "status"}


def test_children_before_parents():
    rng = SplitMix64(55)
    p = FuzzParams()
    for _ in range(200):
        f = expand_derived(
            random_formula(rng, rng.randint(0, 4), LIFELINES, p), LIFELINES
        )
        gs = close_guards([f])
        for node in gs.sub:
            for c in children(node):
                assert gs.index[c] < gs.index[node]


def test_closure_size_matches_distinct_node_count():
    rng = SplitMix64(77)
    p = FuzzParams()
    for _ in range(200):
        fs = [
            expand_derived(
                random_formula(rng, rng.randint(0, 3), LIFELINES, p), LIFELINES
            )
            for _ in range(3)
        ]
        gs = close_guards(fs)
        distinct = set()
        for f in fs:
            distinct.update(walk(f))
        assert len(gs.sub) == len(distinct)
        assert len(set(gs.sub)) == len(gs.sub)


def test_close_guards_rejects_derived_forms():
    with pytest.raises(ValueError, match="derived"):
        close_guards([Seen("A")])


def test_literal_tags_stay_distinct_in_closure():
    a = Atom("==", LocalVar("x"), Lit(1))
    b = Atom("==", LocalVar("x"), Lit(True))
    gs = close_guards([a, b])
    assert len(gs.sub) == 2


def hashed_closure(formulas):
    """Reference closure keyed on whole formulas: ``(sub, plan,
    guard_pos)`` with each subformula placed after its children, in the
    order of a left-to-right depth-first walk."""
    sub, index, plan = [], {}, []

    def visit(f):
        if f not in index:
            a, b = ([visit(c) for c in children(f)] + [None, None])[:2]
            if isinstance(f, Atom):
                a = f
            elif isinstance(f, At):
                b = f.lifeline
            index[f] = len(sub)
            sub.append(f)
            plan.append((OPCODES[type(f)], a, b))
        return index[f]

    guard_pos = tuple(visit(f) for f in formulas)
    return tuple(sub), tuple(plan), guard_pos


def test_closure_matches_hashed_reference():
    guard_sets = [
        load_scenario(fixture_path(name)).guard_formulas()[0]
        for name in ("merge_review", "merge_review_stale_candidate",
                     "merge_review_failure_first")
    ]
    guard_sets.append([expand_derived(parse_guard(t, LSET), LIFELINES) for t in CORPUS])
    guard_sets += [gs.formulas for gs in random_guard_sets(93, count=100)]
    for formulas in guard_sets:
        gs = close_guards(formulas)
        sub, plan, guard_pos = hashed_closure(formulas)
        assert (gs.sub, gs.plan, gs.guard_pos) == (sub, plan, guard_pos)
        assert all(x is y for x, y in zip(gs.sub, sub))
        assert gs.index == {f: i for i, f in enumerate(sub)}


def test_nested_past_closes_in_linear_time():
    """``P(f)`` expands to one disjunct per lifeline, all sharing ``f``, so
    a closure that hashes whole trees takes time exponential in the
    nesting."""
    lifelines = tuple(f"L{i}" for i in range(8))
    text = "P(" * 7 + "Here.x == 1" + ")" * 7
    f = expand_derived(parse_guard(text, set(lifelines)), lifelines)
    started = time.perf_counter()
    gs = close_guards([f])
    assert time.perf_counter() - started < 1.0
    # per level: 8 at-steps, 7 disjunctions and the shared since-step
    assert len(gs.sub) == 2 + 7 * 16


# ---------------------------------------------------------------------- #
# evaluation plan
# ---------------------------------------------------------------------- #

def random_guard_sets(seed, count=200):
    rng = SplitMix64(seed)
    p = FuzzParams()
    for _ in range(count):
        yield close_guards([
            expand_derived(
                random_formula(rng, rng.randint(0, 4), LIFELINES, p), LIFELINES
            )
            for _ in range(3)
        ])


def test_plan_children_precede_their_step():
    for gs in random_guard_sets(91):
        assert len(gs.plan) == len(gs.sub)
        for i, (op, a, b) in enumerate(gs.plan):
            kids = [x for x in (a, b) if type(x) is int]
            assert all(0 <= k < i for k in kids), (i, gs.plan[i])
            assert kids == [gs.index[c] for c in children(gs.sub[i])]


def test_each_core_constructor_has_one_opcode():
    assert set(OPCODES) == set(get_args(Formula)) - {PastAt, PastAny, Seen}
    assert len(set(OPCODES.values())) == len(OPCODES)
    for gs in random_guard_sets(92, count=50):
        for f, (op, a, b) in zip(gs.sub, gs.plan):
            assert op == OPCODES[type(f)]
            if isinstance(f, Atom):
                assert a is f and b is None
            if isinstance(f, At):
                assert b == f.lifeline


def test_plan_operands_by_constructor():
    x = Atom("==", LocalVar("x"), Lit(1))
    gs = close_guards([
        Since(Truth(), x), At("A", Yesterday(x)), Or(Not(x), And(x, Truth()))
    ])
    steps = dict(zip(gs.sub, gs.plan))
    pos = gs.index
    assert steps[x] == ("atom", x, None)
    assert steps[Truth()] == ("true", None, None)
    assert steps[Since(Truth(), x)] == ("S", pos[Truth()], pos[x])
    assert steps[Yesterday(x)] == ("Y", pos[x], None)
    assert steps[At("A", Yesterday(x))] == ("at", pos[Yesterday(x)], "A")
    assert steps[And(x, Truth())] == ("and", pos[x], pos[Truth()])
    assert gs.guard_pos == tuple(pos[f] for f in gs.formulas)
