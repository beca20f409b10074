"""Brute-force reference implementations the library is tested against.

Everything here is deliberately slow and structurally independent of the
code under test: reachability by relation powering instead of vector
timestamps, navigation by filtering whole lifelines, formula truth by
memo-free recursion straight off the defining clauses.
"""

from __future__ import annotations

from cplkit.lang import (
    COMPARISONS,
    And,
    At,
    Atom,
    AtField,
    Lit,
    LocalVar,
    Not,
    Or,
    PastAny,
    PastAt,
    Seen,
    Since,
    Truth,
    Yesterday,
)
from cplkit.msc import Msc, Value


def ev(eid, lifeline, kind, vars=None, to=None):
    """One event object in the trace schema (values already tagged)."""
    out = {"id": eid, "lifeline": lifeline, "kind": kind, "vars": vars or {}}
    if to is not None:
        out["receiver"] = to
    return out


def chart(lifelines, events, succ=(), messages=()):
    """A raw trace dict for the loader."""
    return {
        "lifelines": list(lifelines),
        "events": list(events),
        "succ": [list(p) for p in succ],
        "messages": [list(p) for p in messages],
    }


def tag(v):
    if type(v) is bool:
        return {"bool": v}
    if type(v) is int:
        return {"int": v}
    return {"str": v}


def vars_of(**kw):
    return {k: tag(v) for k, v in kw.items()}


# ---------------------------------------------------------------------- #
# Reachability by relation powering
# ---------------------------------------------------------------------- #

def reachability(m: Msc) -> set[tuple[int, int]]:
    """Reflexive transitive closure of succ and msg edges, computed by
    squaring the relation until it stops growing."""
    rel = {(e, e) for e in m.events}
    rel |= set(m.succ.items())
    rel |= set(m.msg.items())
    while True:
        grown = rel | {(a, d) for (a, b) in rel for (c, d) in rel if b == c}
        if grown == rel:
            return rel
        rel = grown


def brute_leq(closure: set[tuple[int, int]], e: int, f: int) -> bool:
    return (e, f) in closure


def lifeline_order(m: Msc, closure: set[tuple[int, int]], b: str) -> list[int]:
    """Events of lifeline b sorted by how many local predecessors each has."""
    members = [e for e in m.events if m.pid[e] == b]
    return sorted(
        members,
        key=lambda e: sum(1 for f in members if f != e and (f, e) in closure),
    )


def brute_local_index(m: Msc, closure, e: int) -> int:
    b = m.pid[e]
    return 1 + sum(
        1 for f in m.events if f != e and m.pid[f] == b and (f, e) in closure
    )


def brute_last_loc(m: Msc, closure, e: int) -> int | None:
    b = m.pid[e]
    preds = [f for f in m.events if f != e and m.pid[f] == b and (f, e) in closure]
    if not preds:
        return None
    return max(preds, key=lambda f: brute_local_index(m, closure, f))


def brute_last_visible(m: Msc, closure, e: int, b: str) -> int | None:
    cands = [f for f in m.events if m.pid[f] == b and (f, e) in closure]
    if not cands:
        return None
    return max(cands, key=lambda f: brute_local_index(m, closure, f))


def brute_causal_count(m: Msc, closure, e: int, b: str) -> int:
    return sum(1 for f in m.events if m.pid[f] == b and (f, e) in closure)


# ---------------------------------------------------------------------- #
# Memo-free denotational evaluation
# ---------------------------------------------------------------------- #

def _term_value(m: Msc, closure, e: int, t):
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, LocalVar):
        return m.val[e].get(t.name)
    lv = brute_last_visible(m, closure, e, t.lifeline)
    if lv is None:
        return None
    return m.val[lv].get(t.name)


def _compare(op, a, b):
    if a is None or b is None:
        return False
    if op == "==":
        return type(a) is type(b) and a == b
    if op == "!=":
        return type(a) is type(b) and a != b
    if type(a) is not int or type(b) is not int:
        return False
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def naive_sat(m: Msc, closure, e: int, f) -> bool:
    """Truth at an event straight off the defining clauses; no memoization,
    every subcall re-derives whatever navigation it needs. Derived forms
    are evaluated by their direct definitions, not by expansion."""
    if isinstance(f, Truth):
        return True
    if isinstance(f, Seen):
        return brute_last_visible(m, closure, e, f.lifeline) is not None
    if isinstance(f, PastAt):
        return any(
            m.pid[g] == f.lifeline
            and (g, e) in closure
            and naive_sat(m, closure, g, f.body)
            for g in m.events
        )
    if isinstance(f, PastAny):
        return any(
            naive_sat(m, closure, e, PastAt(b, f.body)) for b in m.lifelines
        )
    if isinstance(f, Atom):
        return _compare(
            f.op, _term_value(m, closure, e, f.left), _term_value(m, closure, e, f.right)
        )
    if isinstance(f, Not):
        return not naive_sat(m, closure, e, f.body)
    if isinstance(f, And):
        return naive_sat(m, closure, e, f.left) and naive_sat(m, closure, e, f.right)
    if isinstance(f, Or):
        return naive_sat(m, closure, e, f.left) or naive_sat(m, closure, e, f.right)
    if isinstance(f, Yesterday):
        prev = brute_last_loc(m, closure, e)
        return prev is not None and naive_sat(m, closure, prev, f.body)
    if isinstance(f, At):
        lv = brute_last_visible(m, closure, e, f.lifeline)
        return lv is not None and naive_sat(m, closure, lv, f.body)
    if isinstance(f, Since):
        # exists f' <=_A e with second(f') and first on every g, f' < g <= e
        order = lifeline_order(m, closure, m.pid[e])
        upto = order[: order.index(e) + 1]
        for i in range(len(upto) - 1, -1, -1):
            if naive_sat(m, closure, upto[i], f.second):
                if all(naive_sat(m, closure, g, f.first) for g in upto[i + 1 :]):
                    return True
        return False
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------- #
# Per-event evaluation through the chart's own queries
# ---------------------------------------------------------------------- #

def eval_term(m: Msc, e: int, t: LocalVar | AtField) -> Value | None:
    """Value of a term at an event, or None when undefined; the per-event
    reference ``sat_table``'s term columns are tested against."""
    m._check_event(e)
    if isinstance(t, LocalVar):
        return m.val[e].get(t.name)
    lv = m.last_visible(e, t.lifeline)
    if lv is None:
        return None
    return m.val[lv].get(t.name)


def _operand_value(m: Msc, e: int, x) -> Value | None:
    if isinstance(x, Lit):
        return x.value
    return eval_term(m, e, x)


def eval_atom(m: Msc, e: int, a: Atom) -> bool:
    """Truth of an atom at an event, by :data:`~cplkit.lang.COMPARISONS`."""
    m._check_event(e)
    return COMPARISONS[a.op](_operand_value(m, e, a.left), _operand_value(m, e, a.right))


# ---------------------------------------------------------------------- #
# Schedule enumeration
# ---------------------------------------------------------------------- #

def all_topo_sorts(m: Msc) -> list[tuple[int, ...]]:
    """Every linear extension, by exhaustive ready-set recursion (small
    charts only)."""
    preds: dict[int, set[int]] = {e: set() for e in m.events}
    for src, dst in list(m.succ.items()) + list(m.msg.items()):
        preds[dst].add(src)
    out: list[tuple[int, ...]] = []

    def rec(placed: list[int], done: set[int]) -> None:
        if len(placed) == len(m.events):
            out.append(tuple(placed))
            return
        for e in sorted(m.events):
            if e not in done and preds[e] <= done:
                placed.append(e)
                done.add(e)
                rec(placed, done)
                done.remove(e)
                placed.pop()

    rec([], set())
    return out
