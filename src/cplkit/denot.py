"""Denotational guard semantics over a complete chart.

This is the ground truth the online monitors are measured against. A
term's value at an event is partial: an unqualified variable reads the
event's own valuation, ``At[A].x`` reads the valuation at the latest
visible ``A``-event. An atom with any undefined operand, a tag mismatch,
or an order comparison on non-integers is false.

``Y f`` is false at the first event of a lifeline; ``at(A, f)`` is false
when no ``A``-event is visible, and otherwise evaluates ``f`` at the
latest visible one (the current event itself when already on ``A``).
``f1 S f2`` looks back along the current lifeline only.

Evaluation runs the guard set's plan one column per subformula, children
first, so a full chart costs O(|events| * |subformulas|) plus navigation.
"""

from __future__ import annotations

from .lang import (
    Atom,
    AtField,
    Formula,
    GuardSet,
    Lit,
    LocalVar,
    Operand,
    close_guards,
)
from .msc import Msc, Value


def eval_term(m: Msc, e: int, t: LocalVar | AtField) -> Value | None:
    """Value of a term at an event, or None when undefined."""
    m._check_event(e)
    if isinstance(t, LocalVar):
        return m.val[e].get(t.name)
    lv = m.last_visible(e, t.lifeline)
    if lv is None:
        return None
    return m.val[lv].get(t.name)


def _operand_value(m: Msc, e: int, x: Operand) -> Value | None:
    if isinstance(x, Lit):
        return x.value
    return eval_term(m, e, x)


def compare_values(op: str, a: Value | None, b: Value | None) -> bool:
    """Atom comparison with the undefined-is-false rule.

    Undefined operands, mismatched tags, and order comparisons on
    anything but two integers all yield false (including ``!=``).
    """
    if a is None or b is None:
        return False
    if op == "==":
        return type(a) is type(b) and a == b
    if op == "!=":
        return type(a) is type(b) and a != b
    if type(a) is not int or type(b) is not int:
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown comparison {op!r}")


def eval_atom(m: Msc, e: int, a: Atom) -> bool:
    m._check_event(e)
    return compare_values(
        a.op, _operand_value(m, e, a.left), _operand_value(m, e, a.right)
    )


def sat_table(m: Msc, gs: GuardSet) -> dict[int, tuple[bool, ...]]:
    """Truth of every guard-set subformula at every event.

    Runs the guard set's plan column by column, one list per subformula
    indexed by position in ``m.events``. Returns one row per event,
    aligned with ``gs.sub``.
    """
    events = m.events
    pos = {e: k for k, e in enumerate(events)}  # pos.get(None) is None
    prev: list[int | None] = []
    visible: dict[str, list[int | None]] = {}
    cols: list[list[bool]] = []
    for op, a, b in gs.plan:
        if op == "atom":
            col = [eval_atom(m, e, a) for e in events]
        elif op == "and":
            col = [x and y for x, y in zip(cols[a], cols[b])]
        elif op == "or":
            col = [x or y for x, y in zip(cols[a], cols[b])]
        elif op == "not":
            col = [not x for x in cols[a]]
        elif op == "Y":
            prev = prev or [pos.get(m.last_loc(e)) for e in events]
            sub = cols[a]
            col = [k is not None and sub[k] for k in prev]
        elif op == "at":
            if b not in visible:
                visible[b] = [pos.get(m.last_visible(e, b)) for e in events]
            sub = cols[a]
            col = [k is not None and sub[k] for k in visible[b]]
        elif op == "S":
            first, second = cols[a], cols[b]
            col = [False] * len(events)
            for lifeline in m.lifelines:
                cur = False
                for e in m.events_of(lifeline):
                    k = pos[e]
                    cur = col[k] = second[k] or (first[k] and cur)
        else:  # "true"
            col = [True] * len(events)
        cols.append(col)
    if not cols:
        return {e: () for e in events}
    return dict(zip(events, zip(*cols)))


def sat(m: Msc, e: int, f: Formula) -> bool:
    """Does the chart satisfy ``f`` at event ``e``? Core formulas only."""
    m._check_event(e)
    gs = close_guards([f])  # raises ValueError on derived forms
    return sat_table(m, gs)[e][gs.guard_pos[0]]
