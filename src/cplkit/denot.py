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
first, over columns built once per call: navigation columns (each
lifeline's chain, the local predecessor and, per lifeline ``B``, the
latest visible ``B``-event, as positions in ``m.events``) and one value
column per distinct term, shared by every atom that reads it. A full
chart costs O(|events| * (|subformulas| + |terms| + |lifelines|)), and
no cell goes through a per-event lookup. ``eval_term`` and ``eval_atom``
are the per-event reference the table is tested against.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

from .lang import (
    COMPARISONS,
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
    """Atom comparison by :data:`~cplkit.lang.COMPARISONS`, with the
    undefined-is-false rule; ValueError for an unknown ``op``."""
    if op not in COMPARISONS:
        raise ValueError(f"unknown comparison {op!r}")
    return COMPARISONS[op](a, b)


def eval_atom(m: Msc, e: int, a: Atom) -> bool:
    m._check_event(e)
    return compare_values(
        a.op, _operand_value(m, e, a.left), _operand_value(m, e, a.right)
    )


def sat_table(m: Msc, gs: GuardSet) -> dict[int, tuple[bool, ...]]:
    """Truth of every guard-set subformula at every event.

    Runs the guard set's plan column by column, one list per subformula
    indexed by position in ``m.events``, plus a sentinel cell at position
    ``n = len(m.events)`` that is always false (``None`` in a term column).
    Navigation is columns too, each built once per call: ``chains`` (each
    lifeline's positions in local order), ``prev`` (the local predecessor)
    and, per lifeline ``B``, ``visible[B]`` (the latest visible
    ``B``-event): positions, ``n`` where there is no such event and at
    ``n`` itself, kept as ``itemgetter`` gathers, so a ``Y``, ``at`` or
    ``At[B].x`` column is one gather of its child's column. Every distinct
    term gets one value column, shared by the atoms that read it. Returns
    one row per event, aligned with ``gs.sub``.
    """
    events = m.events
    n = len(events)
    if not n:
        return {}  # a gather of one position would give a scalar
    pos = {e: k for k, e in enumerate(events)}
    chains = [[pos[e] for e in m.events_of(c)] for c in m.lifelines]
    nav = [n] * (n + 1)
    for chain in chains:
        for k, j in zip(chain, chain[1:]):
            nav[j] = k
    prev = itemgetter(*nav)
    visible: dict[str, itemgetter] = {}
    terms: dict[LocalVar | AtField, list[Value | None] | tuple[Value | None, ...]] = {}
    cols: list[list[bool] | tuple[bool, ...]] = []
    for op, a, b in gs.plan:
        if op == "atom":
            left, right = (
                repeat(x.value, n + 1)
                if isinstance(x, Lit)
                else _term_column(m, x, pos, terms, visible)
                for x in (a.left, a.right)
            )
            col = list(map(COMPARISONS[a.op], left, right))
            col[n] = False  # a hand-built atom may compare two literals
        elif op == "and":
            col = [x and y for x, y in zip(cols[a], cols[b])]
        elif op == "or":
            col = [x or y for x, y in zip(cols[a], cols[b])]
        elif op == "not":
            col = [not x for x in cols[a]]
            col[n] = False
        elif op == "Y":
            col = prev(cols[a])
        elif op == "at":
            col = _visible(m, b, pos, visible)(cols[a])
        elif op == "S":
            first, second = cols[a], cols[b]
            col = [False] * (n + 1)
            for chain in chains:
                cur = False
                for k in chain:
                    cur = col[k] = second[k] or (first[k] and cur)
        else:  # "true"
            col = [True] * n + [False]
        cols.append(col)
    return dict(zip(events, zip(*cols))) if cols else dict.fromkeys(events, ())


def _visible(m: Msc, b: str, pos: dict[int, int], cache: dict[str, itemgetter]) -> itemgetter:
    """The gather of a column at the latest ``b``-event visible at each
    position (``n`` if none, and at ``n``), read off ``b``'s chain by timestamp."""
    get = cache.get(b)
    if get is None:
        chain = [len(pos), *(pos[e] for e in m.events_of(b))]
        get = cache[b] = itemgetter(*itemgetter(*m.timestamp_column(b), 0)(chain))
    return get


def _term_column(
    m: Msc,
    t: LocalVar | AtField,
    pos: dict[int, int],
    cache: dict[LocalVar | AtField, list[Value | None] | tuple[Value | None, ...]],
    visible: dict[str, itemgetter],
) -> list[Value | None] | tuple[Value | None, ...]:
    """Per position, the value of term ``t`` (None when undefined, and at
    the sentinel): ``x`` from each valuation, ``At[B].x`` as ``x``'s
    column gathered by ``visible[B]``."""
    col = cache.get(t)
    if col is None:
        if isinstance(t, LocalVar):
            val = m.val
            col = [val[e].get(t.name) for e in m.events]
            col.append(None)
        else:
            local = _term_column(m, LocalVar(t.name), pos, cache, visible)
            col = _visible(m, t.lifeline, pos, visible)(local)
        cache[t] = col
    return col


def sat(m: Msc, e: int, f: Formula) -> bool:
    """Does the chart satisfy ``f`` at event ``e``? Core formulas only."""
    m._check_event(e)
    gs = close_guards([f])  # raises ValueError on derived forms
    return sat_table(m, gs)[e][gs.guard_pos[0]]
