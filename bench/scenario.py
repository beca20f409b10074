"""The wide scenario that ``simulate_wide`` and ``check_wide`` run.

The scenario is generated here, from the benchmark seed, with the
standard library's generator. It deliberately does not use
``cplkit.simulator.gen_random_msc``: a change to the library's generator
must not change the benchmark's input.

Shape at the default size: 16 lifelines and 900 base events, of which
180 matched non-FIFO messages, 20 sends still in transit and 110 guarded
choice events. Every fourth guard reads an earlier event of its owner;
the others come from a shared pool, grown until all guards close to at
least 170 core subformulas. Every fourth guarded choice has
``then``/``else`` continuations, each arm an ``act`` followed by a
``send``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VALUES = (0, 1, 2, 3, "a", "b", True, False)
OPS = ("==", "!=", "<", "<=", ">", ">=")
# Continuation events get ids far above the base chart's ids.
CONTINUATION_ID_BASE = 1_000_000
#: Variables per lifeline, x0 .. x3.
VARIABLES = 4
#: Every this-many-th guarded choice gets then/else continuations.
BRANCH_EVERY = 4


@dataclass(frozen=True)
class WideShape:
    """Sizes of the generated scenario. The defaults are the benchmark's;
    the tests use smaller ones. Event kinds are drawn from a bag with
    exact counts, so every seed gives the same number of each kind."""

    lifelines: int = 16
    matched: int = 180
    in_transit: int = 20
    choices: int = 110
    acts: int = 410
    subformulas: int = 170
    own_every: int = 8


def _value(v) -> dict:
    if type(v) is bool:
        return {"bool": v}
    if type(v) is int:
        return {"int": v}
    return {"str": v}


def _literal(v) -> str:
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is int:
        return str(v)
    return f'"{v}"'


# Guards are built as small trees so that the benchmark knows, before the
# library parses anything, how many distinct core subformulas they close
# to. Nodes: ("atom", text), ("true",), ("not", f), ("and", f, g),
# ("or", f, g), ("y", f), ("since", f, g), ("at", B, f), and the derived
# ("past_at", B, f) and ("seen", B).


def _core(f: tuple) -> tuple:
    tag = f[0]
    if tag == "past_at":
        return ("at", f[1], ("since", ("true",), _core(f[2])))
    if tag == "seen":
        return ("at", f[1], ("true",))
    if tag == "at":
        return ("at", f[1], _core(f[2]))
    if tag in ("atom", "true"):
        return f
    return (tag,) + tuple(_core(c) for c in f[1:])


def _close(f: tuple, into: set) -> None:
    into.add(f)
    for c in f[2:] if f[0] == "at" else f[1:]:
        if isinstance(c, tuple):
            _close(c, into)


def _text(f: tuple) -> str:
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "true":
        return "true"
    if tag == "not":
        return f"!({_text(f[1])})"
    if tag in ("and", "or", "since"):
        op = {"and": "&&", "or": "||", "since": "S"}[tag]
        return f"({_text(f[1])}) {op} ({_text(f[2])})"
    if tag == "y":
        return f"Y({_text(f[1])})"
    if tag == "at":
        return f"at({f[1]}, {_text(f[2])})"
    if tag == "past_at":
        return f"P[{f[1]}]({_text(f[2])})"
    return f"seen({f[1]})"


class _GuardWriter:
    """Random guard trees over a shared pool of atoms."""

    def __init__(self, rng: random.Random, lifelines: list[str]):
        self.rng = rng
        self.lifelines = lifelines
        # A shared atom pool makes guards overlap, as guards written for
        # one protocol do; the closed set stays far smaller than the sum
        # of the guards' sizes.
        self.atoms = [("atom", self._atom()) for _ in range(12)]

    def _term(self) -> str:
        x = f"x{self.rng.randrange(VARIABLES)}"
        if self.rng.random() < 0.5:
            return f"At[{self.rng.choice(self.lifelines)}].{x}"
        return f"Here.{x}"

    def _atom(self) -> str:
        op = self.rng.choice(OPS)
        if self.rng.random() < 0.7:
            return f"{self._term()} {op} {_literal(self.rng.choice(VALUES))}"
        return f"{self._term()} {op} {self._term()}"

    def formula(self, depth: int) -> tuple:
        rng = self.rng
        if depth == 0:
            if rng.random() < 0.85:
                return rng.choice(self.atoms)
            return ("seen", rng.choice(self.lifelines))
        pick = rng.choice(
            ("and", "or", "not", "y", "since", "at", "at", "past_at", "atom")
        )
        if pick == "atom":
            return rng.choice(self.atoms)
        if pick in ("and", "or", "since"):
            return (pick, self.formula(depth - 1), self.formula(depth - 1))
        if pick in ("not", "y"):
            return (pick, self.formula(depth - 1))
        return (pick, rng.choice(self.lifelines), self.formula(depth - 1))


def wide_scenario(seed: int, shape: WideShape = WideShape()) -> dict:
    """A scenario document in the library's file format, deterministic
    per seed."""
    rng = random.Random(f"cplkit-bench-wide:{seed}")
    lifelines = [f"P{i}" for i in range(shape.lifelines)]

    def valuation() -> dict:
        return {
            f"x{i}": _value(rng.choice(VALUES))
            for i in range(VARIABLES)
            if rng.random() < 0.7
        }

    bag = (
        ["send"] * (shape.matched + shape.in_transit)
        + ["recv"] * shape.matched
        + ["choice"] * shape.choices
        + ["act"] * shape.acts
    )
    rng.shuffle(bag)

    events: list[dict] = []
    succ: list[list[int]] = []
    messages: list[list[int]] = []
    last: dict[str, int] = {}
    store: dict[str, dict] = {b: {} for b in lifelines}
    in_flight: list[tuple[int, str]] = []
    choices: list[tuple[int, str]] = []

    for eid in range(len(bag)):
        kind = bag[eid]
        if kind == "recv" and not in_flight:
            # Nothing to deliver yet: swap in the next non-receive.
            j = next(i for i in range(eid + 1, len(bag)) if bag[i] != "recv")
            bag[eid], bag[j] = bag[j], bag[eid]
            kind = bag[eid]
        if kind == "recv":
            # Any in-flight message may arrive next: deliveries are not FIFO.
            send_id, b = in_flight.pop(rng.randrange(len(in_flight)))
            messages.append([send_id, eid])
            store[b] = valuation()
        else:
            b = rng.choice(lifelines)
        ev: dict = {"id": eid, "lifeline": b, "kind": kind}
        if kind == "send":
            to = rng.choice([x for x in lifelines if x != b])
            ev["receiver"] = to
            in_flight.append((eid, to))
        elif kind == "choice":
            choices.append((eid, b))
        elif kind == "act":
            store[b] = valuation()
        ev["vars"] = dict(store[b])
        if b in last:
            succ.append([last[b], eid])
        last[b] = eid
        events.append(ev)

    # A choice leaves the store unchanged, so most guards have the same
    # value there as one event earlier. Every fourth guard instead reads
    # an earlier event of its owner, alternately through at(Me, Y(a)) and
    # Y(Y(a)), where a = (x == x) holds while x is set: only the
    # non-strict at(Me, .) and the previous-event snapshot give these
    # their right values. The other guards come from a shared pool, grown
    # until the closure of all guards reaches the target size.
    writer = _GuardWriter(rng, lifelines)
    closed: set = set()
    own: dict[int, tuple] = {}
    for k, (eid, owner) in enumerate(choices):
        if k % (shape.own_every // 2) == 0:
            x = f"Here.x{rng.randrange(VARIABLES)}"
            a = ("atom", f"{x} == {x}")
            if k % shape.own_every == 0:
                own[eid] = ("at", owner, ("y", a))
            else:
                own[eid] = ("y", ("y", a))
            _close(_core(own[eid]), closed)
    shared = len(choices) - len(own)
    pool: list[tuple] = []
    while len(closed) < shape.subformulas and len(pool) < shared:
        f = writer.formula(rng.randint(1, 3))
        pool.append(f)
        _close(_core(f), closed)
    picks = pool + [rng.choice(pool) for _ in range(shared - len(pool))]
    rng.shuffle(picks)
    guards = [
        {"choice_event_id": eid, "guard": _text(own[eid] if eid in own else picks.pop())}
        for eid, _ in choices
    ]

    branches = []
    next_id = CONTINUATION_ID_BASE
    for k, (eid, owner) in enumerate(choices):
        if k % BRANCH_EVERY != BRANCH_EVERY - 1:
            continue
        arms = []
        for _ in range(2):
            to = rng.choice([x for x in lifelines if x != owner])
            arms.append(
                {
                    "events": [
                        {"id": next_id, "lifeline": owner, "kind": "act",
                         "vars": valuation()},
                        {"id": next_id + 1, "lifeline": owner, "kind": "send",
                         "receiver": to, "vars": {}},
                    ]
                }
            )
            next_id += 2
        branches.append({"choice_event_id": eid, "then": arms[0], "else": arms[1]})

    return {
        "lifelines": lifelines,
        "events": events,
        "succ": succ,
        "messages": messages,
        "guards": guards,
        "branches": branches,
    }


def continuation_events(doc: dict) -> int:
    """Events one replay appends: one arm of every branch is taken, and
    both arms have the same length."""
    return sum(len(b["then"]["events"]) for b in doc["branches"])

