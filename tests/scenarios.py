"""Generated scenarios (random charts with guarded choices and nested
branch continuations, deterministic per seed), the replays many tests
run, and a chart's answers to every causal query, for comparing charts
built in different ways."""

from __future__ import annotations

from cplkit.fixtures import fixture_path
from cplkit.lang import pretty
from cplkit.rng import SplitMix64
from cplkit.simulator import FuzzParams, gen_random_msc, load_scenario, random_formula
from cplkit.trace import dump_trace, encode_value

FIXTURES = ("merge_review", "merge_review_stale_candidate", "merge_review_failure_first")
_STREAM = 0x3C6EF372FE94F82B  # offsets continuation draws from the chart's


def gen_scenario(seed: int, depth: int = 2) -> dict:
    """A scenario file's contents: a generated chart, a random guard on
    every choice event, and on most of them a branch whose arms (up to
    three events each: acts, sends and guarded choices that may branch
    again, ``depth`` levels deep) have ids distinct from all others."""
    p = FuzzParams(lifelines=3, events_per_lifeline=5, message_prob=0.4, seed=seed)
    m = gen_random_msc(p)
    rng = SplitMix64(seed ^ _STREAM)
    guards: list[dict] = []
    branches: list[dict] = []
    next_id = max(m.events, default=-1) + 1

    def guard(eid: int) -> None:
        f = random_formula(rng, rng.randint(0, 2), m.lifelines, p)
        guards.append({"choice_event_id": eid, "guard": pretty(f)})

    def arm(owner: str, level: int) -> dict:
        nonlocal next_id
        events = []
        for _ in range(rng.randint(0, 3)):
            eid, next_id = next_id, next_id + 1
            event = {"id": eid, "lifeline": owner, "vars": {
                f"x{i}": encode_value(rng.choice(p.value_alphabet))
                for i in range(p.var_alphabet)
                if rng.random() < 0.5
            }}
            r = rng.random()
            others = [b for b in m.lifelines if b != owner]
            if r < 0.3 and others:
                events.append({**event, "kind": "send", "receiver": rng.choice(others)})
            elif r < 0.6:
                events.append({**event, "kind": "choice"})
                guard(eid)
                if level < depth and rng.random() < 0.7:
                    branch(eid, owner, level + 1)
            else:
                events.append({**event, "kind": "act"})
        return {"events": events}

    def branch(choice: int, owner: str, level: int) -> None:
        entry = {"choice_event_id": choice}
        entry["then"] = arm(owner, level)
        entry["else"] = arm(owner, level)
        branches.append(entry)

    for e in m.events:
        if m.kind[e].tag == "choice":
            guard(e)
            if rng.random() < 0.7:
                branch(e, m.pid[e], 1)
    return {**dump_trace(m), "guards": guards, "branches": branches}


def replays():
    """The three fixtures with seeds 0-9, and 200 generated scenarios."""
    for name in FIXTURES:
        sc = load_scenario(fixture_path(name))
        for seed in range(10):
            yield sc, seed
    for seed in range(200):
        yield load_scenario(gen_scenario(seed)), seed


def guard_owners(sc) -> dict[int, str]:
    """Each guard index's choice lifeline, also for a choice in a
    continuation, read off the scenario's chart and branch events."""
    pid = dict(sc.msc.pid)
    for arms in sc.branches.values():
        pid.update((ev["id"], ev["lifeline"]) for arm in arms for ev in arm)
    return {i: pid[eid] for eid, i in sc.guard_formulas()[1].items()}


def chart_answers(m) -> dict:
    """Per event: vector timestamp (read off the timestamp columns), last
    local event, local index and the last visible event of every lifeline."""
    columns = {b: m.timestamp_column(b) for b in m.lifelines}
    return {
        e: (
            {b: column[k] for b, column in columns.items()},
            m.last_loc(e),
            m.local_index(e),
            [m.last_visible(e, b) for b in m.lifelines],
        )
        for k, e in enumerate(m.events)
    }
