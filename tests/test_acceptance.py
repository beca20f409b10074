"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The differential sweep (criteria 1-3) is executed
once and shared; its scale is fixed here, not tunable, so a green run
means the shipped configuration holds.
"""

import json

import pytest

from cplkit.cli import main as cli_main
from cplkit.denot import sat
from cplkit.fixtures import fixture_path
from cplkit.lang import At, Since, expand_derived, parse_guard
from cplkit.monitor import MUTATIONS, EventDescriptor, init_monitor, on_event
from cplkit.rng import SplitMix64
from cplkit.simulator import (
    FuzzParams,
    fuzz_sweep,
    gen_random_formulas,
    gen_random_msc,
    load_scenario,
    random_formula,
    sample_linear_extension,
)

from oracles import naive_sat, reachability

SWEEP_PARAMS = FuzzParams(
    lifelines=5,
    events_per_lifeline=8,
    message_prob=0.35,
    var_alphabet=3,
    formula_count=10,
    formula_depth=4,
    seed=20260811,
)
SWEEP_SEEDS = 1000
SWEEP_EXTENSIONS = 5
TIME_BUDGET_SECONDS = 60.0


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] {criterion}{suffix}")


@pytest.fixture(scope="module")
def sweep():
    return fuzz_sweep(
        SWEEP_PARAMS, seeds=SWEEP_SEEDS, extensions=SWEEP_EXTENSIONS, keep_going=True
    )


def test_criterion_1_differential_suite(sweep):
    ok = not sweep.mismatches and sweep.runs == SWEEP_SEEDS * SWEEP_EXTENSIONS
    in_budget = sweep.elapsed < TIME_BUDGET_SECONDS
    report(
        "criterion 1: monitor == denotational semantics on "
        f"{SWEEP_SEEDS}x{SWEEP_EXTENSIONS} runs",
        ok and in_budget,
        f"{sweep.events_checked} events, {sweep.pairs_checked} pairs, "
        f"{sweep.elapsed:.1f}s",
    )
    assert sweep.mismatches == []
    assert sweep.runs == SWEEP_SEEDS * SWEEP_EXTENSIONS
    assert in_budget


def test_criterion_2_state_invariant_suite(sweep):
    ok = not sweep.invariant_failures
    report(
        "criterion 2: clock/view/value invariants after every update",
        ok,
        f"{sweep.events_checked} updates checked",
    )
    assert sweep.invariant_failures == []


def test_criterion_3_coherence_suite(sweep):
    ok = not sweep.coherence_failures
    report(
        "criterion 3: coherence before every evaluation phase",
        ok,
        f"{sweep.events_checked} evaluation phases",
    )
    assert sweep.coherence_failures == []


def _cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_4_merge_fixture(capsys):
    ok_path = str(fixture_path("merge_review"))
    flipped_path = str(fixture_path("merge_review_failure_first"))

    code, entries = _cli_json(capsys, "check", ok_path, "--event", "5")
    assert code == 0
    check_ok = entries[0]["value"] is True

    code, log = _cli_json(capsys, "simulate", ok_path, "--seed", "5")
    assert code == 0
    sim_ok = [r["verdict"] for r in log["records"] if r["event"] == 5] == [True]

    code, entries = _cli_json(capsys, "check", flipped_path, "--event", "6")
    assert code == 0
    check_flipped = entries[0]["value"] is False

    code, log = _cli_json(capsys, "simulate", flipped_path, "--seed", "5")
    assert code == 0
    sim_flipped = [r["verdict"] for r in log["records"] if r["event"] == 6] == [False]

    ok = check_ok and sim_ok and check_flipped and sim_flipped
    report(
        "criterion 4: in-transit failure permits the merge, delivered "
        "failure blocks it; check and simulate agree",
        ok,
    )
    assert ok


def test_criterion_5_stale_candidate_fixture(capsys):
    path = str(fixture_path("merge_review_stale_candidate"))
    sc = load_scenario(fixture_path("merge_review_stale_candidate"))
    m = sc.msc

    code, entries = _cli_json(capsys, "check", path, "--event", "5")
    assert code == 0
    full_guard_false = entries[0]["value"] is False

    temporal = expand_derived(
        parse_guard(
            'at(TestRunner, !(Here.status == "failed") S Here.status == "passed")',
            set(m.lifelines),
        ),
        m.lifelines,
    )
    equality = expand_derived(
        parse_guard(
            "At[TestRunner].candidate == Here.candidate", set(m.lifelines)
        ),
        m.lifelines,
    )
    temporal_alone_true = sat(m, 5, temporal) is True
    equality_false = sat(m, 5, equality) is False

    ok = full_guard_false and temporal_alone_true and equality_false
    report(
        "criterion 5: a stale candidate blocks the merge even with a "
        "visible pass",
        ok,
    )
    assert ok


def _verdict_map(m, g, ext):
    monitors = {b: init_monitor(b, g, m.lifelines) for b in m.lifelines}
    payloads = {}
    send_of = {r: s for s, r in m.msg.items()}
    verdicts = {}
    for e in ext:
        incoming = None
        if m.kind[e].tag == "recv":
            incoming = payloads[send_of[e]]
        state, pay = on_event(
            monitors[m.pid[e]],
            EventDescriptor(
                kind=m.kind[e], store_after=dict(m.val[e]), incoming=incoming
            ),
        )
        if pay is not None:
            payloads[e] = pay
        verdicts[str(e)] = list(state.vals)
    return json.dumps(verdicts, sort_keys=True).encode()


def test_criterion_6_linearization_independence():
    charts_done = 0
    seed = 0
    while charts_done < 100:
        seed += 1
        p = FuzzParams(
            lifelines=4, events_per_lifeline=6, message_prob=0.4, seed=seed
        )
        m = gen_random_msc(p)
        extensions = []
        for k in range(12):
            ext = sample_linear_extension(m, k)
            if ext not in extensions:
                extensions.append(ext)
            if len(extensions) >= 3:
                break
        if len(extensions) < 2:
            continue  # chains admit only one schedule
        g = gen_random_formulas(p, m.lifelines)
        maps = {_verdict_map(m, g, ext) for ext in extensions}
        assert len(maps) == 1, f"seed {seed}: verdicts depend on the schedule"
        charts_done += 1
    report(
        "criterion 6: byte-identical per-event verdict maps across schedules",
        True,
        f"{charts_done} charts, >=2 distinct schedules each",
    )


def test_criterion_7_semantic_algebra():
    rng = SplitMix64(0xA11CE)
    p = FuzzParams(lifelines=3, events_per_lifeline=4, message_prob=0.4)
    triples = 0
    seed = 0
    while triples < 10_000:
        seed += 1
        m = gen_random_msc(
            FuzzParams(lifelines=3, events_per_lifeline=4, message_prob=0.4, seed=seed)
        )
        if not m.events:
            continue
        closure = reachability(m)
        raw = random_formula(rng, rng.randint(0, 2), m.lifelines, p)
        core = expand_derived(raw, m.lifelines)
        a = expand_derived(random_formula(rng, 1, m.lifelines, p), m.lifelines)
        b = expand_derived(random_formula(rng, 1, m.lifelines, p), m.lifelines)
        s = Since(a, b)
        for e in m.events:
            # non-strict self law
            assert sat(m, e, At(m.pid[e], core)) == sat(m, e, core)
            # since recurrence
            prev = m.last_loc(e)
            unfolded = sat(m, e, b) or (
                sat(m, e, a) and prev is not None and sat(m, prev, s)
            )
            assert sat(m, e, s) == unfolded
            # derived forms mean exactly what their expansion means
            assert naive_sat(m, closure, e, raw) == sat(m, e, core)
            triples += 1
    report(
        "criterion 7: self law, since recurrence, expansion equivalence",
        True,
        f"{triples} (chart, event, formula) triples",
    )


def test_criterion_8_mutation_sensitivity():
    caught = {}
    for mode in MUTATIONS:
        summary = fuzz_sweep(
            FuzzParams(seed=1), seeds=200, extensions=3, mutation=mode
        )
        diverged = (
            len(summary.mismatches)
            + len(summary.coherence_failures)
            + len(summary.invariant_failures)
        )
        caught[mode] = (diverged, summary.instances)
    ok = all(n >= 1 for n, _ in caught.values())
    report(
        "criterion 8: every deliberate defect is caught within 200 seeds",
        ok,
        ", ".join(f"{mode} after {inst} instances" for mode, (_, inst) in caught.items()),
    )
    assert ok, caught
