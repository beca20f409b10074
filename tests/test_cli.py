"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import cplkit
from cplkit import monitor, simulator
from cplkit.cli import main
from cplkit.denot import SatTable, sat
from cplkit.fixtures import fixture_path
from cplkit.lang import MAX_NESTING, expand_derived, guard_cones, parse_guard
from cplkit.msc import local_chains, topological_order
from cplkit.simulator import FuzzParams, Scenario, load_scenario
from cplkit.trace import dump_trace

from oracles import brute_causal_count, chart, ev, reachability, vars_of
from scenarios import gen_scenario

MERGE = str(fixture_path("merge_review"))

GUARD = (
    'At[TestRunner].candidate == Here.candidate'
    ' && at(TestRunner, !(Here.status == "failed") S Here.status == "passed")'
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python(*args, **kwargs):
    """Run a fresh interpreter that imports this checkout's cplkit."""
    env = dict(os.environ, PYTHONPATH=str(Path(cplkit.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs,
    )


# ---------------------------------------------------------------------- #
# check
# ---------------------------------------------------------------------- #

def test_check_merge_choice_event(capsys):
    code, out, _ = run(capsys, "check", MERGE, "--guard", GUARD, "--event", "5")
    assert code == 0
    report = json.loads(out)
    assert report == [{"event": 5, "guard": GUARD, "value": True}]


def test_check_without_guards_is_empty(capsys, tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(chart(["A"], [ev(0, "A", "act")])))
    code, out, _ = run(capsys, "check", str(trace))
    assert code == 0
    assert json.loads(out) == []


def test_check_uses_embedded_scenario_guards(capsys):
    code, out, _ = run(capsys, "check", MERGE, "--event", "5")
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["value"] is True


def test_check_matches_library_sat(capsys):
    code, out, _ = run(capsys, "check", MERGE, "--guard", GUARD)
    assert code == 0
    m = load_scenario(fixture_path("merge_review")).msc
    f = expand_derived(parse_guard(GUARD, set(m.lifelines)), m.lifelines)
    for entry in json.loads(out):
        assert entry["value"] == sat(m, entry["event"], f)


def test_check_bad_inputs_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", MERGE, "--guard", "at(Nope, true)")
    assert code == 2 and "unknown lifeline" in err
    code, _, err = run(capsys, "check", MERGE, "--guard", GUARD, "--event", "99")
    assert code == 2 and "no such event" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"lifelines": []}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(chart(["A"], [ev(0, "A", "recv")]))
    )
    code, _, err = run(capsys, "check", str(broken))
    assert code == 2 and "not well-formed" in err


def test_check_names_the_event_and_variable_of_a_bad_value(capsys, tmp_path):
    bad = tmp_path / "bad_value.json"
    bad.write_text(json.dumps(chart(
        ["A"],
        [ev(0, "A", "act", vars_of(x=1)),
         ev(1, "A", "act", {"x": {"int": 1}, "big": {"int": 99999999999999999999}})],
        succ=[(0, 1)],
    )))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out == ""
    assert (
        "events[1]: variable 'big': int value out of 64-bit range: 99999999999999999999"
        in err
    )
    assert "Traceback" not in err


#: Guards added to each chart's own in ``PINNED_CHECK``: atoms that share
#: terms, compare across tags (``!=`` too) or order non-integers, and
#: ``At[B].x`` terms read where no ``B``-event is visible.
_FIXTURE_GUARDS = [
    'At[Orchestrator].candidate == "rev-17"',
    "At[Orchestrator].candidate != At[Committer].candidate",
    "Here.status == true || At[TestRunner].status != 1",
    'Here.candidate < "rev-18" || At[TestRunner].candidate >= 0',
    'Y(Here.status == "passed") || at(Committer, At[TestRunner].status == "failed")',
    'At[TestRunner].candidate == Here.candidate && Here.candidate != "rev-16"',
]
_GENERATED_GUARDS = [
    "At[L1].x0 == Here.x0 || At[L2].x1 != true",
    "At[L3].x2 < 1 || Here.x0 == 1 || Here.x0 == true",
    "at(L2, Y(At[L3].x1 >= 0 && At[L1].x1 != At[L3].x1))",
    '!(At[L2].x0 == At[L3].x0) S Here.x1 != "a"',
]

#: sha256 of the stdout of ``cplkit check <chart> --guard ...`` with the
#: chart's own guards followed by the extra ones above: each fixture, and
#: ``gen_scenario(4, depth=3)``. Every (event, guard) value must stay the
#: same however ``sat_table`` computes it.
PINNED_CHECK = [
    ("merge_review", "98b21a3930bd207b9af5622585d285628bb419be492fcebd102d0e293a747557"),
    ("merge_review_failure_first",
     "7ce4c1d5a2f3f88c4f50c5dec561642dd40d97e000be8163b4a38a94f79978df"),
    ("merge_review_stale_candidate",
     "a0149537d6de460d93cd3a25a4d7c5b70a6860fa8201c003409953a792649c82"),
    ("generated", "de6dc8887852c24316b1143a63d569c4c4e8fc845c84926a5217e658207f5452"),
]


@pytest.mark.parametrize("name, digest", PINNED_CHECK)
def test_check_output_is_pinned(capsys, tmp_path, name, digest):
    if name == "generated":
        data, extra = gen_scenario(4, depth=3), _GENERATED_GUARDS
        path = tmp_path / "generated.json"
        path.write_text(json.dumps(data))
    else:
        path, extra = fixture_path(name), _FIXTURE_GUARDS
        data = json.loads(path.read_text())
    texts = [g["guard"] for g in data["guards"]] + extra
    code, out, _ = run(
        capsys, "check", str(path), *(arg for t in texts for arg in ("--guard", t))
    )
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


@pytest.mark.parametrize("event", [[], ["--event", "5"]])
def test_check_builds_no_row(capsys, monkeypatch, event):
    """check reads the guard columns of the table, never one of its rows."""
    argv = ["check", MERGE, *(arg for t in _FIXTURE_GUARDS for arg in ("--guard", t)), *event]
    expected = run(capsys, *argv)

    def forbidden(*args):
        raise AssertionError("cplkit check built a row")

    monkeypatch.setattr(SatTable, "__getitem__", forbidden)
    monkeypatch.setattr(SatTable, "rows", forbidden)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and len(json.loads(expected[1])) > 1


@pytest.mark.parametrize("argv", [["check", "--guard", GUARD], ["explain", "--event", "5"]])
def test_a_plain_trace_is_walked_once(capsys, tmp_path, argv):
    """check and explain validate a plain trace, and that walk is the
    chart's analysis: each chart pass runs once."""
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(dump_trace(load_scenario(MERGE).msc)))
    with mock.patch("cplkit.msc.local_chains", wraps=local_chains) as chains, \
            mock.patch("cplkit.msc.topological_order", wraps=topological_order) as order:
        code, out, _ = run(capsys, argv[0], str(trace), *argv[1:])
    assert code == 0 and out
    assert (chains.call_count, order.call_count) == (1, 1)


# ---------------------------------------------------------------------- #
# simulate
# ---------------------------------------------------------------------- #

def test_simulate_is_deterministic(capsys):
    code, out1, _ = run(capsys, "simulate", MERGE, "--seed", "7", "--extensions", "1")
    code2, out2, _ = run(capsys, "simulate", MERGE, "--seed", "7", "--extensions", "1")
    assert code == code2 == 0
    assert out1 == out2


def test_simulate_merge_verdict_true_when_failure_late(capsys):
    code, out, _ = run(capsys, "simulate", MERGE, "--seed", "3", "--extensions", "4")
    assert code == 0
    logs = json.loads(out)
    for log in logs:
        verdict = [r["verdict"] for r in log["records"] if r["event"] == 5]
        if log["order"].index(6) > log["order"].index(5):
            assert verdict == [True]


def test_simulate_agrees_with_check(capsys):
    code, out, _ = run(capsys, "simulate", MERGE, "--seed", "1")
    log = json.loads(out)
    (verdict,) = [r["verdict"] for r in log["records"] if r["event"] == 5]
    code, out, _ = run(capsys, "check", MERGE, "--event", "5")
    (entry,) = json.loads(out)
    assert verdict == entry["value"] is True


def test_simulate_writes_out_file(capsys, tmp_path):
    out_file = tmp_path / "log.json"
    code, out, _ = run(capsys, "simulate", MERGE, "--out", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["order"]


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_simulate_unwritable_out_exits_2(capsys, tmp_path, where):
    code, out, err = run(capsys, "simulate", MERGE, "--out", str(tmp_path / where))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


#: sha256 of the stdout of ``cplkit simulate <scenario> --extensions 3
#: --seed S`` with every monitor running the whole plan (``guard_cones``
#: without owners): each fixture, and ``gen_scenario(4, depth=3)``
#: (branches nested inside continuations). Orders, verdicts,
#: ``payload_bytes`` and snapshots of the whole-width wire, which
#: ``fuzz_sweep`` and ``differential_check`` still use, must stay
#: byte-identical across refactors.
PINNED_SIMULATE = [
    ("merge_review", 0, "ab1de6f0e7a00e0abb1d6d5307879cfd4598e34896f35a2baaad62139a9ba2a3"),
    ("merge_review", 1, "b88e5db0284a68f00e6b73733c1b2577b6ca7e485749cfad1ca5da806a940f06"),
    ("merge_review", 2, "93334a715717e9d929f7d18fa4f7390dc7f6c80a5c2771d893919d13d7360428"),
    ("merge_review_failure_first", 0,
     "2e1151204ca9197f8d313984dbb5121aabe9dfbdef8ffc6418a96039d5bbb4cd"),
    ("merge_review_failure_first", 1,
     "0403ecf3b474850f0ecf8056c947822eebec6b5b94d8ff25fe865bbd925235fb"),
    ("merge_review_failure_first", 2,
     "d0f0262069c618b9a27881d03e18b193d2b454c83ab1c67d5969eeb8c7fb3f91"),
    ("merge_review_stale_candidate", 0,
     "cb4ff5a733d3d4d7d669e4281fdc67055a6be80e0680b86b67ce3fce3e97f8b7"),
    ("merge_review_stale_candidate", 1,
     "589d95cc0a0b7eb4cf5c4afeb54503744d6a19113d3e5068e7c6650d7cb1bfe3"),
    ("merge_review_stale_candidate", 2,
     "d2e29c5d150049b44adf5595241909afc2cb5b3abf38d1421a9283cd9dfc8a7f"),
    ("generated", 0, "229303baf76ef0d28fca05c3aec43211f08a943ee99ade5b02ea30fecb4a735a"),
    ("generated", 1, "c9290108d3ea08edf5ca5478b9b5f0597b0c1e09f0a5fdd848a59f0661adcf00"),
    ("generated", 2, "b8b371c2d205ebb0b662884dcdc5f0fb4bb55921e97c5e8e941a614777c2b158"),
]

#: The same runs as ``PINNED_SIMULATE`` with each monitor running its own
#: cone (``Scenario.cones``), as ``simulate`` does: the wire carries only
#: the rows and values that ``at`` and ``At[B].x`` read, so
#: ``payload_bytes`` and snapshots differ from the whole-width ones while
#: orders, verdicts and grown charts are identical.
PINNED_SIMULATE_SLICED = [
    ("merge_review", 0, "51fa20167b12910fc9458967b11be10336310d35787a53ebf03e74de4e88a59e"),
    ("merge_review", 1, "f8f225092710df8b0580436c3ac1976ca65119779fa32cc2d42e8870d4dc7efe"),
    ("merge_review", 2, "54a07f6ac357cacbc12a1f4f5707f37bf494aee719d549bdb98e9d92ae535c37"),
    ("merge_review_failure_first", 0,
     "6cded70db586702712353fa89c86c75883ad4bfa22d015c7dae14ee702029261"),
    ("merge_review_failure_first", 1,
     "5ef580538d17b1b55615f88a60797ed1080337ecd0f7bf0525e6ad5198fa62a1"),
    ("merge_review_failure_first", 2,
     "f5dfc1db208228161858436f782c87f49bb2902567280cf878e45ead46a61c3c"),
    ("merge_review_stale_candidate", 0,
     "92a78133efcd69272f66664f3c29262c550d304a3e78eccf280a68557e948561"),
    ("merge_review_stale_candidate", 1,
     "adc06d74d9b3b004c5a21cff0a1dfdfe1974f49a5dc0e307b0a496b9612c2f60"),
    ("merge_review_stale_candidate", 2,
     "503ed1e4a4b2570137eeec06fd76d2967170a101e6f51d3afe0b21a676e41c19"),
    ("generated", 0, "6790696a45e889e8e9243b72523288e2028e7288331b23dfbb0545109d76afa2"),
    ("generated", 1, "5b311cb41bc0efa80a653b0973d0114eb02d324a2a5eb7ea8b7891d4a2ab87d2"),
    ("generated", 2, "93ecfba119b0a793ab1d53136b7bc10734d340dac43744af7c21c184e3f72672"),
]


def simulate_digest(capsys, tmp_path, name, seed):
    """``(exit code, sha256 of stdout)`` of a ``PINNED_SIMULATE`` run."""
    if name == "generated":
        path = tmp_path / "generated.json"
        path.write_text(json.dumps(gen_scenario(4, depth=3)))
    else:
        path = fixture_path(name)
    code, out, _ = run(
        capsys, "simulate", str(path), "--extensions", "3", "--seed", str(seed)
    )
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name, seed, digest", PINNED_SIMULATE)
def test_simulate_output_is_pinned(capsys, monkeypatch, tmp_path, name, seed, digest):
    monkeypatch.setattr(
        Scenario, "cones", lambda sc: guard_cones(sc.guard_set(), sc.msc.lifelines)
    )
    assert simulate_digest(capsys, tmp_path, name, seed) == (0, digest)


@pytest.mark.parametrize("name, seed, digest", PINNED_SIMULATE_SLICED)
def test_simulate_sliced_output_is_pinned(capsys, tmp_path, name, seed, digest):
    assert simulate_digest(capsys, tmp_path, name, seed) == (0, digest)


def test_simulate_cpl_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("CPL_SEED", "99")
    _, from_env, _ = run(capsys, "simulate", MERGE)
    monkeypatch.delenv("CPL_SEED")
    _, explicit, _ = run(capsys, "simulate", MERGE, "--seed", "99")
    assert from_env == explicit


@pytest.mark.parametrize("argv", [["simulate", MERGE], ["fuzz", "--seeds", "1"]])
@pytest.mark.parametrize("value", ["abc", "1.5", "0x10"])
def test_non_integer_cpl_seed_exits_2(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("CPL_SEED", value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: CPL_SEED must be an integer, got {value!r}\n"


@pytest.mark.parametrize("argv", [["simulate", MERGE], ["fuzz", "--seeds", "1"]])
@pytest.mark.parametrize("source", ["--seed", "CPL_SEED"])
@pytest.mark.parametrize("value", [-1, 2**64, -(2**64)])
def test_out_of_range_seed_exits_2(capsys, monkeypatch, argv, source, value):
    # SplitMix64 keeps 64 bits, so -1 would replay 2**64 - 1 and 2**64 would replay 0.
    monkeypatch.delenv("CPL_SEED", raising=False)
    if source == "CPL_SEED":
        monkeypatch.setenv("CPL_SEED", str(value))
    else:
        argv = [*argv, "--seed", str(value)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {source} must be in [0, 2**64), got {value}\n"


@pytest.mark.parametrize("argv", [["simulate", MERGE], ["fuzz", "--seeds", "1"]])
def test_seeds_at_the_ends_of_the_range_run(capsys, argv):
    for seed in (0, 2**64 - 1):
        code, out, err = run(capsys, *argv, "--seed", str(seed))
        assert code == 0 and out and err == ""


TOO_DEEP = [
    "(" * 101 + "Here.x == 1" + ")" * 101,
    "!" * 500 + "Here.x == 1",
    " && ".join(["Here.x == 1"] * 500),
    "Here.x == 9223372036854775808",
]


@pytest.mark.parametrize("guard", TOO_DEEP, ids=["parens", "nots", "ands", "int"])
def test_unprocessable_guards_exit_2_from_check_and_simulate(capsys, tmp_path, guard):
    code, out, err = run(capsys, "check", MERGE, "--guard", guard)
    assert (code, out) == (2, "") and err.startswith("error: line 1, col ")
    data = json.loads(fixture_path("merge_review").read_text())
    data["guards"][0]["guard"] = guard
    scenario = tmp_path / "sc.json"
    scenario.write_text(json.dumps(data))
    code, out, err = run(capsys, "simulate", str(scenario))
    assert (code, out) == (2, "") and err.startswith("error: line 1, col ")
    assert "nested deeper" in err or "64-bit" in err


def test_simulate_rejects_bad_scenarios(capsys, tmp_path):
    bad = tmp_path / "sc.json"
    bad.write_text(json.dumps({"lifelines": ["A"], "events": [], "succ": [],
                               "messages": [], "guards": [{"oops": 1}]}))
    code, _, err = run(capsys, "simulate", str(bad))
    assert code == 2


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("key, value", [("guards", 5), ("branches", 7)])
def test_non_list_guards_or_branches_exit_2(capsys, tmp_path, command, key, value):
    data = json.loads(fixture_path("merge_review").read_text())
    data[key] = value
    bad = tmp_path / "sc.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, command, str(bad))
    assert code == 2 and f"{key} must be a list" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------- #
# fuzz
# ---------------------------------------------------------------------- #

def test_fuzz_zero_seeds(capsys):
    code, out, _ = run(capsys, "fuzz", "--seeds", "0")
    assert code == 0
    summary = json.loads(out)
    assert summary["instances"] == 0 and summary["ok"]


def test_fuzz_depth_is_bounded_by_the_parser(capsys):
    code, out, err = run(capsys, "fuzz", "--depth", str(MAX_NESTING + 1))
    assert (code, out) == (2, "")
    assert err == f"error: formula depth must be at most {MAX_NESTING}\n"
    code, out, _ = run(capsys, "fuzz", "--depth", str(MAX_NESTING), "--seeds", "1")
    assert code == 0 and json.loads(out)["ok"]


def test_fuzz_small_sweep_passes(capsys):
    code, out, _ = run(capsys, "fuzz", "--seeds", "40", "--extensions", "2",
                       "--seed", "6")
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] and summary["instances"] == 40


def test_fuzz_mutations_exit_1(capsys):
    for mode in ("swap-merge-order", "strict-at", "live-old"):
        code, out, _ = run(
            capsys, "fuzz", "--seeds", "200", "--extensions", "3",
            "--seed", "1", "--mutate", mode,
        )
        assert code == 1, mode
        summary = json.loads(out)
        total = (
            summary["mismatch_count"]
            + summary["coherence_failure_count"]
            + summary["invariant_failure_count"]
        )
        assert total >= 1


def adopt_rows_on_equal_clocks():
    """``begin_event`` with the ahead-test weakened to ``>=``: a receive
    adopts rows also where the clocks are equal, zero included."""
    source = inspect.getsource(monitor.begin_event)
    assert source.count("> s.vc[b]") == 1
    namespace = dict(vars(monitor))
    exec(source.replace("> s.vc[b]", ">= s.vc[b]"), namespace)
    return namespace["begin_event"]


def alias_payload_clock(s, d):
    """``finish_event`` whose payload shares the sender's live clock."""
    payload = monitor.finish_event(s, d)
    if payload is not None:
        payload.vc = s.vc
    return payload


@pytest.mark.parametrize("name, mutant", [
    ("begin_event", adopt_rows_on_equal_clocks()),
    ("finish_event", alias_payload_clock),
])
def test_fuzz_reports_a_crashing_monitor_as_a_divergence(capsys, monkeypatch, name, mutant):
    """A MonitorError raised inside a replay is an invariant failure at its
    event, which ends that replay; ``cplkit fuzz`` prints its report."""
    monkeypatch.setattr(simulator, name, mutant)
    params = FuzzParams(lifelines=4, events_per_lifeline=6, formula_count=6, seed=1)
    report = simulator.fuzz_sweep(params, seeds=200, extensions=3, keep_going=True)
    crashes = [f for f in report.invariant_failures
               if f["failures"][0].startswith("monitor raised: ")]
    assert crashes and all(len(f["failures"]) == 1 for f in crashes)
    code, out, err = run(capsys, "fuzz", "--seeds", "200", "--seed", "1", "--keep-going")
    summary = json.loads(out)
    assert (code, err) == (1, "")
    assert summary["invariant_failure_count"] == len(report.invariant_failures)
    # Every crash is printed, also past the first 20 failures.
    assert summary["invariant_failures"][:20] == report.invariant_failures[:20]
    assert [f for f in summary["invariant_failures"]
            if f["failures"][0].startswith("monitor raised: ")] == crashes

    p = replace(params, seed=crashes[0]["seed"])
    m = simulator.gen_random_msc(p)
    g = simulator.gen_random_formulas(p, m.lifelines)
    for k in range(50):
        ext = simulator.sample_linear_extension(m, k)
        replay = simulator.differential_check(m, g, ext)
        last = replay.invariant_failures[-1:]
        if last and last[0]["failures"][0].startswith("monitor raised: "):
            # The replay ended at the crash: no event from there on was checked.
            assert replay.events_checked == ext.index(last[0]["event"])
            break
    else:
        raise AssertionError("no schedule of a crashing instance crashed")


def test_fuzz_keep_going_collects_more(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--seeds", "30", "--extensions", "2", "--seed", "1",
        "--mutate", "strict-at", "--keep-going",
    )
    assert code == 1
    assert json.loads(out)["instances"] == 30


def test_fuzz_jobs_match_serial(capsys):
    _, serial, _ = run(capsys, "fuzz", "--seeds", "12", "--extensions", "2",
                       "--seed", "4", "--keep-going")
    _, parallel, _ = run(capsys, "fuzz", "--seeds", "12", "--extensions", "2",
                         "--seed", "4", "--keep-going", "--jobs", "2")
    a, b = json.loads(serial), json.loads(parallel)
    a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
    assert a == b


def test_fuzz_jobs_fail_fast_matches_serial(capsys):
    """Without --keep-going the pool stops at the same first divergence
    as the serial sweep."""
    for mode in ("swap-merge-order", "strict-at", "live-old"):
        flags = ("fuzz", "--seeds", "200", "--extensions", "3", "--seed", "1",
                 "--mutate", mode)
        code, serial, _ = run(capsys, *flags)
        code2, parallel, _ = run(capsys, *flags, "--jobs", "2")
        assert code == code2 == 1, mode
        a, b = json.loads(serial), json.loads(parallel)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b, mode


#: sha256 of the JSON summary minus ``elapsed_seconds`` (sorted keys, no
#: spaces) and the exit code of ``cplkit fuzz --seed 5`` with these flags.
#: A faster checker must report exactly the same verdicts and counts.
PINNED_FUZZ = [
    (("--seeds", "50"), 0,
     "b4e2a29a4e3564150aa69667d2e6a47d7819195ba9fdf7783ce40c67aa65c992"),
    (("--seeds", "200", "--mutate", "strict-at"), 1,
     "b3ebca018faeab33c672b08b533b292fdb23efdb666652cd92c3a61230ca66a3"),
    (("--seeds", "200", "--mutate", "live-old", "--keep-going"), 1,
     "ac993f3ccc80fb5f78bb23bc93376a127ca6e594d77d85ac3ce5b8c2e56d89eb"),
    (("--seeds", "200", "--mutate", "swap-merge-order", "--jobs", "2"), 1,
     "8d6df967561d05aefde773a53d61fdab85cf7185ad1531673be2d898308f3e21"),
]


@pytest.mark.parametrize("flags, exit_code, digest", PINNED_FUZZ)
def test_fuzz_output_is_pinned(capsys, flags, exit_code, digest):
    code, out, _ = run(capsys, "fuzz", *flags, "--seed", "5")
    summary = json.loads(out)
    summary.pop("elapsed_seconds")
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == (exit_code, digest)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fuzz", "--jobs", "0"], "--jobs"),
        (["fuzz", "--seeds", "-1"], "--seeds"),
        (["fuzz", "--extensions", "0"], "--extensions"),
        (["simulate", MERGE, "--extensions", "0"], "--extensions"),
        (["fuzz", "--jobs", "two"], "--jobs"),
    ],
)
def test_bad_count_flags_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: argument {flag}:" in out.err and "Traceback" not in out.err


def test_import_does_not_load_the_process_pool():
    proc = python(
        "-c",
        "import sys, cplkit; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))",
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.decode().strip() == "[]"


def test_closed_stdout_exits_2_without_traceback():
    """A reader that stops early (``| head``) must not make the run look
    like a divergence (exit 1) or print a traceback."""
    proc = python("-m", "cplkit.cli", "simulate", MERGE, "--pretty",
                  "--extensions", "100")
    assert proc.stdout.read(64)  # far less than the report or a pipe buffer
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err and "Exception ignored" not in err


# ---------------------------------------------------------------------- #
# explain
# ---------------------------------------------------------------------- #

def test_explain_isolated_event(capsys, tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text(
        json.dumps(
            chart(["A", "B"], [ev(0, "A", "act", vars_of(x=1)), ev(1, "B", "act")])
        )
    )
    code, out, _ = run(capsys, "explain", str(trace), "--event", "0")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"lifeline": "A", "event": 0, "local_index": 1,
         "valuation": {"x": {"int": 1}}}
    ]


def test_explain_merge_choice(capsys):
    code, out, _ = run(capsys, "explain", MERGE, "--event", "5")
    assert code == 0
    rows = {r["lifeline"]: r for r in json.loads(out)}
    tr = rows["TestRunner"]
    assert tr["event"] == 0 and tr["local_index"] == 1
    assert tr["valuation"]["status"] == {"str": "passed"}


def test_explain_indices_equal_brute_counts(capsys):
    m = load_scenario(fixture_path("merge_review")).msc
    closure = reachability(m)
    for e in m.events:
        code, out, _ = run(capsys, "explain", MERGE, "--event", str(e))
        assert code == 0
        for row in json.loads(out):
            assert row["local_index"] == brute_causal_count(
                m, closure, e, row["lifeline"]
            )


def test_explain_unknown_event_exits_2(capsys):
    code, _, err = run(capsys, "explain", MERGE, "--event", "42")
    assert code == 2 and "no such event" in err


@pytest.mark.parametrize("command", ["check", "explain"])
@pytest.mark.parametrize(
    "extra, message",
    [({}, "trace is not well-formed"), ({"guards": []}, "scenario chart is not well-formed")],
)
def test_ill_formed_charts_exit_2(capsys, tmp_path, command, extra, message):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({**chart(["A"], [ev(0, "A", "recv")]), **extra}))
    code, out, err = run(capsys, command, str(path), "--event", "0")
    assert (code, out) == (2, "") and err.startswith(f"error: {message}: ")


def test_explain_pretty_is_human_readable(capsys):
    code, out, _ = run(capsys, "explain", MERGE, "--event", "5", "--pretty")
    assert code == 0
    assert "TestRunner: event 0 (index 1)" in out
