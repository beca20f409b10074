"""Tests of the benchmark itself: its correctness gate catches each
deliberate monitor defect, its counts repeat per seed, it emits exactly
the metrics BENCHMARK.json declares, and it refuses to run without the
package sources.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from scenario import WideShape, wide_scenario  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import CheckWide, FuzzSweep, SimulateWide  # noqa: E402

from cplkit.monitor import MUTATIONS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_FUZZ = dict(
    lifelines=3,
    events_per_lifeline=6,
    message_prob=0.35,
    var_alphabet=3,
    formula_count=5,
    formula_depth=3,
)
TINY_WIDE = WideShape(
    lifelines=4, matched=24, in_transit=4, choices=40, acts=40, subformulas=50,
    own_every=4,
)


def fail_ratio(workload, ops: int) -> float:
    workload.setup(run.load_library())
    failed: list[int] = []
    for i in range(ops):
        _, out = run.timed_op(workload, i, failed)
        run.verified(workload, i, out, failed)
    return len(failed) / ops


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_fuzz_gate(mutation):
    ratio = fail_ratio(FuzzSweep(7, mutation, params=TINY_FUZZ), 40)
    assert (ratio > 0) == (mutation is not None)


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_simulate_gate(mutation):
    ratio = fail_ratio(SimulateWide(1, mutation, shape=TINY_WIDE), 3)
    assert (ratio > 0) == (mutation is not None)


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_check_gate(mutation):
    # The tables come from sat_table either way; the mutated monitors
    # they are checked against must make every table fail.
    ratio = fail_ratio(CheckWide(1, mutation, shape=TINY_WIDE), 2)
    assert ratio == (0.0 if mutation is None else 1.0)


def test_wide_scenario_shape_is_exact():
    doc = wide_scenario(5)
    kinds = [e["kind"] for e in doc["events"]]
    assert len(kinds) == 900
    assert len(doc["messages"]) == 180
    assert kinds.count("send") == 200
    assert kinds.count("choice") == len(doc["guards"]) == 110
    assert len(doc["branches"]) == 27
    assert wide_scenario(5) == doc


def test_sizes_repeat_per_seed():
    lib = run.load_library()
    for cls in (FuzzSweep, SimulateWide, CheckWide):
        a, b = cls(11), cls(11)
        a.setup(lib)
        b.setup(lib)
        assert [a.size(i) for i in range(5)] == [b.size(i) for i in range(5)]


def test_tracer_restores_every_wrapped_function():
    lib = run.load_library()
    modules = [lib.simulator, lib.monitor, lib.denot, lib.lang, lib.msc.Msc,
               lib.monitor.MessagePayload]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    install(tracer, lib)
    assert lib.simulator.sat_table is not before[0]["sat_table"]
    tracer.uninstall()
    for m, old in zip(modules, before):
        for name, value in old.items():
            assert vars(m)[name] is value, name


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_are_the_declared_ones(workload):
    r = result(bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in r["metrics"].values())


DETERMINISTIC = (
    "payload_bytes_mean", "payload_bytes_max", "monitor.wire_bytes",
    "monitor.events", "monitor.eval_calls_per_pair",
    "monitor.rows_adopted_per_recv", "denot.sat_table_calls",
    "denot.sat_table_useful_ratio", "simulator.bfs_useful_ratio",
    "simulator.appended_events", "trace.parse_calls", "msc.validate_calls",
    "msc.analysis_calls", "lang.parse_calls", "lang.subformulas",
)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_and_account_for_the_time(workload):
    args = ("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    counts = [k for k in declared if k in DETERMINISTIC or k.endswith(".source_lines")]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }
    assert first["metrics"]["trace_coverage"]["value"] > 0.95


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
        )
    proc = bench("--workload", "fuzz_sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_failed_operation_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(
        run.WORKLOADS, "fuzz_sweep",
        lambda seed: FuzzSweep(seed, "swap-merge-order", params=TINY_FUZZ),
    )
    code = run.main(["--workload", "fuzz_sweep", "--seed", "7", "--seconds", "1"])
    r = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not r["correct"] and 0 < r["failed"] <= r["attempted"]
