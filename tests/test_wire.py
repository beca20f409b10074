"""The payload wire format across a byte boundary: every emitted payload
survives the round trip, the decoder fails only with ``MonitorError``,
and replays whose receives get payloads decoded from bytes log exactly
what in-memory replays log. A run encodes nothing: the sizes its log
prints are those of the payloads as emitted, which no later event
changes."""

import copy
import json
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplkit import simulator
from cplkit.fixtures import fixture_path
from cplkit.monitor import MUTATIONS, MessagePayload, MonitorError
from cplkit.simulator import fuzz_sweep, load_scenario, run_scenario

from scenarios import FIXTURES, gen_scenario, replays
from test_acceptance import SWEEP_PARAMS


@contextmanager
def payloads_via_wire():
    """Within the block, the replay step of ``run_scenario`` and of
    ``differential_check`` hands every receive the payload decoded from the
    bytes of its JSON encoding, and each decoded payload must equal the one
    emitted. Every cone of a run has the same widths, so the sender's are
    the receiver's."""
    finish = simulator.finish_event

    def finish_via_wire(s, d):
        sent = finish(s, d)
        if sent is None:
            return None
        data = json.dumps(sent.to_wire()).encode("utf-8")
        received = MessagePayload.from_wire(json.loads(data), s.cone.widths)
        assert received == sent
        return received

    with mock.patch.object(simulator, "finish_event", finish_via_wire):
        yield


@contextmanager
def emitted_payloads():
    """Within the block, every payload ``run_scenario`` emits is recorded,
    in emission order, with a deep copy of it and the length of its
    canonical JSON encoding, both taken when it is emitted."""
    finish = simulator.finish_event
    sent = []

    def recording(s, d):
        p = finish(s, d)
        if p is not None:
            size = len(json.dumps(p.to_wire(), sort_keys=True, separators=(",", ":")))
            sent.append((p, copy.deepcopy(p), size))
        return p

    with mock.patch.object(simulator, "finish_event", recording):
        yield sent


def test_printed_sizes_are_the_sizes_at_emission():
    sends = 0
    for sc, seed in replays():
        with emitted_payloads() as sent:
            log = run_scenario(sc, sc.guard_set(), seed)
        records = log.to_dict()["records"]
        sizes = [r["payload_bytes"] for r in records if r["kind"] == "send"]
        assert sizes == [n for _, _, n in sent], (seed, sc.guard_texts)
        assert all("payload_bytes" not in r for r in log.records)
        sends += len(sent)
    assert sends > 500


def test_no_published_row_changes_during_a_run():
    for sc, seed in replays():
        with emitted_payloads() as sent:
            log = run_scenario(sc, sc.guard_set(), seed)
        assert [p for p, _, _ in sent] == list(log.payloads.values())
        for p, at_emission, _ in sent:
            assert p == at_emission, (seed, sc.guard_texts)


def same_log_via_wire(sc, seed):
    g = sc.guard_set()
    in_memory = run_scenario(sc, g, seed).to_dict()
    with payloads_via_wire():
        assert run_scenario(sc, g, seed).to_dict() == in_memory
    return in_memory


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_emitted_payloads_survive_the_byte_round_trip(seed):
    sc = load_scenario(gen_scenario(seed))
    with payloads_via_wire():
        run_scenario(sc, sc.guard_set(), seed)


def test_fixture_replays_via_wire_log_the_same():
    for name in FIXTURES:
        sc = load_scenario(fixture_path(name))
        for seed in range(10):
            assert any("payload_bytes" in r for r in same_log_via_wire(sc, seed)["records"])


def test_generated_replays_via_wire_log_the_same():
    scenarios = verdicts = 0
    for seed in range(400):
        sc = load_scenario(gen_scenario(seed))
        if not sc.guard_texts:
            continue
        log = same_log_via_wire(sc, seed)
        scenarios += 1
        verdicts += sum("verdict" in r for r in log["records"])
        if scenarios == 200:
            break
    assert scenarios == 200 and verdicts > 400


def test_differential_check_on_payloads_decoded_from_bytes():
    """Acceptance-size instances pass the differential check when every
    receive gets its payload back from bytes, and each mutation still
    diverges."""
    with payloads_via_wire(), emitted_payloads() as sent:
        report = fuzz_sweep(SWEEP_PARAMS, seeds=200, extensions=2, keep_going=True)
    assert report.ok and report.runs == 400, report.to_dict()
    assert len(sent) > 800
    for mutation in MUTATIONS:
        with payloads_via_wire():
            assert not fuzz_sweep(SWEEP_PARAMS, seeds=200, extensions=1, mutation=mutation).ok


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# Payload-shaped objects whose parts are often, but not always, well formed,
# so that the decoder's later checks are reached too.
NAMES = st.sampled_from(["A", "B", ""]) | st.text(max_size=2)
ROWS = st.text("0123456789abcdefABx_-+ \n", max_size=6) | st.integers() | JSON
VALUES = st.dictionaries(st.sampled_from(["int", "str", "bool"]), JSON, max_size=2)
VALUATIONS = st.dictionaries(NAMES, VALUES | JSON, max_size=3)
NEAR_PAYLOADS = st.fixed_dictionaries(
    {
        "vc": st.dictionaries(NAMES, st.integers(-2, 3) | JSON, max_size=3) | JSON,
        "view": st.dictionaries(NAMES, ROWS, max_size=3) | JSON,
        "var": st.dictionaries(NAMES, VALUATIONS | JSON, max_size=3) | JSON,
    },
    optional={"payload": JSON},
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(JSON, NEAR_PAYLOADS), st.dictionaries(NAMES, st.integers(0, 70), max_size=3))
def test_from_wire_raises_only_monitor_error(data, widths):
    try:
        MessagePayload.from_wire(data, widths)
    except MonitorError:
        pass


def test_from_wire_names_the_lifeline_and_variable_of_a_bad_value():
    data = {
        "vc": {"A": 1},
        "view": {"A": "0"},
        "var": {"A": {"x": {"int": 99999999999999999999}}},
    }
    with pytest.raises(MonitorError) as exc:
        MessagePayload.from_wire(data, {"A": 1})
    assert str(exc.value) == (
        "var of 'A': variable 'x': int value out of 64-bit range: 99999999999999999999"
    )
