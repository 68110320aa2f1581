"""Golden-value regression tests for the performance side of the repo.

``tests/golden/perf_small.json`` pins, for every registered workload
profile (the 38 paper benchmarks plus ``zipfian`` and ``bursty``):

* a sha256 over the ``(gap_cycles, is_write, line address)`` triples of
  its rate-mode traces, so the generator's request streams stay
  byte-identical;
* the whole ``PerfResult`` of those traces under each ``repro perf``
  organization;

and the whole ``repro replay --json`` documents of three co-simulation
runs (Citadel on ``zipfian``, Citadel on ``bursty`` with ``--thermal``,
3DP + TSV-Swap + DDS on ``mcf``).  A change to the trace generator, the
address map, the perf simulator or the perturbation hook that moves any
of these fails here.  Legitimately intended changes are re-pinned with::

    PYTHONPATH=src python tools/regen_goldens.py
"""

import json
from pathlib import Path

import pytest

from repro.stack.geometry import StackGeometry
from tools.regen_goldens import (
    PERF_CORES,
    PERF_REQUESTS_PER_CORE,
    PERF_SEED,
    REPLAY_FLAGS,
    perf_documents,
    replay_documents,
)

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "perf_small.json").read_text()
)


@pytest.fixture(scope="module")
def documents():
    return perf_documents(StackGeometry())


def test_golden_shape_matches_the_generator_settings():
    assert (GOLDEN["cores"], GOLDEN["requests_per_core"], GOLDEN["seed"]) == (
        PERF_CORES, PERF_REQUESTS_PER_CORE, PERF_SEED
    )
    assert GOLDEN["replay_flags"] == list(REPLAY_FLAGS)


def test_every_profile_is_pinned(documents):
    assert sorted(documents) == sorted(GOLDEN["profiles"])
    assert len(documents) == 40


def test_traces_match_golden(documents):
    drifted = [
        name
        for name, document in documents.items()
        if document["trace_sha256"] != GOLDEN["profiles"][name]["trace_sha256"]
    ]
    assert drifted == [], (
        f"generated traces drifted from the golden for {drifted}; if this "
        f"change is intended, regenerate with tools/regen_goldens.py"
    )


def test_perf_results_match_golden(documents):
    for name, document in documents.items():
        expected = GOLDEN["profiles"][name]["perf"]
        assert sorted(document["perf"]) == sorted(expected)
        for config, result in document["perf"].items():
            assert result == expected[config], f"{name} under {config}"


def test_replay_documents_match_golden():
    documents = replay_documents()
    assert sorted(documents) == sorted(GOLDEN["replay"])
    for key, document in documents.items():
        assert document == GOLDEN["replay"][key], key
