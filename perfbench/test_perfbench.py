"""Tests of the benchmark itself: seeded inputs and output checks.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.
"""

import json
import sys

import numpy as np
import pytest

import common
import run


def test_same_seed_gives_identical_query_streams():
    assert np.array_equal(common.query_stream(7, 500), common.query_stream(7, 500))
    assert np.array_equal(common.warmup_stream(7, 50), common.warmup_stream(7, 50))
    assert not np.array_equal(common.query_stream(7, 500), common.query_stream(8, 500))


def test_query_stream_is_uniform_over_targets():
    ids = common.query_stream(0, 20000)
    assert ids.min() >= 0 and ids.max() < common.DBLP["num_authors"]
    # no id is hot enough for an answer cache to matter
    assert np.bincount(ids).max() < 20


def test_same_seed_gives_identical_delta_streams():
    first, again = common.event_stream(3, 6), common.event_stream(3, 6)
    for a, b in zip(first, again):
        assert np.array_equal(a["src"], b["src"])
        assert np.array_equal(a["dst"], b["dst"])
        assert all(np.array_equal(x, y) for x, y in zip(a["reads"], b["reads"]))
    other = common.event_stream(4, 6)
    assert not np.array_equal(first[0]["src"], other[0]["src"])


def test_events_are_publication_shaped_and_reads_cover_touched_authors():
    for event in common.event_stream(0, 10):
        assert event["src"].size == common.EDGES_PER_EVENT
        papers = np.unique(event["dst"])
        assert papers.size <= common.EDGES_PER_EVENT // common.AUTHORS_PER_PAPER
        assert papers.max() < common.DBLP["num_papers"]
        for ids in event["reads"]:
            assert ids.size == common.READ_SIZE
            assert set(event["src"].tolist()) <= set(ids.tolist())


def test_output_check_trips_on_a_corrupted_answer():
    expected = np.array([0, 1, 2, 3, 1, 0])
    ids = np.array([5, 1, 3])
    answers = expected[ids].copy()
    assert common.wrong_answers(ids, answers, expected) == 0
    answers[1] = (answers[1] + 1) % 4
    assert common.wrong_answers(ids, answers, expected) == 1
    assert common.wrong_answers(ids, answers[:2], expected) == ids.size


def test_read_and_generation_checks_trip():
    ids = np.arange(4)
    assert common.valid_read(ids, np.array([0, 3, 2, 1]), 4)
    assert not common.valid_read(ids, np.array([0, 4, 2, 1]), 4)
    assert not common.valid_read(ids, np.array([0, 1, 2]), 4)
    assert not common.valid_read(ids, np.array([0.0, 1.0, 2.0, 3.0]), 4)
    assert common.generation_step_ok(3, 4)
    assert not common.generation_step_ok(3, 3)
    assert not common.generation_step_ok(3, 5)


def test_tail_needs_ten_samples_beyond_it():
    assert common.tail(list(range(19))) is None
    pct, _ = common.tail(list(range(2400)))
    assert pct == pytest.approx(99.5)
    assert 2400 * (1 - pct / 100) >= 10


def _fake_workload(wrong):
    def workload(seed, seconds, tracer=None):
        return {
            "metrics": {name: 1.0 for name in run.END_TO_END_UNITS},
            "attempted": 3, "failed": 0, "wrong": wrong,
        }
    return workload


@pytest.mark.parametrize("wrong", [0, 1])
def test_a_failed_check_reports_failure_not_numbers(monkeypatch, capsys, wrong):
    monkeypatch.setitem(run.WORKLOADS, "query_point", _fake_workload(wrong))
    monkeypatch.setattr(common, "reference_kernel", lambda: 0.0)
    monkeypatch.setattr(
        sys, "argv",
        ["run.py", "--workload", "query_point", "--seed", "1", "--trace", "0"],
    )
    code = run.main()
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    if wrong:
        assert code == 1 and result["correct"] is False
        assert result["metrics"] == {}
    else:
        assert code == 0 and result["correct"] is True
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_end_to_end_units_match_benchmark_json():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    from layers import LAYER_METRICS

    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
