"""Five kill points of the SIGKILL crash sweep; `tests/crash_sweep.py`
runs every one. Each point names the kind of call it kills after, so a
change to the order of calls shows here instead of moving the points."""

import pytest

import crash_sweep

POINTS = [
    # ingest's second output opened and truncated, in `ingest.tmp`
    ("fresh", 5, "open"),
    # ingest's manifest entry half written to `cache-manifest.json.tmp`
    ("fresh", 13, "open"),
    # an older ingest moved to `ingest.old`; the new one not yet in place
    ("rebuild", 10, "replace"),
    # the new ingest in place beside `ingest.old`; no entry recorded
    ("rebuild", 11, "replace"),
    # `ingest.old` removed; no entry recorded
    ("rebuild", 12, "rmtree"),
]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return crash_sweep.Sweep(tmp_path_factory.mktemp("crash-sweep"))


@pytest.mark.parametrize("scenario, k, kind", POINTS)
def test_next_run_finishes_a_killed_one(sweep, scenario, k, kind):
    assert sweep.kinds[scenario][k - 1] == kind
    assert sweep.check(scenario, k) == []
