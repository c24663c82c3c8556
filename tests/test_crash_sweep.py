"""Five kill points of the SIGKILL crash sweep; `tests/crash_sweep.py`
runs every one. Each point names the kind of call it kills after, so a
change to the order of calls shows here instead of moving the points."""

import pytest

import crash_sweep

POINTS = [
    # ingest's third output opened and truncated, in `ingest.tmp`
    ("fresh", 5, "open"),
    # ingest's record half written to `ingest.tmp/cache-manifest.json`
    ("fresh", 7, "open"),
    # an older ingest moved to `ingest.old`; the new one not yet in place
    ("rebuild", 8, "replace"),
    # the new ingest and its record in place beside `ingest.old`: the next
    # run is a hit and still removes `ingest.old`
    ("rebuild", 9, "replace"),
    # `ingest.old` removed; the scratch directory is already gone
    ("rebuild", 10, "rmtree"),
]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return crash_sweep.Sweep(tmp_path_factory.mktemp("crash-sweep"))


@pytest.mark.parametrize("scenario, k, kind", POINTS)
def test_next_run_finishes_a_killed_one(sweep, scenario, k, kind):
    assert sweep.kinds[scenario][k - 1] == kind
    assert sweep.check(scenario, k) == []
