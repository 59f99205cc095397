"""The scaling study's one timed point: fast path vs the reference."""

import gc

import pytest

from repro.harness import scaling


@pytest.fixture(autouse=True)
def _restore_gc():
    """``scaling_point`` tunes the collector for a throwaway process."""
    threshold = gc.get_threshold()
    yield
    gc.unfreeze()
    gc.set_threshold(*threshold)


def test_scaling_point_times_both_paths():
    row = scaling.scaling_point(
        "bluegene_l_torus", n_nodes=16, active_ranks=4, iterations=2, reps=1
    )
    assert row["n_nodes"] == 16 and row["active_ranks"] == 4
    assert row["slices"] > 0 and row["virtual_ms"] > 0
    for column in ("speedup", "slices_per_sec", "reference_slices_per_sec", "peak_rss_mib"):
        assert row[column] > 0
    assert row["gc_collections"] >= 0


def test_scaling_point_refuses_a_diverging_reference(monkeypatch):
    timed_run = scaling._timed_run

    def skewed(*args):
        virtual_ns, slices, wall_s, collections = timed_run(*args)
        reference = args[-1]
        return virtual_ns + reference, slices, wall_s, collections

    monkeypatch.setattr(scaling, "_timed_run", skewed)
    with pytest.raises(AssertionError, match="diverged from the reference"):
        scaling.scaling_point(n_nodes=16, active_ranks=4, iterations=2, reps=1)
