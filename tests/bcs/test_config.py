"""Unit tests for BcsConfig validation and derived quantities."""

import pytest

from repro.bcs import BcsConfig
from repro.units import us


def test_defaults_match_paper():
    cfg = BcsConfig()
    assert cfg.timeslice == us(500)
    # DEM + MSM = the paper's ~125 us scheduling phase.
    assert cfg.scheduling_duration == us(125)


def test_transmission_budget():
    cfg = BcsConfig()
    assert cfg.transmission_budget() == cfg.timeslice - cfg.scheduling_duration


def test_p2p_budget_scales_with_bandwidth():
    cfg = BcsConfig()
    low = cfg.p2p_slice_budget_bytes(100e6)
    high = cfg.p2p_slice_budget_bytes(300e6)
    assert high > low > 0


def test_p2p_budget_honours_chunk_cap():
    cfg = BcsConfig(max_chunk_bytes=1024)
    assert cfg.p2p_slice_budget_bytes(300e6) == 1024


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        BcsConfig(timeslice=0)
    with pytest.raises(ValueError):
        BcsConfig(timeslice=us(100), dem_min_duration=us(65), msm_min_duration=us(60))
    with pytest.raises(ValueError):
        BcsConfig(p2p_budget_fraction=0.0)
    with pytest.raises(ValueError):
        BcsConfig(nm_compute_tax=-0.1)


@pytest.mark.parametrize(
    "field",
    [
        "dem_min_duration",
        "msm_min_duration",
        "descriptor_bytes",
        "strobe_bytes",
        "descriptor_post_cost",
        "nic_descriptor_cost",
        "nic_reduce_cost_per_element",
        "max_chunk_bytes",
        "init_cost",
    ],
)
def test_negative_sizes_and_durations_rejected(field):
    # A negative chunk cap used to schedule 1-byte chunks silently.
    with pytest.raises(ValueError, match=field):
        BcsConfig(**{field: -4096})
    BcsConfig(**{field: 0})


def test_with_replaces_fields():
    cfg = BcsConfig().with_(timeslice=us(250), init_cost=0)
    assert cfg.timeslice == us(250)
    assert cfg.init_cost == 0
    # Original untouched (frozen dataclass semantics).
    assert BcsConfig().timeslice == us(500)
