"""LoadMonitor: EWMA smoothing, hysteresis, cooldown."""

import pytest

from repro.adapt import LoadMonitor
from repro.adapt.monitor import imbalance_of


def test_imbalance_of_basics():
    assert imbalance_of([1.0, 1.0, 1.0]) == 1.0
    assert imbalance_of([2.0, 1.0, 1.0]) == pytest.approx(1.5)
    # the Timeline.imbalance() zero-load convention
    assert imbalance_of([0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        imbalance_of([])


def test_monitor_validation():
    with pytest.raises(ValueError):
        LoadMonitor(0)
    with pytest.raises(ValueError):
        LoadMonitor(4, alpha=0.0)
    with pytest.raises(ValueError):
        LoadMonitor(4, alpha=1.5)
    with pytest.raises(ValueError):
        LoadMonitor(4, drift_threshold=0.9)
    with pytest.raises(ValueError):
        LoadMonitor(4, hysteresis=-0.1)
    with pytest.raises(ValueError):
        LoadMonitor(4, cooldown=-1)
    with pytest.raises(ValueError):
        LoadMonitor(2).observe([1.0, 1.0, 1.0])


def test_ewma_smooths_single_spike():
    # alpha=0.5: one spiked window must not trip a threshold the
    # smoothed signal never reaches
    mon = LoadMonitor(2, alpha=0.5, drift_threshold=1.4, hysteresis=0.05)
    mon.observe([1.0, 1.0])
    sample = mon.observe([3.0, 1.0])  # raw imbalance 1.5
    assert sample.imbalance == pytest.approx(1.5)
    assert sample.ewma == pytest.approx(0.5 * 1.5 + 0.5 * 1.0)
    assert not sample.drifting


def test_hysteresis_band_prevents_thrash():
    # alpha=1.0 makes the EWMA track the raw signal exactly, so the
    # hysteresis band is the only filter in play
    mon = LoadMonitor(2, alpha=1.0, drift_threshold=1.2, hysteresis=0.1)
    below = mon.observe([1.3, 1.0])                # 1.13 < 1.2: stays off
    assert not below.drifting
    on = mon.observe([2.0, 1.0])                   # imbalance 4/3 > 1.2
    assert on.drifting
    # inside the band (threshold - hysteresis, threshold]: stays ON
    inside = mon.observe([1.3, 1.0])               # 1.13 > 1.2 - 0.1
    assert inside.drifting
    # below the band: turns OFF
    off = mon.observe([1.0, 1.0])
    assert not off.drifting


def test_cooldown_suppresses_verdict_then_expires():
    mon = LoadMonitor(2, alpha=1.0, drift_threshold=1.1, cooldown=2)
    assert mon.observe([2.0, 1.0]).drifting
    mon.notify_replanned()
    s1 = mon.observe([2.0, 1.0])
    assert s1.in_cooldown and not s1.drifting
    s2 = mon.observe([2.0, 1.0])
    assert s2.in_cooldown and not s2.drifting
    s3 = mon.observe([2.0, 1.0])
    assert not s3.in_cooldown and s3.drifting


def test_streak_counts_trailing_windows_only():
    mon = LoadMonitor(2, alpha=1.0, drift_threshold=1.5)
    mon.observe([2.0, 1.0])   # 1.33 > 1.2
    mon.observe([1.0, 1.0])   # 1.0: breaks the streak
    mon.observe([2.0, 1.0])
    mon.observe([2.2, 1.0])
    assert mon.streak(1.2) == 2
    assert mon.streak(2.0) == 0
    assert mon.imbalance_series() == pytest.approx(
        [4.0 / 3.0, 1.0, 4.0 / 3.0, 2.2 / 1.6]
    )


def test_sample_json_round_trips_cleanly():
    mon = LoadMonitor(2)
    sample = mon.observe([2.0, 1.0])
    doc = sample.to_json()
    assert doc["busy"] == [2.0, 1.0]
    assert doc["index"] == 0
    assert set(doc) == {
        "index", "busy", "imbalance", "ewma", "drifting", "in_cooldown"
    }
