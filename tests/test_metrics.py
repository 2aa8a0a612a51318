"""Monitoring plane: workload shapes, scrape responses, scaling, CSV I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loopsim import metrics, sdi
from loopsim.errors import ConfigError
from loopsim.metrics import (Dataset, DatasetFormatError, EmptyDatasetError, MetricName,
                             WorkloadProfile, WorkloadSegment, build_metric_catalog,
                             export_csv, generate_workload, import_csv, normalize_minmax,
                             preset_workload, resample_mean, scrape, scrape_series,
                             split_chronological)


@pytest.fixture(scope="module")
def testbed():
    return sdi.build_topology("testbed")


@pytest.fixture(scope="module")
def catalog(testbed):
    return build_metric_catalog(testbed, seed=11)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def test_constant_profile_zero_noise():
    profile = WorkloadProfile(duration=60.0, base_rate=10.0)
    ts = generate_workload(profile)
    assert len(ts.values) == 60
    assert np.all(ts.values == 10.0)


def test_ramp_is_linear():
    profile = WorkloadProfile(duration=100.0, base_rate=0.0,
                              segments=(WorkloadSegment(0.0, 100.0, "ramp", 100.0),))
    ts = generate_workload(profile)
    assert ts.values[50] == 50.0
    assert ts.values[0] == 0.0
    assert ts.values[99] == 99.0


def test_ramp_holds_level_after_end():
    profile = WorkloadProfile(duration=20.0, base_rate=5.0,
                              segments=(WorkloadSegment(0.0, 10.0, "ramp", 10.0),))
    ts = generate_workload(profile)
    assert np.all(ts.values[10:] == 15.0)


def test_burst_is_zero_outside_window():
    profile = WorkloadProfile(duration=30.0, base_rate=1.0,
                              segments=(WorkloadSegment(10.0, 20.0, "burst", 8.0),))
    ts = generate_workload(profile)
    assert np.all(ts.values[:10] == 1.0)
    assert np.all(ts.values[20:] == 1.0)
    assert ts.values[15] == pytest.approx(9.0)  # sin^2 peak


def test_preset_determinism_bit_identical():
    a = generate_workload(preset_workload("bursty30min", seed=7))
    b = generate_workload(preset_workload("bursty30min", seed=7))
    assert a.values.tobytes() == b.values.tobytes()
    assert len(a.values) == 1800


def test_different_seed_changes_noise():
    a = generate_workload(preset_workload("bursty30min", seed=7))
    b = generate_workload(preset_workload("bursty30min", seed=8))
    assert a.values.tobytes() != b.values.tobytes()


def test_overlapping_constant_segments_rejected():
    with pytest.raises(ConfigError, match="contradictory"):
        WorkloadProfile(duration=100.0, segments=(
            WorkloadSegment(0.0, 50.0, "constant", 5.0),
            WorkloadSegment(40.0, 80.0, "constant", 9.0),
        ))


def test_segment_outside_duration_rejected():
    with pytest.raises(ConfigError, match="within"):
        WorkloadProfile(duration=10.0, segments=(
            WorkloadSegment(5.0, 20.0, "constant", 1.0),))


def test_resample_mean():
    ts = metrics.TimeSeries(MetricName("workload.requests", "x"),
                            np.arange(120.0), np.arange(120.0))
    per_min = resample_mean(ts, 60.0)
    assert len(per_min.values) == 2
    assert per_min.values[0] == pytest.approx(np.mean(np.arange(60)))


# ---------------------------------------------------------------------------
# Scrape
# ---------------------------------------------------------------------------

def test_catalog_width_is_111_on_testbed(catalog):
    assert catalog.width == 111
    assert len(set(catalog.names)) == 111
    families = {m.family for m in catalog.entries}
    assert len(families) == 9


def test_scrape_frame_width(testbed, catalog):
    frame = scrape(testbed, 50.0, catalog, 3.0)
    assert frame.values.shape == (111,)


def test_scrape_purity(testbed, catalog):
    a = scrape(testbed, 42.0, catalog, 17.0)
    b = scrape(testbed, 42.0, catalog, 17.0)
    assert a.values.tobytes() == b.values.tobytes()


def test_zero_workload_zero_alloc_hits_baseline(testbed):
    catalog = build_metric_catalog(testbed, seed=5)
    catalog.noise_scale[:] = 0.0  # isolate the deterministic response
    frame = scrape(testbed, 0.0, catalog, 0.0)
    assert np.allclose(frame.values, catalog.baseline)


def test_workload_coupling_is_linear_before_saturation(testbed):
    catalog = build_metric_catalog(testbed, seed=5)
    catalog.noise_scale[:] = 0.0
    base = scrape(testbed, 0.0, catalog, 0.0).values
    low = scrape(testbed, 20.0, catalog, 0.0).values
    high = scrape(testbed, 40.0, catalog, 0.0).values
    capped = ~np.isnan(catalog.cap)
    free = ~capped | (high < catalog.cap - 1e-9)
    assert np.allclose((high - base)[free], 2.0 * (low - base)[free])


def test_allocations_move_cpu_metrics(testbed, catalog):
    state = sdi.clone_state(testbed)
    before = scrape(state, 10.0, catalog, 5.0).values
    sdi.allocate(state, "waterloo-vm6", sdi.ResourceVector(cpu=4000), "load")
    after = scrape(state, 10.0, catalog, 5.0).values
    idx = catalog.names.index("node.cpu@waterloo-vm6")
    assert after[idx] > before[idx]


def test_scrape_series_matches_pointwise(testbed, catalog):
    wl = generate_workload(WorkloadProfile(duration=5.0, base_rate=30.0))
    ds = scrape_series(testbed, wl, catalog)
    assert ds.values.shape == (5, 111)
    again = scrape(testbed, wl.values[3], catalog, wl.t[3])
    assert ds.values[3].tobytes() == again.values.tobytes()


def test_frame_sequence_bit_identical_for_equal_inputs(testbed):
    # Same (profile, seed, catalog, topology) -> bit-identical dataset.
    def one():
        catalog = build_metric_catalog(testbed, seed=23)
        wl = generate_workload(preset_workload("bursty30min", seed=5))
        return scrape_series(testbed, wl, catalog).values.tobytes()

    assert one() == one()


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_simple_column():
    ds = Dataset(("m@x",), np.arange(3.0), np.array([[0.0], [5.0], [10.0]]))
    ds01, scaler = normalize_minmax(ds)
    assert np.allclose(ds01.values[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(scaler.inverse(ds01.values), ds.values)


def test_normalize_constant_column_maps_to_half():
    ds = Dataset(("m@x",), np.arange(3.0), np.array([[3.0], [3.0], [3.0]]))
    ds01, scaler = normalize_minmax(ds)
    assert np.all(ds01.values == 0.5)
    assert np.allclose(scaler.inverse(ds01.values), 3.0)


def test_normalize_empty_rejected():
    ds = Dataset(("m@x",), np.empty(0), np.empty((0, 1)))
    with pytest.raises(EmptyDatasetError):
        normalize_minmax(ds)


@settings(max_examples=40, deadline=None)
@given(values=arrays(np.float64, (7, 5),
                     elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_normalize_roundtrip_property(values):
    ds = Dataset(tuple(f"m.v@{i}" for i in range(5)), np.arange(7.0), values)
    ds01, scaler = normalize_minmax(ds)
    assert np.all(ds01.values >= 0.0) and np.all(ds01.values <= 1.0)
    back = scaler.inverse(ds01.values)
    # 1e-12 relative to the data scale (column span or element magnitude).
    span = (scaler.hi - scaler.lo)[None, :]
    scale = np.maximum(np.maximum(np.abs(values), span), 1.0)
    assert np.all(np.abs(back - values) <= 1e-12 * scale)


def test_roundtrip_on_scraped_111(testbed, catalog):
    wl = generate_workload(preset_workload("bursty30min", seed=3))
    ds = scrape_series(testbed, wl, catalog)
    ds01, scaler = normalize_minmax(ds)
    back = scaler.inverse(ds01.values)
    scale = np.maximum(np.abs(ds.values), 1.0)
    assert np.max(np.abs(back - ds.values) / scale) < 1e-12


def test_split_chronological():
    ds = Dataset(("m@x",), np.arange(10.0), np.arange(10.0)[:, None])
    train, val = split_chronological(ds, 0.8)
    assert train.split == "training" and val.split == "validation"
    assert len(train.t) == 8 and len(val.t) == 2
    assert val.values[0, 0] == 8.0


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_roundtrip_exact(tmp_path, testbed, catalog):
    wl = generate_workload(preset_workload("bursty30min", seed=9))
    ds = scrape_series(testbed, wl, catalog)
    path = tmp_path / "ds.csv"
    export_csv(ds, path)
    back = import_csv(path, expected_width=catalog.width)
    assert back.names == ds.names
    assert np.max(np.abs(back.values - ds.values)) == 0.0  # repr round-trips
    assert np.all(back.t == ds.t)


def test_csv_roundtrip_quotes_metric_names(tmp_path):
    """A node id with a comma survives catalog -> scrape -> export -> import."""
    topo = sdi.build_topology({
        "nodes": [{"id": "a,b", "region": "west", "tier": "edge", "cpu": 4000},
                  {"id": "c", "region": "west", "tier": "edge", "cpu": 4000}],
        "links": [{"a": "a,b", "b": "c", "bandwidth": 1000, "latency": 1.0}],
    })
    catalog = build_metric_catalog(topo, seed=5)
    assert any("a,b" in name for name in catalog.names)
    ds = scrape_series(topo, generate_workload(
        WorkloadProfile("flat", 5.0, 40.0, (), noise=0.0, seed=1)), catalog)
    path = tmp_path / "ds.csv"
    assert export_csv(ds, path) == len(ds.t)
    back = import_csv(path, expected_width=catalog.width)
    assert back.names == ds.names
    assert back.values.tobytes() == ds.values.tobytes()
    assert back.t.tobytes() == ds.t.tobytes()


def test_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,a@x,b@x\n0.0,1.0,2.0\n1.0,3.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        import_csv(path)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        import_csv(path)


def test_csv_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("timestamp,a@x\n")
    with pytest.raises(EmptyDatasetError):
        import_csv(path)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("timestamp,a@x\n0.0,banana\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        import_csv(path)


def test_csv_width_mismatch(tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("timestamp,a@x\n0.0,1.0\n")
    with pytest.raises(DatasetFormatError, match="width"):
        import_csv(path, expected_width=3)
