"""Monitoring plane: synthetic workloads, metric scraping, datasets.

A metric catalog pins a fixed-width frame layout for a topology. Scraping is
a pure function of (state, workload value, catalog, t): per-metric responses
are linear couplings to the workload plus a low-dimensional correlated noise
field, so scraped datasets carry the cross-correlations that make learned
compression meaningful. All randomness is seeded; identical inputs give
bit-identical series.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .control import write_csv
from .errors import ConfigError
from .sdi import Topology

SCRAPE_INTERVAL_S = 1.0  # one frame per second, 1800 per 30-minute run
WORKLOAD_REF = 100.0  # req/s scale at which couplings are quoted
LATENT_DIM = 5  # shared latent factors behind the correlated frame noise
IID_FRAC = 0.15  # iid frame noise as a fraction of noise_scale


class DatasetFormatError(ConfigError):
    pass


class EmptyDatasetError(ConfigError):
    pass


@dataclass(frozen=True)
class MetricName:
    """A metric family scoped to one node or container, e.g. node.cpu@core-vm1."""

    family: str
    scope: str

    @property
    def full(self) -> str:
        return f"{self.family}@{self.scope}"

    def __post_init__(self):
        if "." not in self.family:
            raise ConfigError(f"metric family must be dot-namespaced: {self.family!r}")


@dataclass(frozen=True)
class MetricFrame:
    timestamp: float
    values: np.ndarray  # fixed order, one per catalog entry


@dataclass
class TimeSeries:
    metric: MetricName
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.t.shape != self.values.shape:
            raise ConfigError("time series t/values length mismatch")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ConfigError("time series timestamps must be strictly increasing")


@dataclass
class Dataset:
    """Rows are frames over time, columns follow the catalog order."""

    names: tuple[str, ...]
    t: np.ndarray
    values: np.ndarray
    split: str | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape != (len(self.t), len(self.names)):
            raise ConfigError("dataset shape does not match names/timestamps")

    @property
    def width(self) -> int:
        return len(self.names)

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.names.index(name)
        except ValueError:
            raise ConfigError(f"no such metric column {name!r}") from None
        return self.values[:, idx]


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

SEGMENT_SHAPES = ("constant", "ramp", "burst")


@dataclass(frozen=True)
class WorkloadSegment:
    start: float
    end: float
    shape: str  # constant | ramp | burst
    amplitude: float

    def __post_init__(self):
        if self.shape not in SEGMENT_SHAPES:
            raise ConfigError(f"unknown segment shape {self.shape!r}")
        if self.end <= self.start:
            raise ConfigError("segment end must be after start")


@dataclass(frozen=True)
class WorkloadProfile:
    """Piecewise traffic envelope. Segment semantics:

    - constant: adds amplitude inside [start, end)
    - ramp: rises linearly 0 -> amplitude over [start, end), then holds
      amplitude (ramp-to-new-level)
    - burst: a sin^2 pulse peaking at amplitude inside [start, end)

    Noise multiplies each sample by (1 + noise * u), u uniform in [-1, 1]
    from the profile seed; samples clamp at zero.
    """

    name: str = "custom"
    duration: float = 1800.0
    base_rate: float = 0.0
    segments: tuple[WorkloadSegment, ...] = ()
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError("profile duration must be > 0")
        if self.base_rate < 0 or self.noise < 0:
            raise ConfigError("profile rates must be >= 0")
        constants = [s for s in self.segments if s.shape == "constant"]
        for i, a in enumerate(constants):
            for b in constants[i + 1:]:
                if a.start < b.end and b.start < a.end:
                    raise ConfigError(
                        f"contradictory overlapping constant segments "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})")
        for s in self.segments:
            if s.start < 0 or s.end > self.duration:
                raise ConfigError("segments must lie within [0, duration]")


def _segment_contribution(seg: WorkloadSegment, t: np.ndarray) -> np.ndarray:
    inside = (t >= seg.start) & (t < seg.end)
    if seg.shape == "constant":
        return np.where(inside, seg.amplitude, 0.0)
    if seg.shape == "ramp":
        frac = (t - seg.start) / (seg.end - seg.start)
        ramped = np.where(t >= seg.end, seg.amplitude, 0.0)
        return np.where(inside, frac * seg.amplitude, ramped)
    # burst
    phase = (t - seg.start) / (seg.end - seg.start)
    return np.where(inside, seg.amplitude * np.sin(np.pi * phase) ** 2, 0.0)


def generate_workload(profile: WorkloadProfile) -> TimeSeries:
    """Deterministic request-rate series, one sample per scrape interval."""
    n = int(round(profile.duration / SCRAPE_INTERVAL_S))
    t = np.arange(n, dtype=float) * SCRAPE_INTERVAL_S
    values = np.full(n, profile.base_rate, dtype=float)
    for seg in profile.segments:
        values = values + _segment_contribution(seg, t)
    if profile.noise > 0:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(profile.seed)))
        u = rng.uniform(-1.0, 1.0, size=n)
        values = values * (1.0 + profile.noise * u)
    values = np.maximum(values, 0.0)
    return TimeSeries(MetricName("workload.requests", profile.name), t, values)


def _bursty30min(seed: int) -> WorkloadProfile:
    """Thirty minutes of web traffic: warm-up ramp, three bursts, a settle
    ramp, then a steady tail (the tail doubles as the validation window)."""
    seg = WorkloadSegment
    return WorkloadProfile(
        name="bursty30min",
        duration=1800.0,
        base_rate=60.0,
        segments=(
            seg(0.0, 240.0, "ramp", 40.0),
            seg(350.0, 470.0, "burst", 90.0),
            seg(650.0, 720.0, "burst", 130.0),
            seg(800.0, 980.0, "ramp", -30.0),
            seg(1050.0, 1170.0, "burst", 80.0),
            seg(1250.0, 1330.0, "burst", 50.0),
        ),
        noise=0.04,
        seed=seed,
    )


def _periodic6h(seed: int) -> WorkloadProfile:
    """Six hours of periodic-plus-burst traffic for traffic prediction: a
    45-minute triangle wave with a burst every 90 minutes."""
    segments = []
    half = 1350.0  # half a triangle period
    amp = 40.0
    t0 = 0.0
    sign = 1.0
    while t0 < 21600.0:
        segments.append(WorkloadSegment(t0, t0 + half, "ramp", sign * amp))
        sign = -sign
        t0 += half
    for k in range(4):
        start = 2000.0 + k * 5400.0
        segments.append(WorkloadSegment(start, start + 300.0, "burst", 50.0))
    return WorkloadProfile(
        name="periodic6h",
        duration=21600.0,
        base_rate=80.0,
        segments=tuple(segments),
        noise=0.02,
        seed=seed,
    )


WORKLOAD_PRESETS = {
    "bursty30min": _bursty30min,
    "periodic6h": _periodic6h,
}


def preset_workload(name: str, seed: int) -> WorkloadProfile:
    try:
        return WORKLOAD_PRESETS[name](seed)
    except KeyError:
        raise ConfigError(f"unknown workload preset {name!r}; known: {sorted(WORKLOAD_PRESETS)}") from None


def resample_mean(ts: TimeSeries, bucket_s: float) -> TimeSeries:
    """Bucketed means (e.g. per-minute traffic from per-second samples).
    Trailing samples that do not fill a bucket are dropped."""
    if bucket_s <= 0:
        raise ConfigError("bucket must be > 0 seconds")
    per = int(round(bucket_s / SCRAPE_INTERVAL_S))
    n = (len(ts.values) // per) * per
    if n == 0:
        raise EmptyDatasetError("series shorter than one bucket")
    values = ts.values[:n].reshape(-1, per).mean(axis=1)
    t = ts.t[:n:per]
    return TimeSeries(ts.metric, t, values)


# ---------------------------------------------------------------------------
# Metric catalog and scraping
# ---------------------------------------------------------------------------

NODE_FAMILIES = ("node.cpu", "node.network.receive", "node.network.transmit")
CONTAINER_FAMILIES = ("container.memory.usage", "container.cpu.system",
                      "container.network.receive", "container.network.transmit")
HTTP_FAMILIES = ("http.request.size", "http.request.duration")

# Roles whose nodes host a container / serve HTTP in the scraped model.
CONTAINER_ROLES = ("loadbalancer", "firewall", "webserver")
HTTP_ROLES = ("loadbalancer", "webserver")

# Per-family response: value = base + coup * share * (W / WORKLOAD_REF)
#                              + alloc_gain * cpu_alloc_fraction * unit_cap
#                              + correlated + iid noise, clipped to [0, cap].
_FAMILY_RESPONSE = {
    "node.cpu": dict(base=(10.0, 25.0), coup=(20.0, 45.0), alloc_gain=25.0,
                     noise=1.0, cap=100.0),
    "node.network.receive": dict(base=(2e3, 8e3), coup=(2e5, 8e5), alloc_gain=0.0,
                                 noise=4e3, cap=None),
    "node.network.transmit": dict(base=(2e3, 8e3), coup=(2e5, 8e5), alloc_gain=0.0,
                                  noise=4e3, cap=None),
    "container.memory.usage": dict(base=(1.5e5, 6e5), coup=(2e4, 8e4), alloc_gain=0.0,
                                   noise=2e3, cap=None),
    "container.cpu.system": dict(base=(4.0, 12.0), coup=(15.0, 35.0), alloc_gain=15.0,
                                 noise=0.8, cap=100.0),
    "container.network.receive": dict(base=(1e3, 5e3), coup=(1e5, 6e5), alloc_gain=0.0,
                                      noise=3e3, cap=None),
    "container.network.transmit": dict(base=(1e3, 5e3), coup=(1e5, 6e5), alloc_gain=0.0,
                                       noise=3e3, cap=None),
    "http.request.size": dict(base=(600.0, 1800.0), coup=(20.0, 80.0), alloc_gain=0.0,
                              noise=12.0, cap=None),
    "http.request.duration": dict(base=(30.0, 90.0), coup=(40.0, 120.0), alloc_gain=0.0,
                                  noise=1.5, cap=None),
}


@dataclass
class MetricCatalog:
    """Fixed-width frame layout plus the per-metric response coefficients.

    For the built-in testbed topology the expansion is: 3 node families over
    all 25 nodes (the emulated switches are VMs too), 4 container families
    over the 7 role-bearing nodes, and 2 HTTP families over the load balancer
    and the 3 web servers -- 75 + 28 + 8 = 111 metrics.
    """

    entries: tuple[MetricName, ...]
    seed: int
    baseline: np.ndarray
    coupling: np.ndarray
    share: np.ndarray
    alloc_gain: np.ndarray
    noise_scale: np.ndarray
    cap: np.ndarray  # NaN where uncapped
    loadings: np.ndarray  # entries x LATENT_DIM

    @property
    def width(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.full for m in self.entries)


def build_metric_catalog(topology: Topology, seed: int) -> MetricCatalog:
    """Derive the metric catalog for a topology. Coefficients are drawn once
    from the seed; the same (topology, seed) always yields the same catalog."""
    all_nodes = sorted(topology.nodes)
    container_nodes = sorted(
        n for n in all_nodes
        if any(r in CONTAINER_ROLES for r in topology.nodes[n].roles))
    http_nodes = sorted(
        n for n in all_nodes
        if any(r in HTTP_ROLES for r in topology.nodes[n].roles))

    entries = [MetricName(family, n)
               for families, nodes in ((NODE_FAMILIES, all_nodes),
                                       (CONTAINER_FAMILIES, container_nodes),
                                       (HTTP_FAMILIES, http_nodes))
               for family in families for n in nodes]

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    width = len(entries)
    baseline = np.empty(width)
    coupling = np.empty(width)
    alloc_gain = np.empty(width)
    noise_scale = np.empty(width)
    cap = np.full(width, np.nan)
    for i, m in enumerate(entries):
        resp = _FAMILY_RESPONSE[m.family]
        baseline[i] = rng.uniform(*resp["base"])
        coupling[i] = rng.uniform(*resp["coup"])
        alloc_gain[i] = resp["alloc_gain"]
        noise_scale[i] = resp["noise"]
        if resp["cap"] is not None:
            cap[i] = resp["cap"]
    # Static per-scope traffic share in (0.2, 1.0): which fraction of the
    # global workload a node sees.
    node_share = {n: s for n, s in zip(all_nodes, rng.uniform(0.2, 1.0, size=len(all_nodes)))}
    share = np.array([node_share[m.scope] for m in entries])
    loadings = rng.uniform(-1.0, 1.0, size=(width, LATENT_DIM))
    return MetricCatalog(
        entries=tuple(entries), seed=seed,
        baseline=baseline, coupling=coupling, share=share,
        alloc_gain=alloc_gain, noise_scale=noise_scale, cap=cap, loadings=loadings,
    )


def _alloc_fraction(state: Topology, catalog: MetricCatalog) -> np.ndarray:
    """Per metric, the CPU share allocated on the metric's node."""
    alloc_frac = np.zeros(catalog.width)
    frac_cache: dict[str, float] = {}
    for i, node_id in enumerate(m.scope for m in catalog.entries):
        if node_id not in frac_cache:
            node = state.nodes[node_id]
            if node.cpu_capacity > 0:
                used = node.capacity - state.node_residual(node_id)
                frac_cache[node_id] = used.cpu / node.cpu_capacity
            else:
                frac_cache[node_id] = 0.0
        alloc_frac[i] = frac_cache[node_id]
    return alloc_frac


def _frame_values(alloc_frac: np.ndarray, workload_value: float, catalog: MetricCatalog,
                  t: float) -> np.ndarray:
    load = float(workload_value) / WORKLOAD_REF
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((catalog.seed, 0x5C4A9E, int(round(t * 1000))))))
    z = rng.standard_normal(LATENT_DIM)
    iid = rng.standard_normal(catalog.width)

    values = (catalog.baseline
              + catalog.coupling * catalog.share * load
              + catalog.alloc_gain * alloc_frac
              + catalog.noise_scale * (catalog.loadings @ z) / np.sqrt(LATENT_DIM)
              + catalog.noise_scale * IID_FRAC * iid)
    values = np.maximum(values, 0.0)
    capped = ~np.isnan(catalog.cap)
    values[capped] = np.minimum(values[capped], catalog.cap[capped])
    return values


def scrape(state: Topology, workload_value: float, catalog: MetricCatalog,
           t: float) -> MetricFrame:
    """One frame of every catalog metric at time t. Pure: equal arguments
    always return equal frames (noise is a seeded function of (catalog, t))."""
    values = _frame_values(_alloc_fraction(state, catalog), workload_value, catalog, t)
    return MetricFrame(timestamp=float(t), values=values)


def scrape_series(state: Topology, workload: TimeSeries, catalog: MetricCatalog) -> Dataset:
    """Scrape one frame per workload sample into a dataset. The state does
    not change within the series, so its allocation fractions are read once."""
    alloc_frac = _alloc_fraction(state, catalog)
    rows = np.empty((len(workload.values), catalog.width))
    for i, (t, w) in enumerate(zip(workload.t, workload.values)):
        rows[i] = _frame_values(alloc_frac, w, catalog, t)
    return Dataset(names=catalog.names, t=workload.t.copy(), values=rows)


# ---------------------------------------------------------------------------
# Normalization and splits
# ---------------------------------------------------------------------------

@dataclass
class Scaler:
    """Per-column min-max scaler. Constant columns map to 0.5 and invert to
    their original value."""

    lo: np.ndarray
    hi: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        span = self.hi - self.lo
        safe = np.where(span == 0, 1.0, span)
        out = (values - self.lo) / safe
        return np.where(span == 0, 0.5, out)

    def inverse(self, values01: np.ndarray) -> np.ndarray:
        values01 = np.asarray(values01, dtype=float)
        span = self.hi - self.lo
        return np.where(span == 0, self.lo, values01 * span + self.lo)


def normalize_minmax(dataset: Dataset) -> tuple[Dataset, Scaler]:
    """Fit a min-max scaler on the dataset and return the scaled copy."""
    if dataset.values.size == 0:
        raise EmptyDatasetError("cannot normalize an empty dataset")
    scaler = Scaler(lo=dataset.values.min(axis=0), hi=dataset.values.max(axis=0))
    return replace(dataset, values=scaler.transform(dataset.values)), scaler


def split_chronological(dataset: Dataset, train_frac: float = 0.8) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive chronological split into training / validation."""
    if not 0.0 < train_frac < 1.0:
        raise ConfigError("train fraction must be in (0, 1)")
    cut = int(round(len(dataset.t) * train_frac))
    if cut == 0 or cut == len(dataset.t):
        raise EmptyDatasetError("split would leave an empty part")
    train = Dataset(dataset.names, dataset.t[:cut], dataset.values[:cut], split="training")
    val = Dataset(dataset.names, dataset.t[cut:], dataset.values[cut:], split="validation")
    return train, val


# ---------------------------------------------------------------------------
# CSV import/export
# ---------------------------------------------------------------------------

def export_csv(dataset: Dataset, path) -> int:
    """First row: 'timestamp' then metric names; then one row per frame, in
    the run artifacts' one CSV format (control.write_csv), whose float text
    round-trips exactly. Returns the number of frames written."""
    return write_csv(path, ("timestamp",) + tuple(dataset.names),
                     ([t, *row.tolist()] for t, row in zip(dataset.t.tolist(), dataset.values)))


def import_csv(path, expected_width: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise EmptyDatasetError(f"{path}: empty dataset file")
    header = rows[0][1]
    if len(header) < 2 or header[0] != "timestamp":
        raise DatasetFormatError(f"{path}: header must be 'timestamp,<metric>,...'")
    names = tuple(header[1:])
    if expected_width is not None and len(names) != expected_width:
        raise DatasetFormatError(
            f"{path}: width mismatch: file has {len(names)} metrics, expected {expected_width}")
    t = np.empty(len(rows) - 1)
    values = np.empty((len(rows) - 1, len(names)))
    for k, (line, cells) in enumerate(rows[1:]):
        if len(cells) != len(names) + 1:
            raise DatasetFormatError(
                f"{path}: ragged row at line {line}: {len(cells)} cells, expected {len(names) + 1}")
        try:
            t[k] = float(cells[0])
            values[k] = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: non-numeric cell at line {line}: {exc}") from None
    if len(t) == 0:
        raise EmptyDatasetError(f"{path}: no data rows")
    return Dataset(names=names, t=t, values=values)
