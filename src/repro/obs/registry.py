"""Thread-safe metrics registry: counters, gauges, log-bucket histograms.

Dependency-free (stdlib + numpy).  The registry is the storage half of
:mod:`repro.obs`; the instrumentation half (spans, traces, the module
enable flag) lives in :mod:`repro.obs.trace` and the package root.

Model
-----
A *family* is one metric name plus a help string; it owns one child per
label set (``family.labels(table=3)``), like the Prometheus client.  The
convenience methods on a family (``inc``/``set``/``observe``) delegate to
the unlabeled child so simple metrics need no ``labels()`` call.

Thread safety: every mutation of shared state happens under a lock — the
registry lock for family creation, one lock per child for updates.  Reads
(``value``, ``snapshot``) take the same locks only where a torn read is
possible; scalar reads rely on the atomicity of reference assignment.

Histograms use fixed log-scale bucket upper bounds (:func:`log_buckets`)
so observation is one ``np.searchsorted`` + ``np.bincount`` per batch.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]
#: Canonical, order-independent form of one label set: sorted (name, value).
LabelItems = Tuple[Tuple[str, str], ...]


def log_buckets(lo: float, hi: float, factor: float = 2.0) -> Tuple[float, ...]:
    """Geometric bucket upper bounds from ``lo`` up to at least ``hi``.

    ``log_buckets(1.0, 8.0)`` -> ``(1.0, 2.0, 4.0, 8.0)``.  Fixed bucket
    layouts keep histogram merges and cross-run comparisons trivial.
    """
    if lo <= 0.0 or hi < lo:
        raise ValueError(f"need 0 < lo <= hi, got lo={lo} hi={hi}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return tuple(bounds)


#: Stage / span latencies: 1 microsecond .. 16 seconds.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = log_buckets(1e-6, 16.0)
#: Discrete sizes (short-list length, probe counts, escalation depth).
COUNT_BUCKETS: Tuple[float, ...] = log_buckets(1.0, float(1 << 20))


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total.  One child of a family."""

    kind = "counter"
    __slots__ = ("name", "label_items", "_lock", "_value")

    def __init__(self, name: str, label_items: LabelItems = ()) -> None:
        self.name = name
        self.label_items = label_items
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> Dict[str, object]:
        return {"labels": dict(self.label_items), "value": self.value}


class Gauge:
    """A value that can go up and down.  One child of a family."""

    kind = "gauge"
    __slots__ = ("name", "label_items", "_lock", "_value")

    def __init__(self, name: str, label_items: LabelItems = ()) -> None:
        self.name = name
        self.label_items = label_items
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> Dict[str, object]:
        return {"labels": dict(self.label_items), "value": self.value}


class Histogram:
    """Fixed-bucket histogram child; batch observation is vectorized.

    ``bounds`` are strictly increasing bucket *upper* bounds; one implicit
    overflow bucket (``+Inf``) follows the last bound, matching Prometheus
    ``le`` semantics.
    """

    kind = "histogram"
    __slots__ = ("name", "label_items", "_lock", "_bounds", "_counts",
                 "_sum", "_n")

    def __init__(self, name: str, label_items: LabelItems = (),
                 bounds: Sequence[float] = LATENCY_BUCKETS_SECONDS) -> None:
        arr = np.asarray(tuple(bounds), dtype=np.float64)
        if arr.size == 0 or np.any(np.diff(arr) <= 0.0):
            raise ValueError(f"histogram {name}: bounds must be "
                             f"non-empty and strictly increasing")
        self.name = name
        self.label_items = label_items
        self._lock = threading.Lock()
        self._bounds = arr
        self._counts = np.zeros(arr.size + 1, dtype=np.int64)
        self._sum = 0.0
        self._n = 0

    def observe(self, value: Number) -> None:
        self.observe_many(np.asarray([value], dtype=np.float64))

    def observe_many(self, values: np.ndarray) -> None:
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return
        idx = np.searchsorted(self._bounds, flat, side="left")
        add = np.bincount(idx, minlength=self._counts.size).astype(np.int64)
        with self._lock:
            self._counts += add
            self._sum += float(flat.sum())
            self._n += int(flat.size)

    @property
    def count(self) -> int:
        return self._n

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> np.ndarray:
        """Per-bucket (non-cumulative) counts, overflow bucket last."""
        with self._lock:
            return self._counts.copy()

    def bucket_bounds(self) -> np.ndarray:
        return self._bounds.copy()

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile by linear interpolation
        within the containing bucket (0 is used as the lower edge of the
        first bucket; the overflow bucket reports its lower bound)."""
        with self._lock:
            counts = self._counts.copy()
            n = self._n
        if n == 0:
            return 0.0
        target = max(1.0, (q / 100.0) * n)
        cum = np.cumsum(counts)
        i = int(np.searchsorted(cum, target, side="left"))
        i = min(i, counts.size - 1)
        if i >= self._bounds.size:          # overflow bucket: no upper edge
            return float(self._bounds[-1])
        lo = float(self._bounds[i - 1]) if i > 0 else 0.0
        hi = float(self._bounds[i])
        before = float(cum[i - 1]) if i > 0 else 0.0
        in_bucket = float(counts[i])
        frac = (target - before) / in_bucket if in_bucket > 0 else 1.0
        return lo + min(1.0, max(0.0, frac)) * (hi - lo)

    def sample(self) -> Dict[str, object]:
        with self._lock:
            counts = self._counts.copy()
            total = self._sum
            n = self._n
        buckets = [{"le": float(b), "count": int(c)}
                   for b, c in zip(self._bounds, counts[:-1])]
        buckets.append({"le": "+Inf", "count": int(counts[-1])})
        return {
            "labels": dict(self.label_items),
            "count": n,
            "sum": total,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "buckets": buckets,
        }


class CounterFamily:
    """All :class:`Counter` children sharing one metric name."""

    kind = "counter"
    __slots__ = ("name", "help", "_lock", "_children")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._children: Dict[LabelItems, Counter] = {}

    def labels(self, **labels: object) -> Counter:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = Counter(self.name, key)
                    self._children[key] = child
        return child

    def inc(self, amount: Number = 1) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        """Value of the unlabeled child."""
        return self.labels().value

    def total(self) -> float:
        """Sum over every child (all label sets)."""
        return sum(child.value for child in self.children())

    def children(self) -> List[Counter]:
        with self._lock:
            return list(self._children.values())

    def samples(self) -> List[Dict[str, object]]:
        return [child.sample() for child in self.children()]


class GaugeFamily:
    """All :class:`Gauge` children sharing one metric name."""

    kind = "gauge"
    __slots__ = ("name", "help", "_lock", "_children")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._children: Dict[LabelItems, Gauge] = {}

    def labels(self, **labels: object) -> Gauge:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = Gauge(self.name, key)
                    self._children[key] = child
        return child

    def set(self, value: Number) -> None:
        self.labels().set(value)

    def inc(self, amount: Number = 1) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value

    def children(self) -> List[Gauge]:
        with self._lock:
            return list(self._children.values())

    def samples(self) -> List[Dict[str, object]]:
        return [child.sample() for child in self.children()]


class HistogramFamily:
    """All :class:`Histogram` children sharing one name and bucket layout."""

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "_lock", "_children")

    def __init__(self, name: str, help_text: str = "",
                 bounds: Sequence[float] = LATENCY_BUCKETS_SECONDS) -> None:
        self.name = name
        self.help = help_text
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or any(b <= a for a, b in
                                  zip(self.bounds, self.bounds[1:])):
            raise ValueError(f"histogram {name}: bounds must be "
                             f"non-empty and strictly increasing")
        self._lock = threading.Lock()
        self._children: Dict[LabelItems, Histogram] = {}

    def labels(self, **labels: object) -> Histogram:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = Histogram(self.name, key, self.bounds)
                    self._children[key] = child
        return child

    def observe(self, value: Number) -> None:
        self.labels().observe(value)

    def observe_many(self, values: np.ndarray) -> None:
        self.labels().observe_many(values)

    def percentile(self, q: float) -> float:
        return self.labels().percentile(q)

    @property
    def count(self) -> int:
        return self.labels().count

    @property
    def sum(self) -> float:
        return self.labels().sum

    def children(self) -> List[Histogram]:
        with self._lock:
            return list(self._children.values())

    def samples(self) -> List[Dict[str, object]]:
        return [child.sample() for child in self.children()]


FamilyType = Union[CounterFamily, GaugeFamily, HistogramFamily]


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    """Prometheus-conformant scalar rendering: NaN/±Inf spellings.

    Python floats print as ``nan``/``inf``, which the exposition-format
    parsers reject; the format requires ``NaN``, ``+Inf``, ``-Inf``.
    """
    if value != value:  # NaN is the only value unequal to itself
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def _format_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Get-or-create store of metric families, safe for concurrent use.

    One process-wide default instance lives in :mod:`repro.obs`; tests,
    the CLI, and benchmarks construct private registries so runs do not
    bleed into each other.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, FamilyType] = {}

    def counter(self, name: str, help_text: str = "") -> CounterFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = CounterFamily(name, help_text)
                self._families[name] = family
        if not isinstance(family, CounterFamily):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family

    def gauge(self, name: str, help_text: str = "") -> GaugeFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = GaugeFamily(name, help_text)
                self._families[name] = family
        if not isinstance(family, GaugeFamily):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  ) -> HistogramFamily:
        """Get or create; ``buckets`` only applies on first creation."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                bounds = (tuple(buckets) if buckets is not None
                          else LATENCY_BUCKETS_SECONDS)
                family = HistogramFamily(name, help_text, bounds)
                self._families[name] = family
        if not isinstance(family, HistogramFamily):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family

    def get(self, name: str) -> Optional[FamilyType]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[FamilyType]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-able snapshot: ``{name: {kind, help, samples}}``."""
        out: Dict[str, object] = {}
        for family in self.families():
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": family.samples(),
            }
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (cumulative ``le`` buckets)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, (CounterFamily, GaugeFamily)):
                for scalar in family.children():
                    labels = _format_labels(scalar.label_items)
                    lines.append(f"{family.name}{labels} "
                                 f"{_format_value(scalar.value)}")
            else:
                for hist in family.children():
                    bounds = hist.bucket_bounds()
                    counts = hist.bucket_counts()
                    cum = 0
                    for bound, count in zip(bounds, counts[:-1]):
                        cum += int(count)
                        labels = _format_labels(hist.label_items,
                                                extra=f'le="{bound}"')
                        lines.append(f"{family.name}_bucket{labels} {cum}")
                    cum += int(counts[-1])
                    labels = _format_labels(hist.label_items,
                                            extra='le="+Inf"')
                    lines.append(f"{family.name}_bucket{labels} {cum}")
                    plain = _format_labels(hist.label_items)
                    lines.append(f"{family.name}_sum{plain} "
                                 f"{_format_value(hist.sum)}")
                    lines.append(f"{family.name}_count{plain} {hist.count}")
        return "\n".join(lines) + "\n"
