"""Process-wide metrics facade: labeled counters, gauges, and histograms.

Every layer — fabric, IPFS, consensus, trust, query — records into one
registry with one exposition format. The paper's testbed watches its
network through Grafana; :meth:`MetricsRegistry.render` is that surface,
programmatic and Prometheus-conformant:

* one ``# TYPE`` line per metric *family* (name), however many label sets;
* histogram ``_bucket`` series are cumulative with a closing ``+Inf``
  bucket, alongside ``_sum`` and ``_count``;
* labels render as ``name{key="value",...}`` with escaped values.

Labels make families bounded: ``txs_total{code="valid"}`` is one family
with one series per validation code, not one metric name per code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ObservabilityError

LabelSet = tuple[tuple[str, str], ...]


def labelset(labels: Mapping[str, object] | None) -> LabelSet:
    """Canonical (sorted, stringified) form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Exactly three characters are special inside a quoted label value —
    backslash, double quote, and newline — and the backslash must be
    escaped *first* so the escapes themselves survive. Every exposition
    path (counters, gauges, histogram/quantile series) funnels through
    here via :func:`render_labels`.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_labels(labels: LabelSet, extra: tuple[tuple[str, str], ...] = ()) -> str:
    """``{k="v",...}`` suffix, empty string for an empty label set."""
    pairs = labels + extra
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{escape_label_value(v)}"' for k, v in pairs) + "}"


@dataclass
class Counter:
    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass
class Histogram:
    name: str
    buckets: tuple[float, ...]
    labels: LabelSet = ()
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ObservabilityError("histogram buckets must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +inf bucket

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        self.counts[idx] += 1
        self.total += value
        self.n += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Prometheus ``histogram_quantile`` semantics: linear interpolation
        inside the bucket that contains the target rank (the first bucket
        interpolates from 0). Observations that landed in the ``+Inf``
        bucket clamp to the highest finite bound — a quantile can never be
        reported beyond what the buckets can resolve.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError("quantile must be in [0, 1]")
        if self.n == 0:
            return 0.0
        target = q * self.n
        cumulative = 0
        for i, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += self.counts[i]
            if cumulative >= target:
                if self.counts[i] == 0:
                    return bound
                lower = self.buckets[i - 1] if i > 0 else 0.0
                return lower + (bound - lower) * ((target - previous) / self.counts[i])
        return self.buckets[-1] if self.buckets else 0.0


# The quantiles every histogram exposes in snapshots and exposition; p50,
# p95 and p99 are what latency SLOs are stated in.
EXPOSED_QUANTILES = (0.5, 0.95, 0.99)


def _series_key(name: str, labels: LabelSet) -> str:
    return name + render_labels(labels)


class MetricsRegistry:
    """Named, labeled metrics with Prometheus-style text exposition."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        # family name -> label set -> metric
        self._counters: dict[str, dict[LabelSet, Counter]] = {}
        self._gauges: dict[str, dict[LabelSet, Gauge]] = {}
        self._histograms: dict[str, dict[LabelSet, Histogram]] = {}

    # -- access (creating on first use) -----------------------------------------

    def counter(self, name: str, labels: Mapping[str, object] | None = None) -> Counter:
        ls = labelset(labels)
        family = self._counters.setdefault(name, {})
        metric = family.get(ls)
        if metric is None:
            metric = family[ls] = Counter(name=name, labels=ls)
        return metric

    def gauge(self, name: str, labels: Mapping[str, object] | None = None) -> Gauge:
        ls = labelset(labels)
        family = self._gauges.setdefault(name, {})
        metric = family.get(ls)
        if metric is None:
            metric = family[ls] = Gauge(name=name, labels=ls)
        return metric

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...],
        labels: Mapping[str, object] | None = None,
    ) -> Histogram:
        ls = labelset(labels)
        family = self._histograms.setdefault(name, {})
        metric = family.get(ls)
        if metric is None:
            metric = family[ls] = Histogram(name=name, buckets=tuple(buckets), labels=ls)
        return metric

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- exposition -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly dump; series keys carry their rendered labels."""
        return {
            "counters": {
                _series_key(name, ls): c.value
                for name, family in sorted(self._counters.items())
                for ls, c in sorted(family.items())
            },
            "gauges": {
                _series_key(name, ls): g.value
                for name, family in sorted(self._gauges.items())
                for ls, g in sorted(family.items())
            },
            "histograms": {
                _series_key(name, ls): {
                    "n": h.n,
                    "mean": h.mean,
                    "sum": h.total,
                    "buckets": dict(zip(h.buckets, h.counts)),
                    "p50": h.quantile(0.5),
                    "p95": h.quantile(0.95),
                    "p99": h.quantile(0.99),
                }
                for name, family in sorted(self._histograms.items())
                for ls, h in sorted(family.items())
            },
        }

    def render(self) -> str:
        """Prometheus text format (one TYPE line per family)."""
        lines: list[str] = []
        for name, family in sorted(self._counters.items()):
            lines.append(f"# TYPE {self.prefix}_{name} counter")
            for ls, counter in sorted(family.items()):
                lines.append(f"{self.prefix}_{name}{render_labels(ls)} {counter.value}")
        for name, family in sorted(self._gauges.items()):
            lines.append(f"# TYPE {self.prefix}_{name} gauge")
            for ls, gauge in sorted(family.items()):
                lines.append(f"{self.prefix}_{name}{render_labels(ls)} {gauge.value}")
        for name, family in sorted(self._histograms.items()):
            lines.append(f"# TYPE {self.prefix}_{name} histogram")
            for ls, hist in sorted(family.items()):
                cumulative = 0
                for bound, count in zip(hist.buckets, hist.counts):
                    cumulative += count
                    lines.append(
                        f"{self.prefix}_{name}_bucket"
                        f"{render_labels(ls, (('le', str(bound)),))} {cumulative}"
                    )
                cumulative += hist.counts[-1]
                lines.append(
                    f"{self.prefix}_{name}_bucket"
                    f"{render_labels(ls, (('le', '+Inf'),))} {cumulative}"
                )
                lines.append(f"{self.prefix}_{name}_sum{render_labels(ls)} {hist.total}")
                lines.append(f"{self.prefix}_{name}_count{render_labels(ls)} {hist.n}")
                # Summary-style quantile series so latency SLOs can be
                # read straight off the exposition (bucket interpolation).
                for q in EXPOSED_QUANTILES:
                    lines.append(
                        f"{self.prefix}_{name}"
                        f"{render_labels(ls, (('quantile', str(q)),))} "
                        f"{hist.quantile(q)}"
                    )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Process-global registry
# ---------------------------------------------------------------------------

_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> None:
    global _DEFAULT
    _DEFAULT = registry
