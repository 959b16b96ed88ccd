"""The per-instance metrics registry.

One :class:`MetricsRegistry` per :class:`~repro.engine.ServerInstance`
holds named counters, gauges and simple histograms.  Instruments are
created on first use, so call sites never have to pre-register, and an
increment is one dict lookup plus an add — cheap enough to stay on in
every execution path.

``sys.dm_os_performance_counters`` is a dump of this registry (see
:mod:`repro.observability.views`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterator, Union


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def increment(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value:g})"


class Histogram:
    """A summary histogram: count / sum / min / max plus percentiles.

    Keeps a bounded window of the most recent observations so p50/p95/
    p99 reflect recent behavior without unbounded memory; count/sum/
    min/max remain exact over the instrument's lifetime.
    """

    __slots__ = ("name", "count", "sum", "minimum", "maximum", "samples")

    kind = "histogram"

    #: observations retained for percentile estimates
    SAMPLE_WINDOW = 512

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples: deque[float] = deque(maxlen=self.SAMPLE_WINDOW)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        """The headline value a registry dump reports (the mean)."""
        return self.mean

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of the retained window,
        with linear interpolation between adjacent samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] + (ordered[hi] - ordered[lo]) * frac

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count}, mean={self.mean:.3f})"
        )


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments for one server instance."""

    def __init__(self, namespace: str = "engine"):
        self.namespace = namespace
        self._instruments: Dict[str, Instrument] = {}
        #: guards instrument creation — concurrent sessions may
        #: first-touch the same counter; the increments
        #: themselves stay unlocked (losing a racy add is tolerable,
        #: losing an instrument to a double-create is not)
        self._lock = threading.Lock()

    # -- instrument access (create on first use) ------------------------------
    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def _get(self, name: str, cls) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    # -- shortcuts ------------------------------------------------------------
    def increment(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).increment(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- introspection --------------------------------------------------------
    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def value_of(self, name: str, default: float = 0.0) -> float:
        instrument = self._instruments.get(name)
        return instrument.value if instrument is not None else default

    def snapshot(self) -> Dict[str, float]:
        """Flat name → headline-value mapping (stable iteration order)."""
        return {
            name: instrument.value
            for name, instrument in sorted(self._instruments.items())
        }

    def rows(self) -> list[tuple]:
        """(object_name, counter_name, counter_type, value) rows for the
        ``sys.dm_os_performance_counters`` view."""
        out = []
        for name, instrument in sorted(self._instruments.items()):
            out.append((self.namespace, name, instrument.kind, instrument.value))
            if isinstance(instrument, Histogram):
                # distinct counter rows per percentile, so a plain
                # SELECT can filter on e.g. counter_name LIKE '%.p95'
                for p in (50, 95, 99):
                    out.append(
                        (
                            self.namespace,
                            f"{name}.p{p}",
                            "histogram_percentile",
                            instrument.percentile(p),
                        )
                    )
        return out

    def reset(self) -> None:
        self._instruments.clear()

    def __repr__(self) -> str:
        return f"MetricsRegistry({self.namespace}, {len(self._instruments)} metrics)"
