"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the storage half of the observability subsystem
(`docs/observability.md`).  Design constraints, in order:

1. **Hot-path cheapness.**  Instruments are *preregistered handles*: the
   engine resolves each instrument once (at construction) and the run loop
   performs a plain method call per update — no name lookup, no label
   hashing, no allocation.  A mutation is one lock acquisition plus one
   float add, and all engine updates happen at *batch* granularity, never
   per event.
2. **A no-op mode.**  :class:`NullRegistry` hands out shared null
   instruments whose mutators do nothing, so instrumented code needs no
   ``if enabled`` branches; disabling observability degrades every update
   to an empty method call.
3. **Deterministic fan-in.**  Worker processes of the sharded execution
   backends accumulate into forked registry copies; :meth:`MetricsRegistry.
   baseline` / :meth:`delta` / :meth:`merge_delta` implement the same
   snapshot-delta-absorb protocol the supervision state uses, so counters
   and histograms are byte-identical across the serial and process
   backends.  Gauges are point-in-time values refreshed by the parent and
   are deliberately excluded from fan-in.

Instruments carry a ``deterministic`` flag: counters of discrete facts
(batches, cost units, reclamations) are reproducible run-to-run, while
wall-clock timing histograms are not.  ``snapshot(deterministic_only=True)``
is the projection the cross-backend parity tests compare byte-for-byte.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping

#: Default buckets for durations in seconds (1 µs .. 10 s).
TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)

#: Default buckets for sizes/counts (1 .. 10 000).
SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)

LabelPairs = tuple[tuple[str, str], ...]


def _normalize_labels(labels: Mapping[str, str] | None) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Base class: a named, optionally labelled time series."""

    kind = "untyped"

    __slots__ = ("name", "help", "labels", "deterministic", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelPairs = (),
        *,
        deterministic: bool = True,
    ):
        self.name = name
        self.help = help
        self.labels = labels
        self.deterministic = deterministic
        self._lock = threading.Lock()

    @property
    def key(self) -> tuple[str, LabelPairs]:
        return (self.name, self.labels)

    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in self.labels)
        return "{" + inner + "}"

    def snapshot_value(self):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}{self.label_suffix()}>"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


class Counter(Instrument):
    """Monotonically increasing count (events, cost units, reclamations)."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def snapshot_value(self) -> float:
        return self.value


class Gauge(Instrument):
    """Point-in-time value (queue depth, open windows, DLQ occupancy)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def snapshot_value(self) -> float:
        return self.value


class Histogram(Instrument):
    """Fixed-bucket histogram (batch latency, per-plan evaluation time).

    Buckets are *upper bounds* in ascending order; an implicit ``+Inf``
    bucket catches the overflow, exactly the Prometheus model.  Bucket
    boundaries are fixed at registration, so observation is a binary
    search plus one integer increment — no dynamic rebucketing ever.
    """

    kind = "histogram"

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelPairs = (),
        *,
        buckets: Iterable[float] = TIME_BUCKETS,
        deterministic: bool = False,
    ):
        super().__init__(name, help, labels, deterministic=deterministic)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be ascending, got {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[str, int]]:
        """``(le, cumulative_count)`` pairs ending with ``+Inf``."""
        pairs: list[tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            pairs.append((format_bound(bound), running))
        pairs.append(("+Inf", running + self.counts[-1]))
        return pairs

    def snapshot_value(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {le: c for le, c in self.cumulative_buckets()},
        }


def format_bound(bound: float) -> str:
    """Prometheus-style bound rendering (integral bounds without ``.0``)."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


class MetricsRegistry:
    """Instrument factory and store with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the existing instrument when
    called twice with the same name and labels (asserting the kind
    matches), so independent components may share an instrument handle —
    e.g. every partition's garbage collector increments the same
    reclamation counter.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelPairs], Instrument] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def _get_or_create(self, factory, name, help, labels, **kwargs):
        key = (name, _normalize_labels(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                expected = factory.kind
                if existing.kind != expected:
                    raise ValueError(
                        f"instrument {name!r} already registered as "
                        f"{existing.kind}, cannot re-register as {expected}"
                    )
                return existing
            instrument = factory(name, help, key[1], **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        deterministic: bool = True,
    ) -> Counter:
        return self._get_or_create(
            Counter, name, help, labels, deterministic=deterministic
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        deterministic: bool = False,
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, help, labels, deterministic=deterministic
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] = TIME_BUCKETS,
        deterministic: bool = False,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            help,
            labels,
            buckets=buckets,
            deterministic=deterministic,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def instruments(self) -> list[Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def get(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Instrument | None:
        return self._instruments.get((name, _normalize_labels(labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self, *, deterministic_only: bool = False) -> dict:
        """``{"name{labels}": value}`` for counters/gauges, dicts for
        histograms.  With ``deterministic_only`` the snapshot is the
        reproducible projection the cross-backend parity contract covers."""
        result: dict[str, object] = {}
        for instrument in self.instruments():
            if deterministic_only and not instrument.deterministic:
                continue
            result[instrument.name + instrument.label_suffix()] = (
                instrument.snapshot_value()
            )
        return result

    # ------------------------------------------------------------------
    # worker fan-in (snapshot → delta → absorb)
    # ------------------------------------------------------------------

    def baseline(self) -> dict:
        """Raw values at fork time; pair with :meth:`delta`."""
        base: dict[tuple[str, LabelPairs], object] = {}
        for instrument in self.instruments():
            if instrument.kind == "counter":
                base[instrument.key] = instrument.value
            elif instrument.kind == "histogram":
                base[instrument.key] = (
                    list(instrument.counts),
                    instrument.sum,
                    instrument.count,
                )
        return base

    def delta(self, baseline: dict | None) -> dict:
        """What this registry accumulated beyond ``baseline`` (picklable).

        Gauges are excluded: they are point-in-time values the parent
        refreshes from fanned-in state, not accumulations.
        """
        baseline = baseline or {}
        counters: dict = {}
        histograms: dict = {}
        for instrument in self.instruments():
            if instrument.kind == "counter":
                before = baseline.get(instrument.key, 0.0)
                change = instrument.value - before
                if change:
                    counters[instrument.key] = (
                        change,
                        instrument.help,
                        instrument.deterministic,
                    )
            elif instrument.kind == "histogram":
                before_counts, before_sum, before_count = baseline.get(
                    instrument.key, ([0] * len(instrument.counts), 0.0, 0)
                )
                count_change = instrument.count - before_count
                if count_change:
                    histograms[instrument.key] = (
                        [
                            now - past
                            for now, past in zip(
                                instrument.counts, before_counts
                            )
                        ],
                        instrument.sum - before_sum,
                        count_change,
                        instrument.bounds,
                        instrument.help,
                        instrument.deterministic,
                    )
        return {"counters": counters, "histograms": histograms}

    def merge_delta(self, delta: dict | None) -> None:
        """Absorb a worker's :meth:`delta` (parent side of the fan-in)."""
        if not delta:
            return
        for (name, labels), (change, help, deterministic) in delta[
            "counters"
        ].items():
            counter = self.counter(
                name, help, labels=dict(labels), deterministic=deterministic
            )
            counter.inc(change)
        for (name, labels), (
            counts,
            sum_change,
            count_change,
            bounds,
            help,
            deterministic,
        ) in delta["histograms"].items():
            histogram = self.histogram(
                name,
                help,
                labels=dict(labels),
                buckets=bounds,
                deterministic=deterministic,
            )
            with histogram._lock:
                for index, change in enumerate(counts):
                    histogram.counts[index] += change
                histogram.sum += sum_change
                histogram.count += count_change


class _NullInstrument:
    """Shared do-nothing instrument; satisfies every mutator interface."""

    __slots__ = ()

    kind = "null"
    name = "<null>"
    help = ""
    labels: LabelPairs = ()
    deterministic = True
    value = 0.0
    sum = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot_value(self) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: hands out shared no-op instruments.

    Instrumented code keeps calling ``counter(...)``/``inc()`` untouched;
    everything collapses to empty method calls and ``snapshot()`` is empty.
    """

    enabled = False

    def _get_or_create(self, factory, name, help, labels, **kwargs):
        return NULL_INSTRUMENT

    def instruments(self) -> list[Instrument]:
        return []

    def snapshot(self, *, deterministic_only: bool = False) -> dict:
        return {}

    def baseline(self) -> dict:
        return {}

    def delta(self, baseline: dict | None) -> dict:
        return {"counters": {}, "histograms": {}}

    def merge_delta(self, delta: dict | None) -> None:
        pass


#: Shared disabled registry (stateless, safe to share between engines).
NULL_REGISTRY = NullRegistry()
