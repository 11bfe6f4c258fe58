"""Latency/throughput accounting of scoring batches.

:class:`ServiceStats` records the wall time of every ``engine.predict`` batch, from which
it derives per-query latency, mean batch size and throughput.  The HTTP front-end keeps
one for the ``service`` row of ``/metrics``; synchronous callers print it through
:func:`serving_tables`, so benchmarks and dashboards share one formatting path
(:mod:`repro.bench.reporting`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Sequence, Tuple

from repro.bench.reporting import TableReport, summarize_latencies
from repro.serve.engine import LinkPredictionEngine, LinkQuery, TopKResult


# How many of the most recent per-query latencies the stats keep for the percentile
# summary.  The aggregate counters (queries, batches, seconds) are exact over the
# service's whole lifetime; only the distribution is windowed so that a long-lived
# service does not grow its memory with traffic.
LATENCY_WINDOW = 16384


@dataclass
class ServiceStats:
    """Latency / throughput accounting across the service's lifetime."""

    total_queries: int = 0
    total_batches: int = 0
    total_seconds: float = 0.0
    latencies_ms: Deque[float] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    def record_batch(self, batch_size: int, seconds: float) -> None:
        self.total_queries += batch_size
        self.total_batches += 1
        self.total_seconds += seconds
        # Every query in a batch waits for the whole batch, so each one's observed
        # latency is the batch wall time.
        self.latencies_ms.extend([seconds * 1000.0] * batch_size)

    def timed_predict(
        self, engine: LinkPredictionEngine, queries: Sequence[LinkQuery]
    ) -> List[TopKResult]:
        """``engine.predict(queries)``, recorded as one batch."""
        started = time.perf_counter()
        results = engine.predict(queries)
        self.record_batch(len(queries), time.perf_counter() - started)
        return results

    @property
    def throughput_qps(self) -> float:
        """Queries per second over all recorded batches."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.total_queries / self.total_seconds

    @property
    def mean_batch_size(self) -> float:
        if self.total_batches == 0:
            return 0.0
        return self.total_queries / self.total_batches

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "queries": self.total_queries,
            "batches": self.total_batches,
            "mean_batch": round(self.mean_batch_size, 1),
            "qps": round(self.throughput_qps, 1),
        }
        row.update(summarize_latencies(self.latencies_ms))
        return row


def serving_tables(
    stats: ServiceStats, engine: LinkPredictionEngine
) -> Tuple[TableReport, TableReport]:
    """The ``serving statistics`` (latency/throughput) and ``engine caches`` tables."""
    service = TableReport("serving statistics")
    service.add_row(**stats.as_row())
    caches = TableReport("engine caches")
    caches.add_row(**engine.cache_info())
    return service, caches
