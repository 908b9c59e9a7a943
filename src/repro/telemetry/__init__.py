"""Zero-overhead-when-disabled observability for the serving stack.

Public surface:

* :class:`TelemetryRecorder` / :data:`NULL_RECORDER` — the shared
  per-run recorder and its disabled null twin (`recorder`).
* :class:`Counter` / :class:`Gauge` / :class:`P2Quantile` /
  :class:`QuantileBank` — core instruments (`instruments`).
* :class:`SlidingWindowCounters` — the O(1) windowed aggregator
  (`window`).
* :class:`SpanTable` / :class:`TimedKernelBackend` — timing spans and
  the proxy that times every kernel of the numpy backend (`spans`).

Everything defaults off: components hold :data:`NULL_RECORDER` until a
run hands them a live recorder, and the kernel registry dispatches the
raw numpy backend until :meth:`TelemetryRecorder.install_kernel_spans`
hooks the proxy in.
"""

from repro.telemetry.instruments import Counter, Gauge, P2Quantile, QuantileBank
from repro.telemetry.recorder import (
    BASE_FIELDS,
    DEFAULT_BUCKETS,
    DEFAULT_QUANTILE_SAMPLE,
    DEFAULT_QUANTILES,
    DEFAULT_WINDOW,
    NULL_RECORDER,
    NullRecorder,
    TelemetryRecorder,
)
from repro.telemetry.spans import Span, SpanTable, TimedKernelBackend
from repro.telemetry.window import SlidingWindowCounters, ratio

__all__ = [
    "BASE_FIELDS",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILE_SAMPLE",
    "DEFAULT_QUANTILES",
    "DEFAULT_WINDOW",
    "Gauge",
    "NULL_RECORDER",
    "NullRecorder",
    "P2Quantile",
    "QuantileBank",
    "SlidingWindowCounters",
    "Span",
    "SpanTable",
    "TelemetryRecorder",
    "TimedKernelBackend",
    "ratio",
]
