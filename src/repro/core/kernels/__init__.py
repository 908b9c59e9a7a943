"""Compute kernels for the repository's hot paths.

The batch simulator's ``(R, n)`` day step, the sweep's feedback flushes
and the serving state's commits all route their array math through one
module, :mod:`~repro.core.kernels.numpy_backend`: the exact code once
inlined in the engines and bit-identical to them by construction.  There
is no backend interface; its :class:`NumpyKernelBackend` is the one
implementation.

Callers obtain it with :func:`get_backend`.  Telemetry and the benchmark
tracer time every kernel call by installing an instrumentation hook
(:func:`set_kernel_instrumentation`); while one is installed,
:func:`get_backend` hands out the backend wrapped in the hook's proxy.
"""

from __future__ import annotations

from repro.core.kernels.numpy_backend import (
    BACKEND as _BACKEND,
    ROUTE_STATS,
    TIE_BREAKERS,
    VALID_KERNELS,
    NumpyKernelBackend,
    RankRouteStats,
    check_tie_breaker,
    draw_tie_keys,
    merge_repair,
)

_instrumentation = None


def set_kernel_instrumentation(wrap) -> None:
    """Install (or clear, with ``None``) a backend instrumentation hook.

    ``wrap`` is a callable mapping the numpy backend to the instance
    :func:`get_backend` should hand out — typically a
    :class:`repro.telemetry.spans.TimedKernelBackend` proxy, installed
    for the duration of one telemetry-enabled run via
    :meth:`repro.telemetry.TelemetryRecorder.install_kernel_spans`.  The
    hook applies at dispatch time, so clearing it instantly restores the
    uninstrumented path (a single ``is None`` check per dispatch).
    """
    global _instrumentation
    _instrumentation = wrap


def get_kernel_instrumentation():
    """The currently installed instrumentation hook, or ``None``."""
    return _instrumentation


def get_backend() -> NumpyKernelBackend:
    """The numpy kernel backend, wrapped by the instrumentation hook if set."""
    if _instrumentation is not None:
        return _instrumentation(_BACKEND)
    return _BACKEND


def set_backend(name: str) -> NumpyKernelBackend:
    """Check that ``name`` is ``"numpy"`` and return :func:`get_backend`.

    ``perfbench/run.py`` pins its backend by name through this; any other
    name raises ``ValueError``.
    """
    if name != _BACKEND.name:
        raise ValueError(
            "unknown kernel backend %r; the only backend is %r"
            % (name, _BACKEND.name)
        )
    return get_backend()


__all__ = [
    "RankRouteStats",
    "ROUTE_STATS",
    "TIE_BREAKERS",
    "VALID_KERNELS",
    "merge_repair",
    "get_backend",
    "get_kernel_instrumentation",
    "set_backend",
    "set_kernel_instrumentation",
    "check_tie_breaker",
    "draw_tie_keys",
]
