"""Fixture: direct backend imports the registry rule must flag."""

import repro.core.kernels.numpy_backend as npb  # direct module import
from repro.core.kernels import numpy_backend  # member import of a backend
from repro.core.kernels.numpy_backend import NumpyKernelBackend


def pinned_backend():
    return NumpyKernelBackend()


def pinned_module():
    return numpy_backend.BACKEND, npb.BACKEND
