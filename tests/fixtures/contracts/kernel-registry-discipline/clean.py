"""Fixture: registry-mediated backend access the rule accepts."""

from repro.core.kernels import ROUTE_STATS, get_backend, merge_repair


def dispatch(scores, ages, rngs):
    backend = get_backend()
    return backend.rank_day(scores, ages, "random", rngs)


def backend_tag():
    return get_backend().name, ROUTE_STATS.full


def repair(order, popularity, dirty):
    return merge_repair(order, popularity, dirty)
