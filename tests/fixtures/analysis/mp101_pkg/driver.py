"""Pool submissions that make the worker bodies MP101 roots."""

from multiprocessing import Pool

from .worker import (
    audited_handle,
    handle,
    handle_arrays,
    handle_events,
    handle_with_caches,
)


def run_all(items):
    with Pool(2) as pool:
        good = pool.map(handle_with_caches, items)
        bad = pool.map(handle, items)
        audited = pool.map(audited_handle, items)
        arrays = pool.map(handle_arrays, items)
        events = pool.map(handle_events, items)
    return good, bad, audited, arrays, events
