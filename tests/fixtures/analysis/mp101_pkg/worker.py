"""Worker bodies: some write module state, some only look as if they do."""

import numpy as np

from . import state
from .state import REGISTRY

_SCRATCH = {}


def handle(item):
    REGISTRY[item] = item * 2  # expect: MP101
    return item * 2


def handle_with_caches(item, caches):
    caches.entries[item] = item * 2
    return item * 2


def audited_handle(item):
    # repro: allow[MP101] — per-process memo only; entries are never read across workers
    _SCRATCH[item] = item
    return item


def handle_arrays(item):
    # Module functions named like container methods write no module state.
    values = np.insert(np.arange(item), 0, item)
    values = np.append(values, item)
    return np.add(values, values)


def handle_events(item):
    state.EVENTS.append(item)  # expect: MP101
    return item
