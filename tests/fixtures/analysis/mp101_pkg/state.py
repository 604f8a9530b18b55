"""Module-level state and the sanctioned per-worker cache holder."""

REGISTRY = {}

EVENTS = []


class WorkerCaches:
    def __init__(self):
        self.entries = {}
