import importlib

import pytest


@pytest.fixture
def forced_pool(monkeypatch):
    """Two workers for every `workers.ordered_map`, even where only one
    CPU is available; the list of the pool sizes started so far."""
    workers = importlib.import_module("autopl.workers")
    start = workers._start_pool
    started = []

    def spy(processes, *args):
        started.append(processes)
        return start(processes, *args)

    monkeypatch.setattr(workers, "_available_cpus", lambda: 2)
    monkeypatch.setattr(workers, "_start_pool", spy)
    return started


@pytest.fixture
def in_process(monkeypatch):
    """A switch to `workers.ordered_map`'s in-process path for the rest
    of the test: "no-pool" makes the pool fail to start, "one-cpu"
    leaves one CPU, where no pool is tried."""
    workers = importlib.import_module("autopl.workers")

    def no_semaphores(*args):
        raise OSError("no semaphores")

    def unreachable(*args):
        raise AssertionError("a pool was started with one CPU available")

    def switch(path):
        cpus, start = {"no-pool": (2, no_semaphores),
                       "one-cpu": (1, unreachable)}[path]
        monkeypatch.setattr(workers, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(workers, "_start_pool", start)

    return switch
