"""The ordered map both engines fit through: results in submission
order from forked workers, errors that reach the caller with no worker
left behind, and the in-process path when no pool can or need start."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from autopl import workers


def _where(item):
    return item, os.getpid()


def test_results_keep_submission_order(forced_pool):
    # the first item waits until the last one has run, so every later
    # item finishes before it
    last_ran = multiprocessing.get_context("fork").Event()

    def finish(item):
        if item == 0 and not last_ran.wait(timeout=60):
            raise TimeoutError("the last item never ran")
        done = time.monotonic()
        if item == 5:
            last_ran.set()
        return item, os.getpid(), done

    with workers.ordered_map(finish) as ordered:
        got = list(ordered(range(6)))
    assert forced_pool == [2]
    assert [item for item, _, _ in got] == list(range(6))
    assert all(pid != os.getpid() for _, pid, _ in got)
    done = [t for _, _, t in got]
    assert done[0] > max(done[1:])


def _fails_on_two(item):
    if item == 2:
        raise ValueError(f"item {item} failed")
    return item


def test_worker_error_reaches_caller_and_no_worker_survives(forced_pool):
    with pytest.raises(ValueError, match=r"^item 2 failed$") as err:
        with workers.ordered_map(_fails_on_two) as ordered:
            list(ordered(range(5)))
    assert err.type is ValueError
    assert forced_pool == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("path", ["no-pool", "one-cpu"])
def test_in_process_fallback(path, in_process):
    in_process(path)
    with workers.ordered_map(_where) as ordered:
        assert list(ordered(range(4))) == \
            [(item, os.getpid()) for item in range(4)]


def test_every_path_gives_equal_results(forced_pool, in_process):
    # a closure over read-only rows: the pool inherits it unpickled
    rows = np.random.default_rng(3).normal(size=(200, 6))

    def work(i):
        col = rows[:, i]
        return np.sin(col) @ np.exp(col / 3.0), np.sort(col).tobytes()

    results = []
    for path in ("pooled", "no-pool", "one-cpu"):
        if path != "pooled":
            in_process(path)
        with workers.ordered_map(work) as ordered:
            results.append(list(ordered(range(6))))
    assert forced_pool == [2]
    assert results[0] == results[1] == results[2]
