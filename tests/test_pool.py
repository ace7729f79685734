"""Tests for the ordered worker pool shared by the curves and the simulator."""

import threading
import time

import numpy as np
import pytest

from setidetect import _pool
from setidetect._pool import ordered_map


@pytest.fixture
def workers(monkeypatch, request):
    monkeypatch.setattr(_pool, "worker_count", lambda: request.param)
    return request.param


@pytest.mark.parametrize("workers", [1, 2, 3, 8], indirect=True)
def test_results_in_input_order_whatever_finishes_first(workers):
    # earlier tasks take longer, so they finish last
    def task(i):
        time.sleep(0.002 * (8 - i))
        return i * i

    assert ordered_map(task, range(8)) == [i * i for i in range(8)]


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_caller_is_one_of_the_workers(workers):
    def task(_):
        time.sleep(0.01)
        return threading.current_thread()

    caller = threading.current_thread()
    threads = ordered_map(task, range(12))
    assert caller in threads
    assert len(set(threads)) <= workers
    assert ordered_map(lambda _: threading.current_thread(), [None]) == [caller]


@pytest.mark.parametrize("workers", [3], indirect=True)
def test_first_failure_in_input_order_propagates(workers):
    late, early = RuntimeError("task 0"), RuntimeError("task 1")

    def task(i):
        if i == 0:
            time.sleep(0.2)
            raise late
        if i == 1:
            raise early
        return i

    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        ordered_map(task, range(6))
    assert info.value is late
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_no_task_starts_after_an_earlier_failure(workers):
    started = []
    second = threading.Event()

    def task(i):
        started.append(i)
        if i == 0:
            if workers > 1:
                assert second.wait(5.0)
            raise ValueError("task 0")
        second.set()
        # this worker claims again only after the failure is recorded
        time.sleep(0.2)
        return i

    with pytest.raises(ValueError, match="task 0"):
        ordered_map(task, range(10))
    assert sorted(started) == list(range(workers))


@pytest.mark.parametrize("workers", [3], indirect=True)
def test_tasks_see_the_callers_numpy_error_state(workers):
    with np.errstate(divide="raise"):
        modes = ordered_map(lambda _: np.geterr()["divide"], range(9))
        with pytest.raises(FloatingPointError):
            ordered_map(lambda x: np.divide(1.0, np.full(4, x)), [1.0, 2.0, 0.0])
    assert modes == ["raise"] * 9


def test_empty_input_starts_nothing():
    before = threading.active_count()
    assert ordered_map(lambda x: x, []) == []
    assert threading.active_count() == before
