"""The package's one worker pool: ordered maps over independent tasks.

The heavy work of every verb runs in native code that releases the GIL
(`scipy.special` ufuncs for the analytic curves and AUCs, NumPy's
generators and ufuncs for the Monte Carlo draws), so independent tasks
overlap on threads: one per Monte Carlo (sweep point, hypothesis) draw,
then one per (sweep point, detector), in `roc` and `mc-validate`; one per
(gain, detector) in `compare`.
Results come back in input order, which keeps every output independent of
the number of workers and of scheduling.

The calling thread works through the tasks beside one helper thread per
further CPU, and waits only in the final join.  An executor would leave it
idle and wake it once per finished task, taking the GIL from a worker each
time: one thread more than there are CPUs, which made timings spread
twice as wide from run to run on a two-CPU machine.
"""

from __future__ import annotations

import contextvars
import os
import threading


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], on min(worker_count(), len(items)) threads,
    the calling thread one of them.

    Tasks are taken in input order and none is taken once an earlier one
    has failed, so once every helper has ended the first failure in input
    order propagates, as it would from the serial loop.  Helpers run in
    copies of the caller's context (NumPy's error state is kept there), so
    a task sees the same settings whichever thread runs it.
    """
    items = list(items)
    results = [None] * len(items)
    failures = {}
    lock = threading.Lock()
    claims = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = next(claims, None)
                if i is None or (failures and i > min(failures)):
                    return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised below, interrupts too
                with lock:
                    failures[i] = exc

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work,))
        for _ in range(min(worker_count(), len(items)) - 1)
    ]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
