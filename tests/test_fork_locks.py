"""A forked child can take every module lock a sim thread may hold.

``WorkerPool.replace`` forks a new pool from a sweep-service sim
thread while the event loop and the other sim slot run.  A lock another
thread holds at that instant would stay held in every new worker,
which would hang on its first trace, plan or context lookup, unless the
module re-creates the lock after a fork (``os.register_at_fork``).
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.frontend import plan as plan_mod
from repro.harness import runner as runner_mod
from repro.workloads import profiles as profiles_mod
from repro.workloads.trace import TRACE_STORE

LOCKS = {
    "walk-memo": (profiles_mod, "_walks_lock"),
    "walk-plans": (plan_mod, "_walk_plans_lock"),
    "trace-store": (TRACE_STORE, "_lock"),
    "context-table": (runner_mod, "_contexts_lock"),
}


@pytest.mark.parametrize("name", sorted(LOCKS))
def test_forked_child_takes_a_lock_another_thread_holds(name):
    owner, attr = LOCKS[name]
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with getattr(owner, attr):
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if getattr(owner, attr).acquire(timeout=1) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
    finally:
        release.set()
        holder.join()
    assert os.waitstatus_to_exitcode(status) == 0, (
        f"a forked child could not take {attr} within 1 s"
    )
