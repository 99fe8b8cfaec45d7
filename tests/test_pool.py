import functools
import threading
import time

import numpy as np
import pytest

from isoconv import pool
from isoconv.centroid import zp_support
from isoconv.measures import draw_samples, gaussian_measure
from isoconv.seeds import sphere_directions


def _after(delay, value):
    time.sleep(delay)
    return value


def _fail_after(delay, message):
    time.sleep(delay)
    raise ValueError(message)


def test_run_tasks_returns_results_in_task_order():
    # the later tasks finish first
    tasks = [functools.partial(_after, 0.02 * (5 - i), i) for i in range(6)]
    assert pool.run_tasks(tasks) == list(range(6))
    assert pool.run_tasks([]) == []


def test_run_tasks_raises_the_first_error_after_every_task_has_finished():
    finished = []

    def slow():
        time.sleep(0.3)
        finished.append(True)

    # the second error happens first; the first in task order is raised
    tasks = [functools.partial(_fail_after, 0.1, "first"), slow,
             functools.partial(_fail_after, 0.0, "second")]
    with pytest.raises(ValueError, match="first"):
        pool.run_tasks(tasks)
    assert finished == [True]


def test_a_zp_kernel_inside_a_pool_task_is_an_error_not_a_hang():
    # the kernel's blocks would queue behind the task that waits for them
    s = draw_samples(gaussian_measure(3), 2000, seed=40)
    dirs = sphere_directions(3, 50, seed=41)
    caught = []

    def call():
        try:
            pool.run_tasks([lambda: zp_support(s, 3.0, dirs)])
        except RuntimeError as exc:
            caught.append(str(exc))

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(caught) == 1 and "\n" not in caught[0] and "pool task" in caught[0]
    # the pool still runs the kernel when called from outside it
    assert np.all(np.isfinite(zp_support(s, 3.0, dirs)))
