"""A fixed calibration loop, timed just before every run of a task.

    python3 perfbench/calibration.py      # one run of the loop, in a fresh process

The loop rebuilds a table of frozensets and its index, a few MB, and walks
them in a scattered order, the kind of work the program does.  It never
changes, so the time it takes measures only how fast the host runs this
kind of work at that moment; `run.task_times` divides each task's time by
it.  Library tasks are paired with the loop run in their own process (the
speed a process gets depends on the process, not only on the moment), CLI
commands with the loop run in a fresh interpreter, which also pays for
starting one.

Each measurement is a slowdown: the loop's time over its time on the host
the benchmark was built on (a 2-vCPU Xeon VM shared with other work), so
times divided by it read as seconds on that host.
"""
from __future__ import annotations

import contextlib
import gc
import subprocess
import sys
import time

ITEMS = 20000
# the loop's mean time on the host the benchmark was built on
IN_PROCESS_REFERENCE_S = 0.036
IN_CHILD_REFERENCE_S = 0.135


_items = []
_index = {}


def loop(n=ITEMS):
    """The table is rebuilt in place, so after its first run the loop
    holds a fixed amount of memory: in a pass it adds a constant to the
    peak resident memory, the same on every commit."""
    _index.clear()
    if len(_items) != n:
        _items[:] = [None] * n
    for i in range(n):
        _items[i] = frozenset((i, (i * 7) % 1013, (i * 13) % 2029))
    _index.update((s, i) for i, s in enumerate(_items))
    j = acc = 0
    for _ in range(n):
        j = (j * 1103515245 + 12345) % n
        acc += _index[_items[j]] + len(_items[j] | _items[(j * 31) % n])
    return acc


def slowdown():
    """The loop in this process.  Garbage collection is off while it runs,
    so the size of the program's heap does not change its cost."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        loop()
        return (time.perf_counter() - t0) / IN_PROCESS_REFERENCE_S
    finally:
        gc.enable()


def child_slowdown():
    """The loop in a fresh interpreter, start-up included."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return (time.perf_counter() - t0) / IN_CHILD_REFERENCE_S


def serve():
    """Answer each line on stdin with the slowdown of a fresh interpreter."""
    for _ in sys.stdin:
        print(child_slowdown(), flush=True)


class Helper:
    """A helper process that starts the fresh interpreters of
    `child_slowdown`: a child's peak memory counts in its parent's once the
    parent has waited for it, and the helper keeps theirs out of the
    pass's."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve"], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


@contextlib.contextmanager
def meter(child):
    """A function that measures the slowdown: in this process, or, with
    `child`, in a fresh interpreter."""
    if not child:
        yield slowdown
        return
    helper = Helper()
    try:
        yield helper
    finally:
        helper.close()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        loop()
