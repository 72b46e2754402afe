"""The reference task: fixed pure-Python work that never touches cubematch.

Timed next to the operations, it says how fast the machine runs at that
moment.  On a shared virtual machine that speed drifts by 10-25 % over tens
of seconds to minutes, and operation times drift with it; run.py scales
every end-to-end time by the reference task's time in the same run (see
README.md, "Reference speed").

    python3 bench/speed.py     # the task in a fresh interpreter, as timed

Run as a script, the task follows the interpreter start and the
standard-library imports that `cubematch.cli` also makes, so it drifts
with whole-process operations and set-up the way `in_process` drifts with
in-process calls.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

# What the reference task takes on the reference machine: a quiet spell of
# the 2-core virtual machine, Python 3.11.7, on which README.md's figures
# were made.  Scaled times are what that machine would show.
IN_PROCESS_S = 0.025
IN_CHILD_S = 0.080


def _tree(depth: int) -> tuple:
    return (depth,) if depth == 0 else (depth, _tree(depth - 1), _tree(depth - 1))


def _walk(t: tuple, acc: int) -> int:
    if len(t) == 1:
        return acc + t[0] + 1
    return _walk(t[2], _walk(t[1], acc + t[0]))


def task() -> int:
    """Allocate and walk small tuples and dicts, as the kernel does with terms.

    The cyclic garbage collector is off meanwhile: its passes would walk
    every object the calling process holds, so the task would cost more
    in a process that holds a large workload.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for _ in range(6):
            names = {("k", i): str(i) for i in range(4000)}
            total += len(names) + _walk(_tree(13), 0)
        return total
    finally:
        if was_on:
            gc.enable()


def in_process() -> float:
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def in_child() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True,
                   stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


if __name__ == "__main__":
    import argparse, dataclasses, enum, json, typing  # noqa: E401, F401

    task()
