"""Calibration process: times a fixed pure-Python loop, once per request.

The host's speed drifts by tens of percent over seconds to minutes, which
moves every timing of the program with it.  ``workload.py`` starts this
process once and asks it for a sample before and after each operation; the
program's time over the loop's time, taken over the same stretch of the
run, is the program's cost at a fixed machine speed.  The loop runs in its
own process so that nothing the program leaves behind (threads, heap, open
files) changes the loop's time.

Protocol: each line read from stdin holds a loop count and asks for one
sample of that many loops; the answer is one line ``<wall seconds> <cpu
seconds>`` per loop.  The process ends at end of input.
"""

from __future__ import annotations

import sys
import time

ITERATIONS = 300_000


def loop() -> int:
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return acc


def main() -> int:
    for line in sys.stdin:
        loops = int(line)
        c0 = time.process_time()
        t0 = time.perf_counter()
        for _ in range(loops):
            loop()
        wall = time.perf_counter() - t0
        print(wall / loops, (time.process_time() - c0) / loops, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
