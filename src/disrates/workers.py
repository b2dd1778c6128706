"""Independent shares of a loop, run on the usable CPUs by plain threads.

The kernels that use this hand each worker a share of units (horizons,
particle blocks, clouds) whose heavy numpy calls release the interpreter
lock.  A unit computes what the serial loop computed, and writes only its
own part of the output, so results do not depend on the worker count.
Buffers a worker fills are allocated by the caller, so they come from the
main heap and not from a per-thread arena that outlives the call.
"""

import os
import threading


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Workers per call: the CPUs this process may run on, read once at import.
COUNT = _usable_cpus()
# The least work, in array elements, worth a share of its own.  Starting and
# joining a thread, and handing the interpreter lock between the numpy calls
# of two shares, costs about 0.2 ms a call.  On a 2-core VM (numpy 2.4, BLAS
# on one thread) the likelihood of 8 cells x 8,192 particles took 0.29 ms
# serially and 0.54 ms in two shares, and the filter summaries of 40 clouds
# of 2,000 particles (p=2) 5.6 and 8.0 ms.
MIN_SHARE_ELEMENTS = 1 << 18


def deal(count, elements):
    """range(count) dealt round-robin into shares: one per worker, but no more
    shares than units, nor than MIN_SHARE_ELEMENTS fit in `elements`, the
    size of the arrays all the units together work through."""
    shares = max(1, min(COUNT, count, elements // MIN_SHARE_ELEMENTS))
    return [range(k, count, shares) for k in range(min(shares, count))]


def run_shares(work, shares):
    """Call work(share) for each of the list `shares`; return when all are done.

    The first share runs on the calling thread and each other on a thread of
    its own, so with one share no thread is started.  Once every thread is
    joined, the exception of the first share that raised one, in list order,
    is raised on the caller.
    """
    errors = [None] * len(shares)

    def run(i):
        try:
            work(shares[i])
        except BaseException as exc:  # raised again on the caller below
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(shares))]
    for thread in threads:
        thread.start()
    if shares:
        run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
