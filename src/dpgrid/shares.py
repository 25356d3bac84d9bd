"""Contiguous shares of a job, run across the CPUs the process may run on; stdlib only.

A job of whole units (Monte-Carlo chunks, sweep cells) is cut into one contiguous share per CPU
in os.sched_getaffinity(0).  This process runs the first share and a forked child each other
one; a child sends its result, or the exception it met, pickled down a pipe.  Where the kernel
does not balance load across the process's cpuset (cgroup v1 sched_load_balance 0 on its whole
path), a forked child stays on its parent's CPU and the two take turns, so there each share's
process is pinned to its own CPU.  Anywhere else the kernel spreads the shares, and pins that
always chose the lowest CPUs would pile concurrent processes onto them.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, TypeVar

T = TypeVar("T")


def run(units: int, work: Callable[[int, int], T], most: int | None = None) -> list[T]:
    """[work(first, last) per share], in share order, for shares that cover range(units).

    Share k of n covers units k * units // n up to (k + 1) * units // n, where n is the number
    of CPUs, never more than units nor than most, and at least 1.  One share runs in this
    process, unpinned and with nothing forked.  Where the kernel does not balance load
    (_kernel_balances), share k runs on the k-th CPU of the sorted affinity set, or unpinned
    where pinning to it raises OSError, and this process gets its affinity back after its
    share.  An error in any share kills and reaps every child, and the lowest-numbered failing
    share's error is raised, as running the shares in order in one process would raise it.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # outside Linux: one share
        cpus = [None]
    count = max(1, min(len(cpus), units, units if most is None else most))
    if count == 1:
        return [work(0, units)]
    import pickle  # only where a child is forked: it is 2 ms of a small sweep's start-up

    bounds = [k * units // count for k in range(count + 1)]
    pins = [None] * count if _kernel_balances() else cpus
    children = []  # (pid, read end of its pipe) per forked share, in share order
    try:
        for k in range(1, count):
            children.append(_fork(work, bounds[k], bounds[k + 1], pins[k]))
        results = [_pinned(work, bounds[0], bounds[1], pins[0], set(cpus))]
        for (first, last), (_, pipe) in zip(zip(bounds[1:], bounds[2:]), children):
            try:
                result = pickle.load(pipe)
            except EOFError:
                raise ChildProcessError(f"the share of units {first} to {last} gave no result") \
                    from None
            if isinstance(result, BaseException):
                raise result
            results.append(result)
    except BaseException:
        from signal import SIGKILL

        for pid, _ in children:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return results


def _kernel_balances(cgroup: str = "/proc/self/cgroup",
                     cpusets: str = "/sys/fs/cgroup/cpuset") -> bool:
    """False only where this process is in a cgroup-v1 cpuset whose sched_load_balance reads 0,
    and so does every cpuset above it: then, unless a sibling cpuset that shares its CPUs asks
    for balancing, the kernel moves no task between them.  Under cgroup v2, or where a file
    cannot be read, True."""
    try:
        with open(cgroup) as fh:
            path = next(line.rstrip("\n").split(":", 2)[2] for line in fh
                        if "cpuset" in line.split(":", 2)[1].split(","))
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            with open(os.path.join(cpusets, *parts[:depth], "cpuset.sched_load_balance")) as fh:
                if fh.read().strip() != "0":
                    return True
    except (OSError, StopIteration, IndexError):
        return True
    return False


def _pinned(work: Callable, first: int, last: int, cpu: int | None, caller: set):
    """work(first, last) in this process, pinned to cpu unless it is None or pinning to it
    raises OSError; the caller's affinity is restored after it."""
    if cpu is None:
        return work(first, last)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return work(first, last)
    try:
        return work(first, last)
    finally:
        os.sched_setaffinity(0, caller)


def _fork(work: Callable, first: int, last: int, cpu: int | None) -> tuple:
    """Forks a child, pinned to cpu unless it is None or that raises OSError, that pickles down
    a pipe work(first, last) or the exception it met; returns the child's pid and the pipe's
    read end."""
    import pickle

    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads (numpy's OpenBLAS starts
            # some) may deadlock the child; no share calls a BLAS routine.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may "
                r"lead to deadlocks in the child\.", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    try:
        os.close(read)
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass  # the share runs unpinned
        try:
            result = work(first, last)
        except BaseException as exc:
            result = exc
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)
