"""dpgrid.shares: contiguous shares of a job across the process's CPUs, one forked child per share
after the first, each pinned to its own CPU where the kernel does not balance load."""

import os
import time

import pytest

from dpgrid import shares

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="shares fork only where the affinity set can be read")

REAL_AFFINITY = os.sched_getaffinity if hasattr(os, "sched_getaffinity") else None
# A CPU id beyond any kernel's limit: pinning to it raises OSError (EINVAL).
NO_SUCH_CPU = 1 << 16


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("units, cpus, most", [
    (1, 3, None), (2, 3, None), (7, 3, None), (8, 3, None), (10, 2, None), (11, 3, 2),
    (11, 3, 0), (5, 1, None),
])
def test_shares_cover_the_range_in_order_in_whole_units(fake_affinity, units, cpus, most):
    forks = fake_affinity(range(cpus))
    results = shares.run(units, lambda first, last: (first, last, os.getpid()), most=most)
    count = max(1, min(cpus, units, units if most is None else most))
    assert [(first, last) for first, last, _ in results] == [
        (k * units // count, (k + 1) * units // count) for k in range(count)]
    assert len(forks) == count - 1
    # Share 0 runs in this process, every other one in a child of its own, in share order.
    pids = [pid for _, _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == count
    assert no_children_left()


def test_results_come_back_in_share_order_whatever_order_children_finish(fake_affinity):
    fake_affinity(range(3))

    def work(first, last):
        time.sleep(0.2 if first == 3 else 0.0)  # the first child finishes last
        return list(range(first, last))

    assert shares.run(9, work) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


@pytest.mark.parametrize("failing, message", [
    ({3, 6}, "share from 3"),  # both children fail: the lower one's error
    ({6}, "share from 6"),
    ({0, 6}, "share from 0"),  # this process's own share: the children are killed
], ids=["every-child", "last-child", "first-share"])
def test_lowest_failing_share_raises_and_every_child_is_reaped(fake_affinity, failing, message):
    forks = fake_affinity(range(3))

    def work(first, last):
        if first in failing:
            raise ValueError(f"share from {first}")
        if first and 0 in failing:
            time.sleep(60)  # only a kill ends it in time
        return first

    started = time.monotonic()
    with pytest.raises(ValueError, match=message):
        shares.run(9, work)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    assert no_children_left()


def test_child_that_sends_nothing_raises_child_process_error(fake_affinity):
    fake_affinity(range(2))

    def work(first, last):
        if first:
            os._exit(0)
        return first

    with pytest.raises(ChildProcessError, match="share of units 2 to 4 gave no result"):
        shares.run(4, work)
    assert no_children_left()


needs_two_cpus = pytest.mark.skipif(
    REAL_AFFINITY is None or len(REAL_AFFINITY(0)) < 2, reason="pinning needs two CPUs")


@pytest.fixture
def unbalanced(monkeypatch):
    """As in a cpuset whose kernel does not balance load, where shares pins."""
    monkeypatch.setattr(shares, "_kernel_balances", lambda: False)


@needs_two_cpus
@pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
def test_each_share_is_pinned_and_the_callers_affinity_restored(unbalanced, fails):
    caller = REAL_AFFINITY(0)
    cpus = sorted(caller)[:2]

    def work(first, last):
        if fails and not first:
            raise ValueError("share 0 failed")
        return REAL_AFFINITY(0)

    if fails:
        with pytest.raises(ValueError, match="share 0 failed"):
            shares.run(2, work, most=2)
    else:
        assert shares.run(2, work, most=2) == [{cpus[0]}, {cpus[1]}]
    assert REAL_AFFINITY(0) == caller


@needs_two_cpus
def test_share_whose_cpu_cannot_be_pinned_runs_unpinned_with_the_same_result(unbalanced,
                                                                              fake_affinity):
    caller = REAL_AFFINITY(0)
    cpus = sorted(caller)[:2]

    def work(first, last):
        return sum(range(first, last)), REAL_AFFINITY(0)

    fake_affinity([*cpus, NO_SUCH_CPU])
    pinned = shares.run(30, work)
    # The third share's pin raises OSError: it keeps the set its process was forked with.
    assert [cpu_set for _, cpu_set in pinned] == [{cpus[0]}, {cpus[1]}, caller]
    fake_affinity(cpus[:1])
    assert sum(total for total, _ in pinned) == shares.run(30, work)[0][0] == sum(range(30))


@needs_two_cpus
def test_where_the_kernel_balances_load_no_share_is_pinned(monkeypatch):
    monkeypatch.setattr(shares, "_kernel_balances", lambda: True)
    caller = REAL_AFFINITY(0)
    assert shares.run(2, lambda first, last: REAL_AFFINITY(0), most=2) == [caller, caller]


@pytest.mark.parametrize("cgroup, flags, balances", [
    ("3:cpuset:/jobs\n", {"": "0", "jobs": "0"}, False),
    ("3:cpuset:/jobs/a\n", {"": "0", "jobs": "0", "jobs/a": "0"}, False),
    ("3:cpuset:/\n", {"": "0"}, False),
    ("4:memory:/x\n3:cpu,cpuset:/jobs\n", {"": "0", "jobs": "0"}, False),
    ("3:cpuset:/jobs\n", {"": "1", "jobs": "0"}, True),  # the root balances across all CPUs
    ("3:cpuset:/jobs\n", {"": "0", "jobs": "1"}, True),
    ("3:cpuset:/jobs\n", {"": "0"}, True),  # the cpuset's flag cannot be read
    ("0::/user.slice\n", {"": "0"}, True),  # cgroup v2
], ids=["job", "nested", "root", "joint-controllers", "root-balances", "job-balances",
        "unreadable", "cgroup-v2"])
def test_kernel_balances_unless_every_cpuset_on_the_path_does_not(tmp_path, cgroup, flags,
                                                                 balances):
    (tmp_path / "cgroup").write_text(cgroup)
    for path, flag in flags.items():
        (tmp_path / "cpuset" / path).mkdir(parents=True, exist_ok=True)
        (tmp_path / "cpuset" / path / "cpuset.sched_load_balance").write_text(flag + "\n")
    assert shares._kernel_balances(tmp_path / "cgroup", tmp_path / "cpuset") is balances


@pytest.mark.parametrize("affinity", [True, False], ids=["one-cpu", "no-affinity"])
def test_one_cpu_never_forks(monkeypatch, fake_affinity, affinity):
    if affinity:
        fake_affinity([5])
    else:  # as outside Linux
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    assert shares.run(10, lambda first, last: (first, last, os.getpid())) == [(0, 10, os.getpid())]
