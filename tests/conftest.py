import os

import pytest
from hypothesis import HealthCheck, settings

# pyproject's pytest `pythonpath` puts src/ on this process's path; tests
# that start `python -m dpgrid.cli` need it in the child's environment too.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture
def fake_affinity(monkeypatch):
    """fake_affinity(cpus) makes os.sched_getaffinity, which dpgrid.shares reads, return
    set(cpus), and returns a list that each os.fork then appends to.  dpgrid.shares gives the
    process back the set it read after pinning it, a faked one too, so the test process gets
    its real set back at teardown."""
    real = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    fork = os.fork

    def fake(cpus):
        forks = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    yield fake
    if real is not None:
        os.sched_setaffinity(0, real)
