import os

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
