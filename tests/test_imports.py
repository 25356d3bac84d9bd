"""The package loads its modules lazily, and each CLI command only its own."""

import json
import os
import subprocess
import sys

import pytest

import dpgrid


def _cli(*argv):
    return f"from dpgrid import cli\nassert cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize("code, absent", [
    ("import dpgrid", {"numpy"}),
    ("import dpgrid.cli", {"numpy"}),
    ("from dpgrid.bench import _cpu_model", {"cryptography"}),
    ("from dpgrid import impact_sweep", {"numpy"}),
    (_cli("calibrate", "--sensitivity", "2", "--gamma", "2", "--max-deviation", "50"),
     {"numpy", "csv", "dpgrid.gridsim", "dpgrid.bench", "cryptography"}),
    (_cli("impact", "--epsilon", "0.1", "--gamma", "2", "--sensitivity", "2"),
     {"numpy", "csv", "dpgrid.gridsim"}),
    (_cli("sweep", "--epsilons", "0.1,0.5", "--gammas", "0.5,2", "--sensitivities", "1,2",
          "--out", "sweep.csv"),
     {"numpy", "csv", "dpgrid.gridsim"}),
    # array is a shared library that only the sweep writer needs; simulate and qos load no copy.
    ("import dpgrid.gridsim, dpgrid.qos", {"array"}),
], ids=["package", "cli", "bench", "sweep-name", "calibrate", "impact", "sweep",
        "no-array-outside-sweep"])
def test_import_loads_only_what_runs(code, absent, tmp_path):
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "DPGRID_OUTPUT_DIR": str(tmp_path)}  # where the sweep writes
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert loaded.isdisjoint(absent)


def test_public_names_are_the_defining_modules_objects():
    for name in dpgrid.__all__:
        namespace = {}
        exec(f"from dpgrid import {name}", namespace)
        obj = namespace[name]
        assert obj.__module__.startswith("dpgrid."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dpgrid import *", namespace)
    assert set(dpgrid.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        dpgrid.no_such_name
    with pytest.raises(ImportError):
        exec("from dpgrid import no_such_name", {})
