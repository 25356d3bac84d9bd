"""Traced CLI runs: spans around the calls into each dpgrid module.

Run as a child process of the benchmark:

    python perfbench/tracing.py SPANS.json -- <dpgrid CLI arguments>

It imports ``dpgrid.cli``, replaces the names one module imports from
another (``cli.run_query``, ``gridsim.derive_rng``, ...) and a few
methods with wrappers that record a span per call, runs
``dpgrid.cli.main(argv)`` and writes the spans to SPANS.json when the
command ends.  Spans live in memory until then.  The program's own files
are not touched: the wrappers are installed at run time, and a name the
program no longer has is skipped, so its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np


def _file_rows(args, kwargs, result) -> int:
    """Data rows of the CSV written to the call's path argument."""
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    with open(path, "rb") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith(b"#")]
    return max(0, len(lines) - 1)


def _series_len_arg(args, kwargs, result) -> int:
    return len(kwargs.get("series", args[0]))


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _result_size(args, kwargs, result) -> int:
    return int(np.size(result))


def _node_label(args, kwargs, result) -> int:
    # derive_rng(seed, "node", node_id) is the per-node stream of one tree pass.
    return int(len(args) > 1 and args[1] == "node")


# (module that holds the name, attribute, span name, counter)
FUNCTIONS = [
    ("dpgrid.cli", "load_topology", "gridsim.load_topology", None),
    ("dpgrid.cli", "run_query", "gridsim.run_query", None),
    ("dpgrid.cli", "detection_rate", "gridsim.detection_rate", None),
    ("dpgrid.cli", "impact_sweep", "gridsim.impact_sweep", None),
    ("dpgrid.cli", "sweep_to_csv", "gridsim.sweep_to_csv", _file_rows),
    ("dpgrid.cli", "calibrate_epsilon", "calibrate.calibrate_epsilon", None),
    ("dpgrid.cli", "dp_protect", "qos.dp_protect", None),
    ("dpgrid.cli", "inject_attack", "qos.inject_attack", None),
    ("dpgrid.cli", "cost_analysis", "qos.cost_analysis", None),
    ("dpgrid.cli", "ingest_csv", "series.ingest_csv", _result_len),
    ("dpgrid.cli", "export_csv", "series.export_csv", _series_len_arg),
    ("dpgrid.cli", "synth_pmu", "series.synth_pmu", None),
    ("dpgrid.cli", "resample", "series.resample", None),
    ("dpgrid.gridsim", "resample", "series.resample", None),
    ("dpgrid.cli", "derive_seed", "seeds.derive_seed", None),
    ("dpgrid.gridsim", "derive_seed", "seeds.derive_seed", None),
    ("dpgrid.gridsim", "derive_rng", "seeds.derive_rng", _node_label),
    ("dpgrid.qos", "derive_rng", "seeds.derive_rng", _node_label),
    ("dpgrid.series", "derive_rng", "seeds.derive_rng", _node_label),
    ("dpgrid.gridsim", "sample_laplace", "laplace.sample_laplace", _result_size),
    ("dpgrid.qos", "sample_laplace", "laplace.sample_laplace", _result_size),
    ("dpgrid.gridsim", "sample_attack_noise", "adversary.sample_attack_noise", _result_size),
    ("dpgrid.qos", "sample_attack_noise", "adversary.sample_attack_noise", _result_size),
    ("dpgrid.qos", "forecast", "forecasting.forecast", None),
]

# (module, class, method, span name, counter)
METHODS = [
    ("dpgrid.gridsim", "SimTrace", "to_csv", "gridsim.SimTrace.to_csv", _file_rows),
    ("dpgrid.gridsim", "GridTopology", "plaintext_attack_edges",
     "gridsim.plaintext_attack_edges", None),
    ("dpgrid.adversary", "AttackProfile", "solve", "adversary.AttackProfile.solve", None),
]

ROOT_SPAN = "cli.main"
MC_SPAN = "gridsim.detection_rate"


class Tracer:
    """Records (name, start, end, parent, count) for every wrapped call."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn, counter=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0)
            if counter is not None:
                spans[idx] = (name, start, end, parent, counter(args, kwargs, result))
            return result

        return traced

    def to_dict(self) -> dict:
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans if s is not None],
        }


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(tracer: Tracer) -> list:
    """Wrap every name in FUNCTIONS and METHODS that exists; returns the skipped ones."""
    skipped = []
    for module_name, attr, span, counter in FUNCTIONS:
        fn = getattr(_module(module_name), attr, None)
        if fn is None:
            skipped.append(f"{module_name}.{attr}")
            continue
        setattr(_module(module_name), attr, tracer.wrap(span, fn, counter))
    for module_name, cls_name, attr, span, counter in METHODS:
        cls = getattr(_module(module_name), cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            skipped.append(f"{module_name}.{cls_name}.{attr}")
        elif isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(span, raw.__func__, counter)))
        else:
            setattr(cls, attr, tracer.wrap(span, raw, counter))
    return skipped


def aggregate(span_docs) -> dict:
    """Per span name: calls, busy_s, self_s, count, and calls/count inside MC_SPAN.

    self_s is a span's busy time minus the time its child spans cover.
    Calls are single-threaded, so children never overlap and the covered
    time is the sum of their durations.
    """
    out: dict = {}
    for doc in span_docs:
        names = doc["names"]
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        in_mc = [False] * len(spans)
        for i, (n, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_mc[i] = in_mc[parent] or names[spans[parent][0]] == MC_SPAN
        for i, (n, start, end, parent, count) in enumerate(spans):
            agg = out.setdefault(names[n], {
                "calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0,
                "top_busy_s": 0.0, "mc_calls": 0, "mc_count": 0,
            })
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["count"] += count
            if parent < 0:
                agg["top_busy_s"] += end - start
            if in_mc[i]:
                agg["mc_calls"] += 1
                agg["mc_count"] += count
    return out


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <dpgrid CLI arguments>", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[2:]
    cli = importlib.import_module("dpgrid.cli")
    tracer = Tracer()
    skipped = install(tracer)
    run = tracer.wrap(ROOT_SPAN, cli.main)
    code = 1
    try:
        code = run(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_out, "w") as fh:
            json.dump({**tracer.to_dict(), "skipped": skipped}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
