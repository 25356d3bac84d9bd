"""Command-line front end.

Subcommands cover the whole pipeline: calibrate a privacy loss against
an impact cap, evaluate attacker impact, sweep parameter grids,
simulate a measurement tree, price the defense in forecast space,
benchmark manipulation cost, and generate synthetic inputs.

Every emitted file and JSON document carries a config hash of the
parsed arguments, output paths excepted, with input files entering by
the sha256 of the bytes the run read, so outputs can be traced back to
the exact invocation and data.  Exit status: 0 on success, 2 on usage
or validation errors.

Each command imports the library modules it runs when it runs, so
importing this module loads no numpy and a command pays at start-up only
for what it uses: calibrate, impact and sweep do scalar math and load no
numpy at all.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import warnings
from typing import Callable

OUTPUT_DIR_ENV = "DPGRID_OUTPUT_DIR"
# Arguments that name where outputs go, not what they contain.
_UNHASHED_ARGS = ("func", "out", "trace_out", "export_series")


def _config_hash(args: argparse.Namespace, digests: dict | None = None) -> str:
    """Hash of every parsed argument except output paths.

    Input files enter by the sha256 of the bytes the run read: digests
    replaces each argument that names input files by their hexdigests,
    which the command took from the bytes it parsed (simulate's
    topology by one, its series by one per node).  So two runs share a
    hash only if they read the same data with the same settings.
    """
    params = {k: v for k, v in vars(args).items() if k not in _UNHASHED_ARGS}
    params.update(digests or {})
    canonical = json.dumps(params, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        resolved = path
    else:
        resolved = os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), path)
    parent = os.path.dirname(resolved)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return resolved


def _emit_json(payload: dict, out: str | None) -> None:
    """Write payload to out, if given, then to stdout: a refused document prints nothing."""
    from .csvio import json_text, write_json

    if out:
        write_json(_resolve_out(out), payload)
    sys.stdout.write(json_text(payload))


def _float_list(text: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _series_assignment(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected NODE=PATH, got {text!r}")
    node, path = text.split("=", 1)
    return node, path


def _cmd_calibrate(args: argparse.Namespace, config_hash: Callable[[], str]) -> int:
    from dataclasses import asdict

    from .calibrate import DesignSpec, calibrate_epsilon

    spec = DesignSpec(sensitivity=args.sensitivity, gamma=args.gamma, theta=args.theta,
                      max_deviation=args.max_deviation)
    _emit_json({**asdict(calibrate_epsilon(spec)), "config_hash": config_hash()}, args.out)
    return 0


def _cmd_impact(args: argparse.Namespace, config_hash: Callable[[], str]) -> int:
    from .adversary import AttackProfile
    from .laplace import PrivacyParams

    base = PrivacyParams(sensitivity=args.sensitivity, epsilon=args.epsilon, theta=args.theta)
    profile = AttackProfile.solve(args.gamma, base)
    payload = {name: getattr(args, name) for name in ("epsilon", "gamma", "sensitivity", "theta")}
    payload.update(scale=base.scale, k1=profile.k1, mu_star=profile.mu_star,
                   deviation=profile.mean_shift, config_hash=config_hash())
    _emit_json(payload, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace, config_hash: Callable[[], str]) -> int:
    from .adversary import _write_sweep

    out = _resolve_out(args.out)
    cells = _write_sweep(out, args.epsilons, args.gammas, args.sensitivities, args.theta,
                         {"config_hash": config_hash()})
    _emit_json({"rows": cells, "out": out, "config_hash": config_hash()}, None)
    return 0


# The fewest --series files a forked share of simulate's ingest is given.  A fork, and its
# series' trip back through the pipe, cost about what ingesting this many files in the parent
# would: on 2 vCPUs, with wide's quarter-hour files (medians of 15 alternating rounds), 6 files
# took 14.1 ms in one process and 14.4 ms in two shares, 8 files 18.8 and 17.2 ms, 16 files
# 37.9 and 27.4 ms, and 100 files 230 and 128 ms.
_FORK_FILES = 8


def _cmd_simulate(args: argparse.Namespace, config_hash: Callable[[dict], str]) -> int:
    from dataclasses import asdict
    from itertools import chain

    from . import shares
    from .gridsim import _AGGREGATION, Detector, _load_topology, detection_rate, run_query
    from .seeds import derive_seed
    from .series import _ingest, resample, synth_pmu

    if args.n_runs is not None and args.tau is None:
        raise ValueError("--n-runs estimates detection rates and needs a detector: set --tau")
    topology, topology_digest = _load_topology(args.topology)
    digests = {"topology": topology_digest}
    # The last file per node wins; earlier ones are not read.
    series_paths = dict(args.series or [])
    stray = sorted(set(series_paths).difference(topology.pmu_ids()))
    if stray:
        raise ValueError(f"--series names node(s) that are not PMUs of the topology: "
                         f"{', '.join(stray)}")
    paths = list(series_paths.values())
    how = _AGGREGATION.get(args.kind)  # None for a kind the query refuses

    def ingest(first: int, last: int) -> list:
        # Each file's hourly series, as the query resamples it, and the sha256 of its bytes.
        out = []
        for path in paths[first:last]:
            series, digest = _ingest(path)
            if how is not None:
                try:
                    series = resample(series, "hour", how=how)
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
            out.append((series, digest))
        return out

    # Contiguous shares of the files in argument order: the lowest failing share raises, so the
    # first bad file is the one named, as in one process.
    ingested = dict(zip(series_paths, chain.from_iterable(
        shares.run(len(paths), ingest, most=len(paths) // _FORK_FILES))))
    series_map = {node: series for node, (series, _) in ingested.items()}
    if series_paths:
        digests["series"] = {node: digest for node, (_, digest) in ingested.items()}
    if args.synth_days:
        for pmu in topology.pmu_ids():
            if pmu not in series_map:
                series_map[pmu] = synth_pmu(
                    days=args.synth_days, seed=derive_seed(args.seed, "synth", pmu)
                )
    detector = None
    if args.tau is not None:
        detector = Detector(tau=args.tau, window=args.window)
    trace = run_query(topology, series_map, args.kind, detector, seed=args.seed)
    run_hash = config_hash(digests)
    payload = {**trace.summary(), "config_hash": run_hash}
    if args.n_runs is not None:
        rates = detection_rate(topology, series_map, args.kind, detector, args.n_runs, args.seed)
        payload["detection"] = asdict(rates)
    if args.trace_out:
        trace_path = _resolve_out(args.trace_out)
        trace.to_csv(trace_path, metadata={"config_hash": run_hash})
        payload["trace_out"] = trace_path
    _emit_json(payload, args.out)
    return 0


def _cmd_qos(args: argparse.Namespace, config_hash: Callable[[], str]) -> int:
    from dataclasses import asdict

    from .adversary import AttackProfile
    from .forecasting import ForecastConfig
    from .laplace import PrivacyParams
    from .qos import cost_analysis, dp_protect, inject_attack
    from .seeds import derive_seed
    from .series import export_csv, resample, synth_pmu

    # The default window depends only on --days, so the hash of the
    # unresolved None still names one output.
    start = max(0, args.days - 78) if args.attack_start is None else args.attack_start
    end = max(0, args.days - 48) if args.attack_end is None else args.attack_end
    # The daily series holds --days values; a --days below 1 is synth_pmu's to refuse.
    if args.days >= 1 and not 0 <= start <= end <= args.days:
        raise ValueError(f"attack window outside series: --attack-start {start} and --attack-end "
                         f"{end} must satisfy 0 <= start <= end <= --days {args.days}")
    hourly = synth_pmu(days=args.days, seed=derive_seed(args.seed, "qos-series"))
    original = resample(hourly, "day", how="sum")  # daily energy totals
    params = PrivacyParams(sensitivity=args.sensitivity, epsilon=args.epsilon)
    dp_variant = dp_protect(original, params, seed=args.seed)
    profile = AttackProfile.solve(args.gamma, params)
    fdi_variant = inject_attack(dp_variant, profile, (start, end), seed=args.seed)
    cfg = ForecastConfig(horizon=args.horizon, season_length=args.season_length)
    report = cost_analysis(original, dp_variant, fdi_variant, cfg, epsilon=args.epsilon)
    payload = {**asdict(report), "config_hash": config_hash()}
    if args.export_series:
        directory = _resolve_out(args.export_series)
        os.makedirs(directory, exist_ok=True)
        meta = {"config_hash": config_hash()}
        for name, variant in (
            ("original", original), ("dp", dp_variant), ("fdi_dp", fdi_variant)
        ):
            export_csv(variant, os.path.join(directory, f"{name}.csv"), metadata=meta)
        payload["export_dir"] = directory
    _emit_json(payload, args.out)
    return 0


def _cmd_bench(args: argparse.Namespace, config_hash: Callable[[], str]) -> int:
    from .adversary import AttackProfile
    from .bench import run_bench
    from .laplace import PrivacyParams
    from .seeds import derive_seed
    from .series import synth_pmu

    if args.batch_size < 1:
        raise ValueError(f"--batch-size must be at least 1, got {args.batch_size}")
    days = max(1, math.ceil(args.batch_size / 24))
    series = synth_pmu(days=days, seed=derive_seed(args.seed, "bench-batch"))
    batch = series.values[: args.batch_size]
    attacker = AttackProfile.solve(
        args.gamma, PrivacyParams(sensitivity=args.sensitivity, epsilon=args.epsilon)
    )
    result = run_bench(batch, attacker, reps=args.reps, seed=args.seed)
    _emit_json({**result.to_dict(), "config_hash": config_hash()}, args.out)
    return 0


def _cmd_synth(args: argparse.Namespace, config_hash: Callable[[], str]) -> int:
    from .series import export_csv, synth_pmu

    series = synth_pmu(
        days=args.days,
        noise_level=args.noise_level,
        missing_fraction=args.missing_fraction,
        seed=args.seed,
        start=args.start,
    )
    out = _resolve_out(args.out)
    export_csv(series, out, metadata={"config_hash": config_hash()})
    _emit_json({"rows": len(series), "out": out, "config_hash": config_hash()}, None)
    return 0


def _usage_error(message: str, command: str | None) -> None:
    """A usage error written as a command's error, then exit 2 as argparse exits."""
    print(json.dumps({"error": message, "command": command}), file=sys.stderr)
    sys.exit(2)


class _Parser(argparse.ArgumentParser):
    """Takes a negative number in exponent form, `--theta -1e308`, or a negative infinity or
    NaN, `--theta -inf`, `--epsilons -nan,1`, as an option's value, as it takes -1 and -0.5;
    argparse reads them as options and stops with usage (before Python 3.13 for the exponent
    form, in every version for -inf and -nan). Its subcommand parsers are made by this class.

    A value or an argument it rejects (`--theta abc`, a missing `--out`) is one JSON error on
    stderr, as a command's, not usage text; the error names the subcommand whose parser met it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Python 3.13's rule, plus the prefixes float() reads as -inf, -infinity and -nan.
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def error(self, message: str):
        _usage_error(message, self.prog.partition(" ")[2] or None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dpgrid",
        description="Laplace-noise defense design and evaluation for grid telemetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="privacy loss that caps stealthy impact")
    p.add_argument("--sensitivity", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--max-deviation", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("impact", help="best stealthy attack at fixed parameters")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sensitivity", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_impact)

    p = sub.add_parser("sweep", help="impact over a parameter grid, to CSV")
    p.add_argument("--epsilons", type=_float_list, required=True)
    p.add_argument("--gammas", type=_float_list, required=True)
    p.add_argument("--sensitivities", type=_float_list, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="run the measurement-tree simulation")
    p.add_argument("--topology", required=True)
    p.add_argument("--series", type=_series_assignment, action="append",
                   metavar="NODE=PATH")
    p.add_argument("--synth-days", type=int, default=None,
                   help="generate synthetic series for PMUs without one")
    p.add_argument("--kind", default="hourly_mean")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--window", type=int, default=24)
    p.add_argument("--n-runs", type=int, default=None,
                   help="also estimate detection rates over this many runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("qos", help="forecast-space cost of the defense")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sensitivity", type=float, required=True)
    p.add_argument("--days", type=int, default=1461)
    p.add_argument("--attack-start", type=int, default=None, help="daily index, inclusive")
    p.add_argument("--attack-end", type=int, default=None, help="daily index, exclusive")
    p.add_argument("--season-length", type=int, default=7)
    p.add_argument("--horizon", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export-series", default=None, metavar="DIR")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qos)

    p = sub.add_parser("bench", help="manipulation cost: clear vs AES-256-CBC")
    p.add_argument("--batch-size", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--sensitivity", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic measurement CSV")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--noise-level", type=float, default=0.05)
    p.add_argument("--missing-fraction", type=float, default=0.0)
    p.add_argument("--start", default="2015-01-01")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}", args.command)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a numpy overflow ends the run
            return args.func(args, functools.partial(_config_hash, args))
    except (ValueError, OSError, KeyError, MemoryError, RuntimeWarning) as exc:
        print(json.dumps({"error": str(exc), "command": args.command}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
