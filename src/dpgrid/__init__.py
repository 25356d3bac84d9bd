"""Laplace-noise defense design and evaluation for grid telemetry.

The package walks the full loop: release aggregates under Laplace
noise, characterize the strongest injection attack that stays within a
stealth budget, invert that relationship to calibrate the privacy loss
against an impact cap, simulate the resulting policy on a measurement
tree, price it in forecast space, and benchmark how cheap in-channel
manipulation is compared to an encrypted baseline.

Importing the package loads no submodule: each public name imports its
module on first access (PEP 562), so a command pays only for what it
runs.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_MODULES = {
    "adversary": (
        "AttackProfile", "SweepPoint", "attack_pdf", "impact_sweep", "kl_from_k1",
        "optimal_impact", "sample_attack_noise", "solve_k1",
    ),
    "bench": ("BenchResult", "run_bench"),
    "calibrate": (
        "BoundaryCase", "DesignResult", "DesignSpec", "boundary_report",
        "calibrate_epsilon", "solve_design_k1",
    ),
    "forecasting": (
        "ForecastConfig", "forecast", "holt_winters_forecast", "seasonal_naive_forecast",
    ),
    "gridsim": (
        "Detector", "DetectionRates", "Edge", "GridTopology", "Layer", "Node", "SimTrace",
        "detection_rate", "load_topology", "run_query", "save_topology", "topology_from_dict",
        "topology_to_dict",
    ),
    "laplace": (
        "Dataset", "IndistinguishabilityReport", "NoisyResult", "PrivacyParams", "adjacent",
        "dp_query", "indistinguishability_check", "laplace_pdf", "params_for_mean",
        "params_for_sum", "sample_laplace",
    ),
    "qos": (
        "CostReport", "UtilityReport", "cost_analysis", "dp_protect", "inject_attack",
        "utility_report",
    ),
    "series": ("MeasurementSeries", "export_csv", "ingest_csv", "resample", "synth_pmu"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
