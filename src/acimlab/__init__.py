"""Invariant densities of W-shaped piecewise-linear expanding interval maps.

Two independent routes to the same object: an explicit series built from the
orbit of the turning point, and an exact Ulam discretization of the transfer
operator.  Sweep utilities reproduce the three limit regimes of the family
and the vanishing lower bounds along sequences of maps.
"""

__version__ = "0.1.0"

from importlib import import_module

# submodule -> its public names.  Names resolve on first access (PEP 562), so
# ``import acimlab`` loads no computing layer, and numpy or scipy load only
# when a name that needs them is used.  Nothing is cached in this namespace:
# every access reads the submodule's current attribute.
_EXPORTS = {
    "density": (
        "BoundingDensities",
        "LambdaData",
        "PiecewiseConstantDensity",
        "RegionIntegrals",
        "SeriesSolution",
        "TurningOrbit",
        "bounding_densities",
        "h0",
        "l1_distance",
        "normalize",
        "region_integrals",
        "solve_series",
        "transfer_operator_apply",
        "vartheta",
    ),
    "errors": ("ComputationError", "ParameterError"),
    "experiments": (
        "BoundReport",
        "CounterexampleRow",
        "Family",
        "RatioReport",
        "SweepRecord",
        "asymptotic_ratio_report",
        "counterexample_sequence",
        "ratio_targets",
        "restricted_turning_map",
        "sweep",
        "uniform_bound_check",
    ),
    "ulam": (
        "MeasureRepr",
        "UlamMatrix",
        "build_ulam",
        "limit_measure",
        "point_mass",
        "stationary_density",
        "wasserstein1",
    ),
    "wmap": (
        "InvariantIntervalReport",
        "PiecewiseLinearMap",
        "WParams",
        "build_w_map",
        "classify_case",
        "fixed_points",
        "invariant_interval_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
