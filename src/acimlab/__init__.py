"""Invariant densities of W-shaped piecewise-linear expanding interval maps.

Two independent routes to the same object: an explicit series built from the
orbit of the turning point, and an exact Ulam discretization of the transfer
operator.  Sweep utilities reproduce the three limit regimes of the family
and the vanishing lower bounds along sequences of maps.
"""

__version__ = "0.1.0"

from .density import (
    BoundingDensities,
    LambdaData,
    PiecewiseConstantDensity,
    RegionIntegrals,
    SeriesSolution,
    TurningOrbit,
    bounding_densities,
    density_series,
    h0,
    l1_distance,
    lambda_solve,
    normalize,
    region_integrals,
    renormalized_density_vartheta0,
    solve_series,
    transfer_operator_apply,
    turning_orbit,
    vartheta,
)
from .errors import ComputationError, ParameterError
from .experiments import (
    BoundReport,
    CounterexampleRow,
    Family,
    RatioReport,
    SweepRecord,
    asymptotic_ratio_report,
    counterexample_sequence,
    ratio_targets,
    restricted_turning_map,
    sweep,
    uniform_bound_check,
)
from .ulam import (
    MeasureRepr,
    UlamMatrix,
    build_ulam,
    limit_measure,
    point_mass,
    stationary_density,
    wasserstein1,
)
from .wmap import (
    InvariantIntervalReport,
    PiecewiseLinearMap,
    WParams,
    build_w_map,
    classify_case,
    fixed_points,
    invariant_interval_check,
)

__all__ = [
    "__version__",
    "BoundReport",
    "BoundingDensities",
    "ComputationError",
    "CounterexampleRow",
    "Family",
    "InvariantIntervalReport",
    "LambdaData",
    "MeasureRepr",
    "ParameterError",
    "PiecewiseConstantDensity",
    "PiecewiseLinearMap",
    "RatioReport",
    "RegionIntegrals",
    "SeriesSolution",
    "SweepRecord",
    "TurningOrbit",
    "UlamMatrix",
    "WParams",
    "asymptotic_ratio_report",
    "bounding_densities",
    "build_ulam",
    "build_w_map",
    "classify_case",
    "counterexample_sequence",
    "density_series",
    "fixed_points",
    "h0",
    "invariant_interval_check",
    "l1_distance",
    "lambda_solve",
    "limit_measure",
    "normalize",
    "point_mass",
    "ratio_targets",
    "region_integrals",
    "renormalized_density_vartheta0",
    "restricted_turning_map",
    "solve_series",
    "stationary_density",
    "sweep",
    "transfer_operator_apply",
    "turning_orbit",
    "uniform_bound_check",
    "vartheta",
    "wasserstein1",
]
