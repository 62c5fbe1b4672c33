"""Congestion-pricing analysis: flat vs trapezoid tolls on calibrated corridors.

Subpackage map:

- ``core``: shared value types, unit conventions, regime classification.
- ``bottleneck``: closed-form equilibria, optimal tolls, costs, and bounds
  for the fixed-capacity rush-hour model with a transit outside option.
- ``mfd``: the urban extension with a triangular accumulation-outflow
  relation; dynamic benchmarks delegate to ``bottleneck``.
- ``oracle``: independent numeric verification (quadrature and shape
  certificates of the revenue optima) of every closed form.
- ``calibration``: scenario files and the ``bay_bridge`` / ``nyc`` presets.
- ``verify``: randomized agreement suites used by tests and the CLI.
- ``sweep`` / ``cli``: CSV sweep harness and the command-line front end.
"""

from .core import (
    BottleneckParams,
    CostBreakdown,
    DomainError,
    EquilibriumOutcome,
    ParameterError,
    Regime,
    TrapezoidToll,
    TriangularMfd,
    classify_regime,
    regime_thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "BottleneckParams",
    "CostBreakdown",
    "DomainError",
    "EquilibriumOutcome",
    "ParameterError",
    "Regime",
    "TrapezoidToll",
    "TriangularMfd",
    "classify_regime",
    "regime_thresholds",
    "__version__",
]
