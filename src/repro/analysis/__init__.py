"""Analysis layer: scaling fits, degree-growth phases, non-monotonicity, lower bounds.

These modules turn raw convergence measurements into the quantities the
paper's theorems talk about: fitted growth exponents (E1/E2/E5), the exact
expected convergence times of the Figure 1(c) example (E4), minimum-degree
growth phases (E8), and bounded-ratio checks against the lower-bound
curves (E3/E6/E7).
"""

from repro.analysis.scaling import ScalingMeasurement, measure_scaling
from repro.analysis.nonmonotonicity import (
    exact_expected_convergence_time,
    monte_carlo_expected_convergence_time,
    nonmonotonicity_gap,
)
from repro.analysis.degree_growth import DegreePhase, measure_degree_growth_phases
from repro.analysis.lower_bounds import lower_bound_ratio_check
from repro.analysis import theory

__all__ = [
    "theory",
    "ScalingMeasurement",
    "measure_scaling",
    "exact_expected_convergence_time",
    "monte_carlo_expected_convergence_time",
    "nonmonotonicity_gap",
    "DegreePhase",
    "measure_degree_growth_phases",
    "lower_bound_ratio_check",
]
