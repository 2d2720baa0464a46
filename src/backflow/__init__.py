"""Driven-qubit dissipative dynamics and non-Markovianity measures.

A laser-driven qubit in a Lorentzian reservoir evolves under a time-local
master equation whose decay rates can turn temporarily negative.  This
package builds the generators of that equation in its secular, full
nonsecular, single-channel nonsecular and undriven forms, integrates the
dynamics, and quantifies memory effects with two measures: the divisibility
defect (projected Choi spectrum of the generator) and the
information-backflow maximum (trace-distance revivals over initial state
pairs), each cross-validated against its closed form.
"""

from .params import (
    Coefficients,
    DriveParams,
    ModelParams,
    Regime,
    RegimeParams,
    ReservoirParams,
    UndrivenParams,
    classify_regime,
    derive,
)
from .rates import (
    PoleError,
    QTriple,
    RateSample,
    lorentzian_rate,
    negativity_threshold_s,
    nondriven_envelope,
    nondriven_first_pole,
    nondriven_rate,
    rate_sample,
)
from .generator import (
    GeneratorSpec,
    TimeGenerator,
    compile_generator,
    dissipator,
    full_generator,
    hamiltonian_part,
    jump_operator,
    nonsecular_terms,
    secular_generator,
    simplified_nonsecular_generator,
    undriven_generator,
)
from .dynamics import (
    IntegrationError,
    QubitState,
    Trajectory,
    evolve,
    propagator,
    propagator_grid,
    undriven_trajectory,
)
from .rhp import (
    RhpReport,
    g_numeric,
    g_numeric_grid,
    g_secular_analytic,
    g_nonsecular_analytic,
    g_undriven_analytic,
    negative_part,
    rhp_measure,
)
from .blp import (
    BlpReport,
    SearchConfig,
    StatePair,
    blp_measure,
    sigma_numeric,
    sigma_resonant_nonsecular_analytic,
    sigma_secular_analytic,
    sigma_undriven_analytic,
    trace_distance,
)
from .sweep import SweepAxis, SweepSpec, run_compare, run_sweep
from .plotting import emit_plot

__version__ = "0.1.0"

__all__ = [
    "BlpReport",
    "Coefficients",
    "DriveParams",
    "GeneratorSpec",
    "IntegrationError",
    "ModelParams",
    "PoleError",
    "QTriple",
    "QubitState",
    "RateSample",
    "Regime",
    "RegimeParams",
    "ReservoirParams",
    "RhpReport",
    "SearchConfig",
    "StatePair",
    "SweepAxis",
    "SweepSpec",
    "TimeGenerator",
    "Trajectory",
    "UndrivenParams",
    "blp_measure",
    "classify_regime",
    "compile_generator",
    "derive",
    "dissipator",
    "emit_plot",
    "evolve",
    "full_generator",
    "g_numeric",
    "g_numeric_grid",
    "g_secular_analytic",
    "g_nonsecular_analytic",
    "g_undriven_analytic",
    "hamiltonian_part",
    "jump_operator",
    "lorentzian_rate",
    "negative_part",
    "negativity_threshold_s",
    "nondriven_envelope",
    "nondriven_first_pole",
    "nondriven_rate",
    "nonsecular_terms",
    "propagator",
    "propagator_grid",
    "rate_sample",
    "rhp_measure",
    "run_compare",
    "run_sweep",
    "secular_generator",
    "sigma_numeric",
    "sigma_resonant_nonsecular_analytic",
    "sigma_secular_analytic",
    "sigma_undriven_analytic",
    "simplified_nonsecular_generator",
    "trace_distance",
    "undriven_generator",
    "undriven_trajectory",
]
